(* ------------------------------------------------------------------ *)
(* Machine-readable capture                                             *)
(*                                                                      *)
(* When recording is on (cqctl bench --json DIR), everything the        *)
(* printing helpers below emit is also accumulated per section and      *)
(* flushed as BENCH_<id>.json — no experiment opts in explicitly.       *)
(* ------------------------------------------------------------------ *)

type metric = { m_name : string; m_value : float; m_unit : string }

type record = {
  rec_id : string;
  rec_title : string;
  mutable rec_params : (string * string) list;
  mutable rec_notes : string list;
  mutable rec_tables : (string list * string list list) list;
  mutable rec_metrics : metric list;
}

let json_dir : string option ref = ref None
let current : record option ref = ref None

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_str s = Printf.sprintf "\"%s\"" (json_escape s)

let json_num v =
  if Float.is_finite v then
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.9g" v
  else "null"

(* The metrics registry rendered as one JSON object: the [obs] block
   a BENCH_<id>.json carries when metrics are enabled.  Histograms are
   summarised (count / sum / min / max / p50 / p90 / p99) rather than
   dumped bucket by bucket. *)
let json_of_obs () =
  let module M = Cq_obs.Metrics in
  let snap = M.snapshot () in
  let counters =
    List.map
      (fun (name, v) -> Printf.sprintf "%s: %d" (json_str name) v)
      snap.M.snap_counters
  in
  let gauges =
    List.map
      (fun (name, v) -> Printf.sprintf "%s: %s" (json_str name) (json_num v))
      snap.M.snap_gauges
  in
  let hists =
    List.map
      (fun (name, (h : M.hist_summary)) ->
        Printf.sprintf
          "%s: {\"count\": %d, \"sum\": %s, \"min\": %s, \"max\": %s, \"p50\": %s, \
           \"p90\": %s, \"p99\": %s}"
          (json_str name) h.M.count (json_num h.M.sum) (json_num h.M.min_v)
          (json_num h.M.max_v) (json_num h.M.p50) (json_num h.M.p90) (json_num h.M.p99))
      snap.M.snap_histograms
  in
  Printf.sprintf
    "{\"enabled\": %b, \"counters\": {%s}, \"gauges\": {%s}, \"histograms\": {%s}}"
    (M.enabled ()) (String.concat ", " counters) (String.concat ", " gauges)
    (String.concat ", " hists)

let json_of_record r =
  let buf = Buffer.create 1024 in
  let add = Buffer.add_string buf in
  add "{\n";
  add (Printf.sprintf "  \"experiment\": %s,\n" (json_str r.rec_id));
  add (Printf.sprintf "  \"title\": %s,\n" (json_str r.rec_title));
  add "  \"params\": {";
  add
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%s: %s" (json_str k) (json_str v))
          (List.rev r.rec_params)));
  add "},\n";
  add "  \"notes\": [";
  add (String.concat ", " (List.map json_str (List.rev r.rec_notes)));
  add "],\n";
  add "  \"metrics\": [";
  add
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "{\"name\": %s, \"value\": %s, \"unit\": %s}" (json_str m.m_name)
              (json_num m.m_value) (json_str m.m_unit))
          (List.rev r.rec_metrics)));
  add "],\n";
  add "  \"tables\": [";
  add
    (String.concat ", "
       (List.map
          (fun (header, rows) ->
            Printf.sprintf "{\"header\": [%s], \"rows\": [%s]}"
              (String.concat ", " (List.map json_str header))
              (String.concat ", "
                 (List.map
                    (fun row -> Printf.sprintf "[%s]" (String.concat ", " (List.map json_str row)))
                    rows)))
          (List.rev r.rec_tables)));
  add "]";
  if Cq_obs.Metrics.enabled () then add (Printf.sprintf ",\n  \"obs\": %s" (json_of_obs ()));
  add "\n}\n";
  Buffer.contents buf

let flush_record () =
  match (!current, !json_dir) with
  | Some r, Some dir ->
      let path = Filename.concat dir (Printf.sprintf "BENCH_%s.json" r.rec_id) in
      let oc = open_out path in
      output_string oc (json_of_record r);
      close_out oc;
      current := None
  | _ -> current := None

let json_begin ~dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  json_dir := Some dir

let json_end () =
  flush_record ();
  json_dir := None

let record_metric name value unit_ =
  match !current with
  | Some r -> r.rec_metrics <- { m_name = name; m_value = value; m_unit = unit_ } :: r.rec_metrics
  | None -> ()

let json_param key value =
  match !current with Some r -> r.rec_params <- (key, value) :: r.rec_params | None -> ()

(* ------------------------------------------------------------------ *)
(* Printing and timing helpers                                          *)
(* ------------------------------------------------------------------ *)

let section id title =
  flush_record ();
  (* Each section's obs block is a per-experiment delta, not a running
     total since process start. *)
  Cq_obs.Metrics.reset ();
  if Option.is_some !json_dir then
    current :=
      Some
        {
          rec_id = id;
          rec_title = title;
          rec_params = [];
          rec_notes = [];
          rec_tables = [];
          rec_metrics = [];
        };
  Printf.printf "\n================================================================\n";
  Printf.printf "%s — %s\n" id title;
  Printf.printf "================================================================\n%!"

let note fmt =
  Format.kasprintf
    (fun s ->
      (match !current with Some r -> r.rec_notes <- s :: r.rec_notes | None -> ());
      Format.printf "  %s@." s)
    fmt

let table ~header ~rows =
  (match !current with Some r -> r.rec_tables <- (header, rows) :: r.rec_tables | None -> ());
  let all = header :: rows in
  let ncols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row -> List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row)
    all;
  let print_row row =
    print_string "  ";
    List.iteri (fun i cell -> Printf.printf "%-*s  " widths.(i) cell) row;
    print_newline ()
  in
  print_row header;
  print_row (List.init (List.length header) (fun i -> String.make widths.(i) '-'));
  List.iter print_row rows;
  print_string "\n";
  flush stdout

let throughput ~events ~warmup f =
  let n = Array.length events in
  if warmup >= n then invalid_arg "Report.throughput: no measured events";
  for i = 0 to warmup - 1 do
    f events.(i)
  done;
  let measured = n - warmup in
  let t0 = Cq_util.Clock.monotonic () in
  for i = warmup to n - 1 do
    f events.(i)
  done;
  let dt = Cq_util.Clock.monotonic () -. t0 in
  let rate = Cq_util.Clock.throughput ~events:measured ~seconds:dt in
  record_metric "throughput" rate "events_per_sec";
  rate

let time_per_op ~n f =
  if n <= 0 then invalid_arg "Report.time_per_op: n must be positive";
  let t0 = Cq_util.Clock.monotonic () in
  for i = 0 to n - 1 do
    f i
  done;
  let dt = Cq_util.Clock.monotonic () -. t0 in
  let ns = dt /. float_of_int n *. 1e9 in
  record_metric "time_per_op" ns "ns_per_op";
  ns

let fmt_throughput x =
  if x >= 1e6 then Printf.sprintf "%.2fM/s" (x /. 1e6)
  else if x >= 1e3 then Printf.sprintf "%.1fk/s" (x /. 1e3)
  else Printf.sprintf "%.1f/s" x

let fmt_ns x =
  if x >= 1e6 then Printf.sprintf "%.2fms" (x /. 1e6)
  else if x >= 1e3 then Printf.sprintf "%.2fus" (x /. 1e3)
  else Printf.sprintf "%.0fns" x

let fmt_f x =
  if Float.abs x >= 100.0 then Printf.sprintf "%.0f" x
  else if Float.abs x >= 1.0 then Printf.sprintf "%.2f" x
  else Printf.sprintf "%.4f" x

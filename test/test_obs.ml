(* Tests for the observability layer: metrics cells and bucketing,
   the trace ring, Chrome export well-formedness, and the end-to-end
   acceptance criterion — an instrumented band-join workload must
   produce non-zero restructure counters, a positive p99 event
   latency, and a Chrome-loadable trace. *)

module M = Cq_obs.Metrics
module T = Cq_obs.Trace

(* Every test leaves the global switches off and the global cells
   clean, whatever happens inside. *)
let with_obs f =
  M.set_enabled true;
  T.set_enabled true;
  Fun.protect f ~finally:(fun () ->
      M.set_enabled false;
      T.set_enabled false;
      M.reset ();
      T.configure ~capacity:65536)

(* ------------------------------ metrics ------------------------------ *)

let test_disabled_is_noop () =
  let c = M.counter "test.noop_counter" in
  let g = M.gauge "test.noop_gauge" in
  let h = M.histogram "test.noop_hist" in
  M.set_enabled false;
  M.incr c;
  M.add c 10;
  M.set g 3.0;
  M.observe h 42.0;
  Alcotest.(check int) "counter untouched" 0 (M.counter_value c);
  Alcotest.(check (float 0.0)) "gauge untouched" 0.0 (M.gauge_value g);
  Alcotest.(check int) "histogram untouched" 0 (M.hist_count h)

let test_cells_record_when_enabled () =
  with_obs @@ fun () ->
  let c = M.counter "test.counter" in
  let g = M.gauge "test.gauge" in
  M.incr c;
  M.add c 4;
  M.set g 2.5;
  Alcotest.(check int) "counter" 5 (M.counter_value c);
  Alcotest.(check (float 0.0)) "gauge" 2.5 (M.gauge_value g);
  Alcotest.(check bool) "interning returns the same cell" true (M.counter "test.counter" == c)

let test_histogram_percentiles () =
  with_obs @@ fun () ->
  let h = M.histogram "test.hist" in
  Alcotest.(check (float 0.0)) "empty p50" 0.0 (M.percentile h 50.0);
  for v = 1 to 100 do
    M.observe h (float_of_int v)
  done;
  Alcotest.(check int) "count" 100 (M.hist_count h);
  Alcotest.(check (float 0.0)) "p0 is exact min" 1.0 (M.percentile h 0.0);
  Alcotest.(check (float 0.0)) "p100 is exact max" 100.0 (M.percentile h 100.0);
  let p50 = M.percentile h 50.0 and p90 = M.percentile h 90.0 and p99 = M.percentile h 99.0 in
  if not (p50 <= p90 && p90 <= p99) then
    Alcotest.failf "percentiles not monotone: p50=%g p90=%g p99=%g" p50 p90 p99;
  (* The estimate may only round up to its bucket's upper bound. *)
  if p50 < 50.0 || p50 > 64.0 then Alcotest.failf "p50=%g outside [50, 64]" p50

let test_histogram_single_value () =
  with_obs @@ fun () ->
  let h = M.histogram "test.hist_single" in
  M.observe h 5.0;
  List.iter
    (fun p ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "p%g of singleton" p)
        5.0 (M.percentile h p))
    [ 0.0; 50.0; 99.0; 100.0 ]

(* qcheck: a recorded value always lies inside the bucket it was
   assigned to. *)
let prop_value_in_bucket =
  QCheck2.Test.make ~name:"value lies in its bucket" ~count:2000
    QCheck2.Gen.(float_range 0.0 1e300)
    (fun v ->
      let lo, hi = M.bucket_bounds (M.bucket_of v) in
      lo <= v && v < hi)

let test_bucket_edges () =
  Alcotest.(check int) "below 1 is bucket 0" 0 (M.bucket_of 0.5);
  Alcotest.(check int) "1 opens bucket 1" 1 (M.bucket_of 1.0);
  Alcotest.(check int) "2 opens bucket 2" 2 (M.bucket_of 2.0);
  Alcotest.(check int) "huge values cap at the last bucket" (M.n_buckets - 1)
    (M.bucket_of 1e300);
  let lo, hi = M.bucket_bounds (M.n_buckets - 1) in
  Alcotest.(check bool) "last bucket absorbs the rest" true (lo < 1e300 && hi = infinity)

let test_reset () =
  with_obs @@ fun () ->
  let c = M.counter "test.reset_counter" in
  let h = M.histogram "test.reset_hist" in
  M.incr c;
  M.observe h 7.0;
  M.reset ();
  Alcotest.(check int) "counter zeroed" 0 (M.counter_value c);
  Alcotest.(check int) "histogram zeroed" 0 (M.hist_count h);
  Alcotest.(check (float 0.0)) "percentile after reset" 0.0 (M.percentile h 50.0)

let test_snapshot_sorted () =
  with_obs @@ fun () ->
  M.incr (M.counter "test.zz");
  M.incr (M.counter "test.aa");
  let snap = M.snapshot () in
  let names = List.map fst snap.M.snap_counters in
  Alcotest.(check (list string)) "name-sorted" (List.sort String.compare names) names

(* ------------------------------- trace ------------------------------- *)

let test_trace_disabled_is_noop () =
  T.set_enabled false;
  T.clear ();
  T.instant "nothing";
  let r = T.with_span "nothing" (fun () -> 42) in
  Alcotest.(check int) "with_span passes the value through" 42 r;
  Alcotest.(check int) "ring stays empty" 0 (T.length ())

let test_trace_ring_wraps_oldest_first () =
  with_obs @@ fun () ->
  T.configure ~capacity:4;
  for i = 1 to 6 do
    T.instant (Printf.sprintf "e%d" i)
  done;
  Alcotest.(check int) "length capped" 4 (T.length ());
  Alcotest.(check int) "dropped count" 2 (T.dropped ());
  let names =
    List.map
      (function T.Instant { name; _ } -> name | T.Span { name; _ } -> name)
      (T.events ())
  in
  Alcotest.(check (list string)) "oldest-first tail" [ "e3"; "e4"; "e5"; "e6" ] names

let test_with_span_records_on_raise () =
  with_obs @@ fun () ->
  T.clear ();
  (try T.with_span "failing" (fun () -> failwith "boom") with Failure _ -> ());
  match T.events () with
  | [ T.Span { name = "failing"; dur_ns; _ } ] ->
      Alcotest.(check bool) "non-negative duration" true (dur_ns >= 0L)
  | evs -> Alcotest.failf "expected one span, got %d events" (List.length evs)

(* --------------------- minimal JSON well-formedness ------------------ *)

(* Just enough of a recursive-descent JSON parser to validate the
   Chrome trace and the bench obs block without a JSON dependency. *)
type json =
  | J_null
  | J_bool of bool
  | J_num of float
  | J_str of string
  | J_arr of json list
  | J_obj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at offset %d" msg !pos)) in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    if peek () = Some c then advance () else fail (Printf.sprintf "expected %c" c)
  in
  let parse_lit lit v =
    if !pos + String.length lit <= n && String.sub s !pos (String.length lit) = lit then begin
      pos := !pos + String.length lit;
      v
    end
    else fail ("expected " ^ lit)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some '"' -> Buffer.add_char buf '"'
          | Some '\\' -> Buffer.add_char buf '\\'
          | Some '/' -> Buffer.add_char buf '/'
          | Some 'n' -> Buffer.add_char buf '\n'
          | Some 't' -> Buffer.add_char buf '\t'
          | Some 'r' -> Buffer.add_char buf '\r'
          | Some 'b' -> Buffer.add_char buf '\b'
          | Some 'f' -> Buffer.add_char buf '\012'
          | Some 'u' ->
              (* Keep the escape verbatim; we only need well-formedness. *)
              Buffer.add_string buf "\\u"
          | _ -> fail "bad escape");
          advance ();
          go ()
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let num_char c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while !pos < n && num_char s.[!pos] do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          J_obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((k, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((k, v) :: acc)
            | _ -> fail "expected , or }"
          in
          J_obj (members [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          J_arr []
        end
        else begin
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elems (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected , or ]"
          in
          J_arr (elems [])
        end
    | Some '"' -> J_str (parse_string ())
    | Some 't' -> parse_lit "true" (J_bool true)
    | Some 'f' -> parse_lit "false" (J_bool false)
    | Some 'n' -> parse_lit "null" J_null
    | Some _ -> J_num (parse_number ())
    | None -> fail "unexpected end"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let obj_field name = function
  | J_obj fields -> List.assoc_opt name fields
  | _ -> None

let complete_spans json =
  match obj_field "traceEvents" json with
  | Some (J_arr evs) ->
      List.filter
        (fun e ->
          match obj_field "ph" e with Some (J_str "X") -> true | _ -> false)
        evs
  | _ -> Alcotest.fail "traceEvents missing or not an array"

let test_chrome_export_well_formed () =
  with_obs @@ fun () ->
  T.clear ();
  T.instant ~cat:"test" "point";
  ignore (T.with_span ~cat:"test" "work" (fun () -> Sys.opaque_identity (List.init 100 Fun.id)));
  let json = parse_json (T.to_chrome_json ()) in
  (match obj_field "displayTimeUnit" json with
  | Some (J_str "ns") -> ()
  | _ -> Alcotest.fail "displayTimeUnit missing");
  let spans = complete_spans json in
  Alcotest.(check bool) "at least one complete span" true (List.length spans >= 1);
  List.iter
    (fun sp ->
      match (obj_field "ts" sp, obj_field "dur" sp) with
      | Some (J_num ts), Some (J_num dur) ->
          if ts < 0.0 || dur < 0.0 then Alcotest.fail "negative ts/dur"
      | _ -> Alcotest.fail "span missing ts/dur")
    spans

(* ------------------------- bench JSON capture ------------------------ *)

(* One [Report] section written to BENCH_<id>.json in a fresh temp dir,
   returned parsed. *)
let report_capture () =
  let module R = Cq_bench.Report in
  let dir = Filename.temp_file "cq_report" ".d" in
  Sys.remove dir;
  R.json_begin ~dir;
  R.section "obs-roundtrip" "Report capture round trip";
  R.table ~header:[ "k"; "v" ] ~rows:[ [ "a"; "1" ] ];
  R.json_end ();
  let path = Filename.concat dir "BENCH_obs-roundtrip.json" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      Sys.rmdir dir)
    (fun () ->
      let ic = open_in_bin path in
      let body = really_input_string ic (in_channel_length ic) in
      close_in ic;
      parse_json body)

(* The capture carries an [obs] block only while metrics are enabled. *)
let test_report_obs_only_when_enabled () =
  let off = report_capture () in
  Alcotest.(check bool) "no obs key with metrics off" true (obj_field "obs" off = None);
  Alcotest.(check bool) "tables kept" true (obj_field "tables" off <> None);
  with_obs @@ fun () ->
  match obj_field "obs" (report_capture ()) with
  | Some obs ->
      Alcotest.(check bool) "obs.enabled" true (obj_field "enabled" obs = Some (J_bool true))
  | None -> Alcotest.fail "obs key missing with metrics on"

(* --------------------------- acceptance ------------------------------ *)

(* The ISSUE's acceptance workload: a clustered band-join population
   with metrics and tracing enabled must yield non-zero restructure
   counters in the engine stats, a positive p99 ingest latency, and a
   Chrome trace holding at least one complete span. *)
let test_band_join_acceptance () =
  with_obs @@ fun () ->
  M.reset ();
  T.clear ();
  let module E = Cq_engine.Engine in
  let rng = Cq_util.Rng.create 7 in
  let eng = E.create ~alpha:0.05 ~seed:7 () in
  let ranges =
    Cq_relation.Workload.gen_clustered_ranges ~scattered_len:(10.0, 4.0) rng ~n:200
      ~n_clusters:6 ~clustered_frac:0.9 ~domain:(-300.0, 300.0) ~cluster_halfwidth:12.0
      ~len_mu:30.0 ~len_sigma:8.0
  in
  Array.iter (fun range -> ignore (E.subscribe_band eng ~range (fun _ _ -> ()))) ranges;
  for _ = 1 to 300 do
    let b = 500.0 *. Cq_util.Rng.float rng in
    if Cq_util.Rng.bool rng then ignore (E.insert_r eng ~a:(Cq_util.Rng.float rng) ~b)
    else ignore (E.insert_s eng ~b ~c:(Cq_util.Rng.float rng))
  done;
  let st = E.stats eng in
  Alcotest.(check bool) "restructures happened" true (st.E.restructures > 0);
  Alcotest.(check bool) "splits happened" true (st.E.groups_split > 0);
  Alcotest.(check bool) "max group size tracked" true (st.E.max_group_size > 0);
  let p99 = M.percentile (M.histogram "engine.ingest_ns") 99.0 in
  Alcotest.(check bool) "p99 ingest latency positive" true (p99 > 0.0);
  let path = Filename.temp_file "cq_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      T.write_chrome ~path;
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let body = really_input_string ic len in
      close_in ic;
      let spans = complete_spans (parse_json body) in
      Alcotest.(check bool) "trace holds a complete span" true (List.length spans >= 1))

(* The metrics switch only observes: one seeded band+select workload,
   run with metrics off and then on, must deliver the identical
   (qid, rid, sid) sequence, and with metrics on every ingested row
   must leave exactly one fanout sample per join processor, through
   single-tuple inserts and 8-row batches alike. *)
let test_metrics_on_matches_off () =
  let module E = Cq_engine.Engine in
  let module Rng = Cq_util.Rng in
  let run () =
    let rng = Rng.create 11 in
    let eng = E.create ~alpha:0.05 ~seed:11 () in
    let out = ref [] in
    let cb qid (r : Cq_relation.Tuple.r) (s : Cq_relation.Tuple.s) =
      out := (qid, r.rid, s.sid) :: !out
    in
    let iv lo w = Cq_interval.Interval.make lo (lo +. w) in
    for qid = 0 to 59 do
      let lo = if qid mod 3 = 0 then 100.0 *. Rng.float rng else 20.0 +. Rng.float rng in
      if qid mod 2 = 0 then ignore (E.subscribe_band eng ~range:(iv (lo -. 50.0) 30.0) (cb qid))
      else
        ignore
          (E.subscribe_select eng ~range_a:(iv lo 40.0) ~range_c:(iv (lo -. 10.0) 40.0) (cb qid))
    done;
    let rows = ref 0 in
    for step = 1 to 40 do
      let x = 100.0 *. Rng.float rng and y = 100.0 *. Rng.float rng in
      if step mod 4 = 0 then begin
        let b = Cq_relation.Batch.create () in
        for _ = 1 to 8 do
          Cq_relation.Batch.push b ~x:(100.0 *. Rng.float rng) ~y:(100.0 *. Rng.float rng)
        done;
        rows := !rows + 8;
        ignore (if Rng.bool rng then E.ingest_batch_r eng b else E.ingest_batch_s eng b)
      end
      else begin
        incr rows;
        if Rng.bool rng then ignore (E.insert_r eng ~a:x ~b:y)
        else ignore (E.insert_s eng ~b:x ~c:y)
      end
    done;
    (List.rev !out, !rows)
  in
  M.set_enabled false;
  let off, rows = run () in
  with_obs @@ fun () ->
  M.reset ();
  let on, _ = run () in
  Alcotest.(check bool) "workload delivers results" true (off <> []);
  Alcotest.(check (list (triple int int int))) "same deliveries" off on;
  Alcotest.(check int) "one BJ fanout sample per row" rows
    (M.hist_count (M.histogram "proc.BJ.fanout"));
  Alcotest.(check int) "one SJ fanout sample per row" rows
    (M.hist_count (M.histogram "proc.SJ.fanout"))

(* The select processor's scattered index is the instrumented interval
   tree: with metrics on, every single-row R event that has a join
   partner (an S row with its B) stabs it once and leaves one
   [stab.interval_tree.stab_ns] sample; an event with none ends before
   the stab and leaves no sample; with metrics off nothing is
   recorded. *)
let test_instrumented_interval_tree () =
  let module E = Cq_engine.Engine in
  let events = 10 in
  let run ?(partner = true) () =
    (* Twenty disjoint rangeA windows at alpha = 0.5: no group is hot,
       so every select query sits in the scattered index.  The S row
       comes first, so its own event meets an empty R and stabs
       nothing. *)
    let eng = E.create ~alpha:0.5 ~seed:3 () in
    ignore (E.insert_s eng ~b:(if partner then 1.0 else 2.0) ~c:50.0);
    for i = 0 to 19 do
      let lo = 10.0 *. float_of_int i in
      ignore
        (E.subscribe_select eng
           ~range_a:(Cq_interval.Interval.make lo (lo +. 5.0))
           ~range_c:(Cq_interval.Interval.make 0.0 100.0)
           (fun _ _ -> ()))
    done;
    for i = 1 to events do
      ignore (E.insert_r eng ~a:(float_of_int (17 * i mod 200)) ~b:1.0)
    done;
    M.hist_count (M.histogram "stab.interval_tree.stab_ns")
  in
  M.set_enabled false;
  M.reset ();
  Alcotest.(check int) "no samples with metrics off" 0 (run ());
  with_obs @@ fun () ->
  M.reset ();
  Alcotest.(check int) "one stab sample per R event" events (run ());
  M.reset ();
  Alcotest.(check int) "no stab sample for an event with no partner" 0
    (run ~partner:false ());
  (* Tracker moves may add a query more than once. *)
  Alcotest.(check bool) "an add sample per subscription" true
    (M.hist_count (M.histogram "stab.interval_tree.add_ns") >= 20)

let () =
  Alcotest.run "cq_obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_is_noop;
          Alcotest.test_case "cells record when enabled" `Quick test_cells_record_when_enabled;
          Alcotest.test_case "histogram percentiles" `Quick test_histogram_percentiles;
          Alcotest.test_case "single-value histogram" `Quick test_histogram_single_value;
          Alcotest.test_case "bucket edges" `Quick test_bucket_edges;
          Alcotest.test_case "reset" `Quick test_reset;
          Alcotest.test_case "snapshot sorted" `Quick test_snapshot_sorted;
          QCheck_alcotest.to_alcotest prop_value_in_bucket;
        ] );
      ( "trace",
        [
          Alcotest.test_case "disabled is a no-op" `Quick test_trace_disabled_is_noop;
          Alcotest.test_case "ring wraps oldest-first" `Quick test_trace_ring_wraps_oldest_first;
          Alcotest.test_case "with_span records on raise" `Quick test_with_span_records_on_raise;
          Alcotest.test_case "chrome export well-formed" `Quick test_chrome_export_well_formed;
        ] );
      ( "report",
        [ Alcotest.test_case "obs block only when enabled" `Quick test_report_obs_only_when_enabled ]
      );
      ( "acceptance",
        [
          Alcotest.test_case "instrumented band join" `Quick test_band_join_acceptance;
          Alcotest.test_case "metrics on matches off" `Quick test_metrics_on_matches_off;
          Alcotest.test_case "instrumented interval tree" `Quick test_instrumented_interval_tree;
        ] );
    ]

module I = Cq_interval.Interval
module Rng = Cq_util.Rng
module Metrics = Cq_obs.Metrics
module Trace = Cq_obs.Trace

type divergence = { structure : string; seed : int; op_index : int; detail : string }

type outcome = {
  structure : string;
  seed : int;
  ops : int;
  final_size : int;
  violations : Invariant.violation list;
  divergence : divergence option;
}

let passed o = Option.is_none o.divergence && List.is_empty o.violations

let pp_outcome fmt o =
  Format.fprintf fmt "%-22s seed=%d ops=%d size=%d: " o.structure o.seed o.ops o.final_size;
  match (o.divergence, o.violations) with
  | None, [] -> Format.fprintf fmt "ok"
  | d, vs ->
      (match d with
      | Some d ->
          Format.fprintf fmt "@,  DIVERGENCE at op %d (replay with seed=%d): %s" d.op_index
            d.seed d.detail
      | None -> ());
      List.iter (fun v -> Format.fprintf fmt "@,  VIOLATION %a" Invariant.pp_violation v) vs

(* How often the (expensive, near-linear) invariant audits run. *)
let checkpoint_gap ops = max 50 (ops / 20)

(* Per-run mutable state shared by every driver below. *)
type run = {
  name : string;
  seed : int;
  start_ns : int64;
  mutable viol : Invariant.violation list;
  mutable div : divergence option;
}

let make_run name seed =
  { name; seed; start_ns = Cq_util.Clock.monotonic_ns (); viol = []; div = None }

let diverge run i fmt =
  Printf.ksprintf
    (fun detail ->
      if Option.is_none run.div then
        run.div <- Some { structure = run.name; seed = run.seed; op_index = i; detail })
    fmt

let record_report run = function Ok () -> () | Error vs -> run.viol <- run.viol @ vs

(* Elapsed time and op counts flow through the metrics registry (one
   gauge/counter pair per structure) and the trace ring, so harnesses
   read them out of the shared snapshot instead of each run printing
   its own timings. *)
let note_elapsed name ~start_ns ~ops =
  let dur_ns = Int64.sub (Cq_util.Clock.monotonic_ns ()) start_ns in
  Metrics.set (Metrics.gauge ("oracle." ^ name ^ ".elapsed_ms")) (Int64.to_float dur_ns /. 1e6);
  Metrics.add (Metrics.counter ("oracle." ^ name ^ ".ops")) ops;
  Trace.add_span ~cat:"oracle" ~name:("oracle." ^ name) ~ts_ns:start_ns ~dur_ns ()

let finish run ~ops ~final_size =
  note_elapsed run.name ~start_ns:run.start_ns ~ops;
  {
    structure = run.name;
    seed = run.seed;
    ops;
    final_size;
    violations = run.viol;
    divergence = run.div;
  }

(* The mirror for index-shaped structures: a multiset of (id, interval)
   pairs, held as a Hashtbl with duplicate bindings per id. *)

let mirror_mem tbl id iv = List.exists (fun iv' -> I.equal iv' iv) (Hashtbl.find_all tbl id)

let mirror_remove_one tbl id iv =
  let bs = Hashtbl.find_all tbl id in
  let rec drop = function
    | [] -> []
    | iv' :: tl -> if I.equal iv' iv then tl else iv' :: drop tl
  in
  let bs' = drop bs in
  List.iter (fun _ -> Hashtbl.remove tbl id) bs;
  List.iter (fun iv' -> Hashtbl.add tbl id iv') (List.rev bs')

let mirror_entries tbl = Hashtbl.fold (fun id iv acc -> (id, iv) :: acc) tbl []

(* ------------------------------------------------------------------ *)
(* Stabbing indexes: one generic driver, four instances                 *)
(* ------------------------------------------------------------------ *)

module type STAB_INDEX = sig
  type t

  val name : string
  val create : seed:int -> t
  val add : t -> int -> I.t -> unit
  val remove : t -> int -> I.t -> bool
  val stab_ids : t -> float -> int list
  val size : t -> int
  val audit : t -> entries:(int * I.t) list -> Invariant.report
end

let run_index (module S : STAB_INDEX) ~seed ~ops =
  let run = make_run S.name seed in
  let t = S.create ~seed in
  let stream = Fault.gen ~seed ~n:ops in
  let mirror : (int, I.t) Hashtbl.t = Hashtbl.create 1024 in
  let gap = checkpoint_gap ops in
  Array.iteri
    (fun i op ->
      if Option.is_none run.div then
        try
          (match op with
          | Fault.Add { id; iv } | Fault.Re_add { id; iv } ->
              S.add t id iv;
              Hashtbl.add mirror id iv
          | Fault.Remove { id; iv } | Fault.Remove_absent { id; iv } ->
              let expect = mirror_mem mirror id iv in
              let got = S.remove t id iv in
              if got <> expect then
                diverge run i "remove %d %s returned %b, oracle says %b" id (I.to_string iv)
                  got expect
              else if got then mirror_remove_one mirror id iv
          | Fault.Probe x ->
              let want =
                List.sort Int.compare
                  (Hashtbl.fold
                     (fun id iv acc -> if I.stabs iv x then id :: acc else acc)
                     mirror [])
              in
              let got = List.sort Int.compare (S.stab_ids t x) in
              if not (List.equal Int.equal got want) then
                diverge run i "stab %g returned %d ids, oracle says %d" x (List.length got)
                  (List.length want));
          let n = S.size t and m = Hashtbl.length mirror in
          if n <> m then diverge run i "size %d, oracle says %d" n m;
          if (i + 1) mod gap = 0 then
            record_report run (S.audit t ~entries:(mirror_entries mirror))
        with exn -> diverge run i "uncaught exception: %s" (Printexc.to_string exn))
    stream;
  record_report run (S.audit t ~entries:(mirror_entries mirror));
  finish run ~ops ~final_size:(S.size t)

(* Any backend behind the common Stab_backend.S signature gets a
   driver for free: payloads carry their interval along so the generic
   audit can recover it. *)
module Stab_driver (B : Cq_index.Stab_backend.S) : STAB_INDEX = struct
  module A = Invariant.Stab (B)

  type t = (int * I.t) B.t

  let name = B.name
  let create ~seed = B.create ~seed
  let add t id iv = B.add t iv (id, iv)
  let remove t id iv = B.remove t iv (fun (id', _) -> id' = id)

  let stab_ids t x =
    let acc = ref [] in
    B.stab t x (fun (id, _) -> acc := id :: !acc);
    !acc

  let size = B.size
  let audit t ~entries:_ = A.audit ~interval:snd t
end

module Itree_driver = Stab_driver (Cq_index.Stab_backend.Interval_tree)
module Pst_driver = Stab_driver (Cq_index.Stab_backend.Treap)

(* Intervals embed into the R-tree as zero-height-free rectangles
   [iv × [0,1]]; stabbing at y = 0.5 recovers 1-D stabbing. *)
module Rtree_driver : STAB_INDEX = struct
  module R = Cq_index.Rtree
  module Rect = Cq_index.Rect

  type t = int R.t

  let name = "rtree"
  let create ~seed:_ = R.create ()
  let rect iv = Rect.make ~x:iv ~y:(I.make 0.0 1.0)
  let add t id iv = R.insert t (rect iv) id
  let remove t id iv = R.remove t (rect iv) (fun id' -> id' = id)

  let stab_ids t x =
    let acc = ref [] in
    R.stab t ~x ~y:0.5 (fun _ id -> acc := id :: !acc);
    !acc

  let size = R.size
  let audit t ~entries:_ = Invariant.rtree t
end

(* Treap elements are (id, interval), ordered primarily by left
   endpoint as the partition algorithms require. *)
module Elem = struct
  type t = int * I.t

  let compare (i1, v1) (i2, v2) =
    match Float.compare (I.lo v1) (I.lo v2) with 0 -> Int.compare i1 i2 | c -> c

  let interval (_, v) = v
end

module Tr = Cq_index.Treap.Make (Elem)
module Tr_audit = Invariant.Treap (Elem) (Tr)

module Treap_driver : STAB_INDEX = struct
  type t = { rng : Rng.t; mutable tr : Tr.t }

  let name = "treap"
  let create ~seed = { rng = Rng.create seed; tr = Tr.empty }
  let add t id iv = t.tr <- Tr.add t.rng (id, iv) t.tr

  let remove t id iv =
    match Tr.remove (id, iv) t.tr with
    | Some tr ->
        t.tr <- tr;
        true
    | None -> false

  (* Each probe additionally exercises the Appendix-B SPLIT/JOIN pair:
     the treap is split at the probe and rejoined before answering, so
     a split/join bug corrupts the membership answer and gets caught. *)
  let stab_ids t x =
    let l, r = Tr.split_lo_le x t.tr in
    t.tr <- Tr.join l r;
    Tr.fold (fun acc (id, iv) -> if I.stabs iv x then id :: acc else acc) [] t.tr

  let size t = Tr.size t.tr
  let audit t ~entries:_ = Tr_audit.audit t.tr
end

(* ------------------------------------------------------------------ *)
(* B+-tree (keyed on interval left endpoints)                           *)
(* ------------------------------------------------------------------ *)

module Fkey = struct
  type t = float

  let compare = Float.compare
  let compare_at (a : float array) i k = Float.compare (Array.unsafe_get a i) k
end

module Fbt = Cq_index.Btree.Make (Fkey)
module Fbt_audit = Invariant.Btree (Fkey) (Fbt)

let run_btree ~seed ~ops =
  let run = make_run "btree" seed in
  let t : int Fbt.t = Fbt.create () in
  let stream = Fault.gen ~seed ~n:ops in
  let mirror : (int, I.t) Hashtbl.t = Hashtbl.create 1024 in
  let keys () = Hashtbl.fold (fun _ iv acc -> I.lo iv :: acc) mirror [] in
  let gap = checkpoint_gap ops in
  Array.iteri
    (fun i op ->
      if Option.is_none run.div then
        try
          (match op with
          | Fault.Add { id; iv } | Fault.Re_add { id; iv } ->
              Fbt.insert t (I.lo iv) id;
              Hashtbl.add mirror id iv
          | Fault.Remove { id; iv } | Fault.Remove_absent { id; iv } ->
              let expect = mirror_mem mirror id iv in
              let got = Fbt.remove_first t (I.lo iv) (fun id' -> id' = id) in
              if got <> expect then
                diverge run i "remove_first %d at %g returned %b, oracle says %b" id (I.lo iv)
                  got expect
              else if got then mirror_remove_one mirror id iv
          | Fault.Probe x ->
              let ks = keys () in
              let want = List.length (List.filter (fun k -> k = x) ks) in
              let got = Fbt.count_range t ~lo:x ~hi:x in
              if got <> want then
                diverge run i "count_range [%g,%g] = %d, oracle says %d" x x got want;
              let le = List.filter (fun k -> k <= x) ks
              and ge = List.filter (fun k -> k >= x) ks in
              let left, right = Fbt.neighbours t x in
              (match (left, le) with
              | Some (k, _), _ :: _ ->
                  let best = List.fold_left max neg_infinity le in
                  if k <> best then diverge run i "left neighbour of %g is %g, oracle says %g" x k best
              | None, [] -> ()
              | _ -> diverge run i "left-neighbour presence at %g disagrees with oracle" x);
              match (right, ge) with
              | Some (k, _), _ :: _ ->
                  let best = List.fold_left min infinity ge in
                  if k <> best then
                    diverge run i "right neighbour of %g is %g, oracle says %g" x k best
              | None, [] -> ()
              | _ -> diverge run i "right-neighbour presence at %g disagrees with oracle" x);
          let n = Fbt.length t and m = Hashtbl.length mirror in
          if n <> m then diverge run i "length %d, oracle says %d" n m;
          if (i + 1) mod gap = 0 then record_report run (Fbt_audit.audit t)
        with exn -> diverge run i "uncaught exception: %s" (Printexc.to_string exn))
    stream;
  record_report run (Fbt_audit.audit t);
  finish run ~ops ~final_size:(Fbt.length t)

(* ------------------------------------------------------------------ *)
(* Set-like structures: hotspot tracker and the two partitions          *)
(* ------------------------------------------------------------------ *)

(* These reject duplicate inserts with Invalid_argument and hold at
   most one copy of each element, so the mirror is a plain id -> iv
   table and Re_add ops assert the rejection. *)
type setlike = {
  s_insert : int * I.t -> unit;
  s_delete : int * I.t -> bool;
  s_mem : int * I.t -> bool;
  s_size : unit -> int;
  s_audit : unit -> Invariant.report;
}

let run_setlike name s ~seed ~ops =
  let run = make_run name seed in
  let stream = Fault.gen ~seed ~n:ops in
  let mirror : (int, I.t) Hashtbl.t = Hashtbl.create 1024 in
  let gap = checkpoint_gap ops in
  Array.iteri
    (fun i op ->
      if Option.is_none run.div then
        try
          (match op with
          | Fault.Add { id; iv } ->
              s.s_insert (id, iv);
              Hashtbl.replace mirror id iv;
              if not (s.s_mem (id, iv)) then diverge run i "mem is false right after insert"
          | Fault.Re_add { id; iv } -> (
              match s.s_insert (id, iv) with
              | () -> diverge run i "duplicate insert of %d was accepted" id
              | exception Invalid_argument _ -> ())
          | Fault.Remove { id; iv } | Fault.Remove_absent { id; iv } ->
              let expect = Hashtbl.mem mirror id in
              let got = s.s_delete (id, iv) in
              if got <> expect then
                diverge run i "delete %d returned %b, oracle says %b" id got expect
              else if got then Hashtbl.remove mirror id
          | Fault.Probe _ -> ());
          let n = s.s_size () and m = Hashtbl.length mirror in
          if n <> m then diverge run i "size %d, oracle says %d" n m;
          if (i + 1) mod gap = 0 then record_report run (s.s_audit ())
        with exn -> diverge run i "uncaught exception: %s" (Printexc.to_string exn))
    stream;
  record_report run (s.s_audit ());
  finish run ~ops ~final_size:(s.s_size ())

module Tracker = Hotspot_core.Hotspot_tracker.Make (Elem)
module Tracker_audit = Invariant.Tracker (Elem) (Tracker)

let run_tracker ?(alpha = 0.05) ~seed ~ops () =
  let t = Tracker.create ~alpha ~seed () in
  run_setlike "hotspot_tracker"
    {
      s_insert = (fun e -> Tracker.insert t e);
      s_delete = (fun e -> Tracker.delete t e);
      s_mem = (fun e -> Tracker.mem t e);
      s_size = (fun () -> Tracker.size t);
      s_audit = (fun () -> Tracker_audit.audit t);
    }
    ~seed ~ops

module Lazy_p = Hotspot_core.Lazy_partition.Make (Elem)
module Refined_p = Hotspot_core.Refined_partition.Make (Elem)
module Lazy_audit = Invariant.Partition (Elem) (Lazy_p)
module Refined_audit = Invariant.Partition (Elem) (Refined_p)

let run_lazy_partition ~seed ~ops =
  let p = Lazy_p.create ~seed () in
  run_setlike "lazy_partition"
    {
      s_insert = (fun e -> Lazy_p.insert p e);
      s_delete = (fun e -> Lazy_p.delete p e);
      s_mem = (fun e -> Lazy_p.mem p e);
      s_size = (fun () -> Lazy_p.size p);
      s_audit = (fun () -> Lazy_audit.audit ~name:"lazy_partition" p);
    }
    ~seed ~ops

let run_refined_partition ~seed ~ops =
  let p = Refined_p.create ~seed () in
  run_setlike "refined_partition"
    {
      s_insert = (fun e -> Refined_p.insert p e);
      s_delete = (fun e -> Refined_p.delete p e);
      s_mem = (fun e -> Refined_p.mem p e);
      s_size = (fun () -> Refined_p.size p);
      s_audit = (fun () -> Refined_audit.audit ~name:"refined_partition" p);
    }
    ~seed ~ops

(* ------------------------------------------------------------------ *)
(* Engine-level differential harness: workload x driver x comparator   *)
(* ------------------------------------------------------------------ *)

module Engine = Cq_engine.Engine
module Par = Cq_engine.Parallel
module Tuple = Cq_relation.Tuple
module Err = Cq_util.Error
module Netd = Cq_net.Driver

type pair = { qi : int; sign : int; at : int; r : Tuple.r; s : Tuple.s }

type output = {
  driver : string;
  workload : string;
  seed : int;
  steps : int;
  sessions : int;
  counts : int array;
  results : pair list;
  delivered : int;
  degraded : Engine.degraded list;
  min_rate : float;
  dropped_rows : int;
  failure : divergence option;
  violations : Invariant.violation list;
}

type driver =
  | Reference
  | Seq_rows
  | Seq_batch
  | Par of int
  | Served of { sessions : int; shards : int }

type comparator = Same | Shed_bounds | Same_stream

let driver_name = function
  | Reference -> "reference"
  | Seq_rows -> "seq-rows"
  | Seq_batch -> "seq-batch"
  | Par n -> Printf.sprintf "par%d" n
  | Served { sessions; shards } -> Printf.sprintf "served%dx%d" sessions shards

type cb = Tuple.r -> Tuple.s -> unit

(* What the replay loop needs from one engine.  [sub] returns the
   query's unsubscribe call; [totals] is (delivered count, degraded
   reports, minimum applied keep-rate, rows dropped whole). *)
type ops = {
  sub : Fault.query -> on_result:cb -> on_retract:cb -> (unit -> bool, Err.t) result;
  rows : Par.side -> (float * float) array -> (unit, Err.t) result;
  del : Par.side -> int -> unit;
  flush : unit -> unit;
  rate : float -> unit;
  audit : unit -> Invariant.report;
  totals : unit -> int * Engine.degraded list * float * int;
}

(* Remove the [k]-th element of a newest-first list, counting from the
   oldest: how every driver resolves [Unsub] and [Del] victims. *)
let pluck k l =
  let i = List.length l - 1 - k in
  (List.nth l i, List.filteri (fun j _ -> j <> i) l)

let unsupported ~driver what =
  Err.raise_ (Err.Invalid_parameter { name = "step"; value = what; expected = "a step " ^ driver ^ " replays" })

let matches q (r : Tuple.r) (s : Tuple.s) =
  match q with
  | Fault.Band w -> I.stabs w (s.b -. r.b)
  | Fault.Select (wa, wc) -> r.b = s.b && I.stabs wa r.a && I.stabs wc s.c

(* The brute-force mirror.  Tuple ids count accepted rows per relation,
   as the engines' do. *)
let reference () =
  let queries = ref [] and rs = ref [] and ss = ref [] in
  let next_rid = ref 0 and next_sid = ref 0 and delivered = ref 0 in
  let credit r s =
    List.iter (fun (q, on_res, _) -> if matches q r s then (incr delivered; on_res r s)) !queries
  and debit r s = List.iter (fun (q, _, on_ret) -> if matches q r s then on_ret r s) !queries in
  let empty = function Fault.Band w -> I.is_empty w | Fault.Select (a, c) -> I.is_empty a || I.is_empty c in
  {
    sub =
      (fun q ~on_result ~on_retract ->
        if empty q then Error (Err.Empty_range { name = "range" })
        else
          let entry = (q, on_result, on_retract) in
          queries := entry :: !queries;
          Ok
            (fun () ->
              queries := List.filter (fun e -> e != entry) !queries;
              true));
    rows =
      (fun side rows ->
        match Array.find_opt (fun (x, y) -> not (Float.is_finite x && Float.is_finite y)) rows with
        | Some (x, y) -> Error (Err.Not_finite { name = "row"; value = x +. y })
        | None ->
            Array.iter
              (fun (x, y) ->
                match side with
                | Par.R ->
                    let r = { Tuple.rid = !next_rid; a = x; b = y } in
                    incr next_rid;
                    List.iter (credit r) !ss;
                    rs := r :: !rs
                | Par.S ->
                    let s = { Tuple.sid = !next_sid; b = x; c = y } in
                    incr next_sid;
                    List.iter (fun r -> credit r s) !rs;
                    ss := s :: !ss)
              rows;
            Ok ());
    del =
      (fun side k ->
        match side with
        | Par.R ->
            let r, rest = pluck k !rs in
            rs := rest;
            List.iter (debit r) !ss
        | Par.S ->
            let s, rest = pluck k !ss in
            ss := rest;
            List.iter (fun r -> debit r s) !rs);
    flush = ignore;
    rate = ignore;
    audit = (fun () -> Ok ());
    totals = (fun () -> (!delivered, [], 1.0, 0));
  }

(* The sequential engine.  [staged] ingests each [Rows] step as one
   batch through the staged descent; otherwise every row is a one-row
   batch, whose tuple handle is kept for [Del].  Either way the live
   counts are kept, and every audit holds the engine's sizes to them. *)
let seq_ops ~staged eng =
  let rs = ref [] and ss = ref [] and nr = ref 0 and ns = ref 0 in
  let one_row side acc (x, y) =
    Result.bind acc (fun () ->
        match side with
        | Par.R -> Result.map (fun (r, _) -> rs := r :: !rs; incr nr) (Engine.try_insert_r eng ~a:x ~b:y)
        | Par.S -> Result.map (fun (s, _) -> ss := s :: !ss; incr ns) (Engine.try_insert_s eng ~b:x ~c:y))
  in
  let live = function Par.R -> nr | Par.S -> ns in
  {
    sub =
      (fun q ~on_result ~on_retract ->
        let sub =
          match q with
          | Fault.Band range -> Engine.try_subscribe_band eng ~on_retract ~range on_result
          | Fault.Select (range_a, range_c) ->
              Engine.try_subscribe_select eng ~on_retract ~range_a ~range_c on_result
        in
        Result.map (fun sub () -> Engine.unsubscribe eng sub) sub);
    rows =
      (fun side rows ->
        if not staged then Array.fold_left (one_row side) (Ok ()) rows
        else
          let b = Cq_relation.Batch.of_rows rows in
          Result.map
            (fun _ -> live side := !(live side) + Array.length rows)
            (match side with
            | Par.R -> Engine.try_ingest_batch_r eng b
            | Par.S -> Engine.try_ingest_batch_s eng b));
    del =
      (fun side k ->
        decr (live side);
        let gone =
          match side with
          | Par.R ->
              let r, rest = pluck k !rs in
              rs := rest;
              Engine.delete_r eng r
          | Par.S ->
              let s, rest = pluck k !ss in
              ss := rest;
              Engine.delete_s eng s
        in
        if Option.is_none gone then
          Err.corrupt ~structure:"engine" "deleting live tuple #%d found nothing" k);
    flush = ignore;
    rate = Engine.set_shed_rate eng;
    audit =
      (fun () ->
        let st = Engine.stats eng in
        if st.r_size = !nr && st.s_size = !ns then Invariant.engine eng
        else
          let detail = Printf.sprintf "|R| %d, |S| %d; %d and %d live" st.r_size st.s_size !nr !ns in
          Invariant.merge
            [ Invariant.engine eng; Error [ { structure = "engine"; check = "size"; detail } ] ]);
    totals =
      (fun () ->
        ( (Engine.stats eng).results_delivered,
          Engine.shed_info eng,
          (Engine.shed_totals eng).tot_min_rate,
          0 ));
  }

(* A parallel engine's keep-rate is fixed at creation: the workload's
   first [Rate], or exact. *)
let initial_rate (w : Fault.workload) =
  Array.fold_right (fun st acc -> match st with Fault.Rate p -> p | _ -> acc) w.steps 1.0

let config (w : Fault.workload) ~shards =
  {
    Engine.Config.default with
    alpha = 0.1;
    seed = w.seed;
    shards;
    batch_size = w.batch_size;
    overload = w.overload;
    shed_rate = initial_rate w;
  }

(* A subscription applies at the current stream position on any shard
   count; an unsubscription goes through a flush barrier, so the query
   first receives everything it produced, as on a sequential engine. *)
let par_ops t ~rate =
  {
    sub =
      (fun q ~on_result ~on_retract:_ ->
        let sub =
          match q with
          | Fault.Band range -> Par.try_subscribe_band t ~range on_result
          | Fault.Select (range_a, range_c) -> Par.try_subscribe_select t ~range_a ~range_c on_result
        in
        Result.map
          (fun sub () ->
            ignore (Par.flush t);
            Par.unsubscribe t sub)
          sub);
    rows = Par.try_ingest_batch t;
    del = (fun _ _ -> unsupported ~driver:"Par" "Del");
    flush = (fun () -> ignore (Par.flush t));
    rate =
      (fun p ->
        if not (Float.equal p rate) then unsupported ~driver:"Par" (Printf.sprintf "Rate %g" p));
    audit = (fun () -> Invariant.parallel t);
    totals =
      (fun () ->
        let info = Par.shed_info t and tot = Par.shed_totals t in
        (Par.results_delivered t, info, tot.par_min_rate, tot.par_dropped_rows));
  }

(* The checks every driver shares: the engine's delivered count must
   equal the deliveries its callbacks saw. *)
let output_of run (w : Fault.workload) ~sessions ~counts ~seen results ~delivered ~degraded
    ~min_rate ~dropped_rows =
  if delivered <> seen then
    diverge run (Array.length w.steps) "engine counts %d results delivered, callbacks saw %d"
      delivered seen;
  {
    driver = run.name;
    workload = w.name;
    seed = w.seed;
    steps = Array.length w.steps;
    sessions;
    counts;
    results;
    delivered;
    degraded;
    min_rate;
    dropped_rows;
    failure = run.div;
    violations = run.viol;
  }

(* The one replay loop, with the checks oracle.mli lists as shared by
   every driver.  Without [keep] only counts are kept: a burst replay
   delivers millions of results, and the shed bounds need no list. *)
let replay_with ~keep name ops (w : Fault.workload) =
  let run = make_run name w.seed in
  let n = Array.length w.steps in
  let subs = Array.fold_left (fun k st -> match st with Fault.Sub _ -> k + 1 | _ -> k) 0 w.steps in
  let live = ref [] and alive = Array.make subs false and counts = Array.make subs 0 in
  let results = ref [] and seen = ref 0 and at = ref 0 and queries = ref 0 in
  let record qi sign r s =
    if alive.(qi) then begin
      counts.(qi) <- counts.(qi) + sign;
      if sign > 0 then incr seen;
      if keep then results := { qi; sign; at = !at; r; s } :: !results
    end
    else diverge run !at "query %d received a result after unsubscribe" qi
  in
  let step i = function
    | Fault.Sub q -> (
        let qi = !queries in
        match ops.sub q ~on_result:(record qi 1) ~on_retract:(record qi (-1)) with
        | Ok unsub ->
            incr queries;
            alive.(qi) <- true;
            live := (qi, unsub) :: !live
        | Error e -> diverge run i "valid subscription refused: %s" (Err.to_string e))
    | Fault.Unsub k ->
        let (qi, unsub), rest = pluck k !live in
        live := rest;
        if not (unsub ()) then diverge run i "unsubscribe of live query %d returned false" qi;
        alive.(qi) <- false
    | Fault.Rows (side, rows) -> (
        match ops.rows side rows with
        | Ok () -> ()
        | Error e ->
            diverge run i "valid %d-row batch refused: %s" (Array.length rows) (Err.to_string e))
    | Fault.Bad_row (side, row) -> (
        match ops.rows side [| row |] with
        | Error _ -> ()
        | Ok () -> diverge run i "row with a non-finite attribute was accepted")
    | Fault.Bad_sub -> (
        let drop _ _ = () in
        match ops.sub (Fault.Band I.empty) ~on_result:drop ~on_retract:drop with
        | Error _ -> ()
        | Ok _ -> diverge run i "subscription with an empty window was accepted")
    | Fault.Del (side, k) -> ops.del side k
    | Fault.Flush -> ops.flush ()
    | Fault.Rate p -> ops.rate p
  in
  let gap = checkpoint_gap n in
  Array.iteri
    (fun i st ->
      if Option.is_none run.div then begin
        at := i;
        try
          step i st;
          if (i + 1) mod gap = 0 then record_report run (ops.audit ())
        with exn -> diverge run i "uncaught exception: %s" (Printexc.to_string exn)
      end)
    w.steps;
  at := n;
  let delivered, degraded, min_rate, dropped_rows =
    try
      ops.flush ();
      record_report run (ops.audit ());
      ops.totals ()
    with exn ->
      diverge run n "uncaught exception: %s" (Printexc.to_string exn);
      (0, [], 1.0, 0)
  in
  output_of run w ~sessions:1 ~counts ~seen:!seen !results ~delivered ~degraded ~min_rate
    ~dropped_rows

let par_replay ~keep t w =
  replay_with ~keep (driver_name (Par (Par.shards t))) (par_ops t ~rate:(initial_rate w)) w

let replay_par = par_replay ~keep:true

(* Subscriptions are dealt to sessions in contiguous blocks, so
   session-major registration keeps step order and the server's qid is
   [qi + 1]; batches go round-robin. *)
let owner ~sessions ~queries qi = qi * sessions / max 1 queries

let served ~sessions ~shards (w : Fault.workload) =
  let run = make_run (driver_name (Served { sessions; shards })) w.seed in
  let n = Array.length w.steps in
  let queries = ref [] and batches = ref [] and results = ref [] and delivered = ref 0 in
  let counts = ref [||] in
  (try
     Array.iter
       (function
         | Fault.Sub q when List.is_empty !batches -> queries := q :: !queries
         | Fault.Rows (side, rows) -> batches := (side, rows) :: !batches
         | Fault.Flush -> ()
         | st -> unsupported ~driver:"Served" (Format.asprintf "%a" Fault.pp_step st))
       w.steps;
     let qs = Array.of_list (List.rev !queries) in
     let nq = Array.length qs in
     let owner qi = owner ~sessions ~queries:nq qi in
     let blocks = List.init sessions (fun i -> List.filter (fun qi -> owner qi = i) (List.init nq Fun.id)) in
     let spec = function
       | Fault.Band w -> Netd.Band { lo = I.lo w; hi = I.hi w }
       | Fault.Select (a, c) -> Netd.Select { a_lo = I.lo a; a_hi = I.hi a; c_lo = I.lo c; c_hi = I.hi c }
     in
     let workload =
       {
         Netd.seed = w.seed;
         sessions;
         queries =
           Array.of_list (List.map (fun b -> Array.of_list (List.map (fun qi -> spec qs.(qi)) b)) blocks);
         batches =
           Array.of_list (List.rev !batches)
           |> Array.mapi (fun i (side, rows) ->
                  let side = match side with Par.R -> Cq_net.Frame.R | Par.S -> Cq_net.Frame.S in
                  { Netd.owner = i mod sessions; side; rows });
       }
     in
     match Netd.run_workload ~engine:(config w ~shards) workload with
     | Error e -> diverge run n "served run failed: %s" (Cq_net.Client.error_to_string e)
     | Ok oc ->
         if oc.server.net_results_dropped <> 0 then
           diverge run n "lockstep run dropped %d result rows; queues were sized not to"
             oc.server.net_results_dropped;
         let qids = List.map Array.to_list (Array.to_list oc.qids) in
         if not (List.equal (List.equal Int.equal) qids (List.map (List.map succ) blocks)) then
           diverge run n "server's qids [%s] are not query index + 1 in session blocks"
             (String.concat "; "
                (List.map (fun q -> String.concat " " (List.map string_of_int q)) qids));
         delivered := oc.server.net_results_delivered;
         let pair qid (a, b, sb, c) =
           { qi = qid - 1; sign = 1; at = n; r = { Tuple.rid = -1; a; b }; s = { Tuple.sid = -1; b = sb; c } }
         in
         let session frames =
           List.concat_map (fun (qid, rows) -> List.map (pair qid) (Array.to_list rows)) (Array.to_list frames)
         in
         results := List.rev (List.concat_map session (Array.to_list oc.results));
         counts := Array.make nq 0;
         List.iter (fun x -> !counts.(x.qi) <- !counts.(x.qi) + 1) !results
   with exn -> diverge run n "uncaught exception: %s" (Printexc.to_string exn));
  output_of run w ~sessions ~counts:!counts ~seen:(List.length !results) !results
    ~delivered:!delivered ~degraded:[] ~min_rate:1.0 ~dropped_rows:0

let replay ~keep driver (w : Fault.workload) =
  let name = driver_name driver in
  let engine () = Engine.create ~alpha:0.1 ~seed:w.seed ~overload:w.overload () in
  match driver with
  | Reference -> replay_with ~keep name (reference ()) w
  | Seq_rows -> replay_with ~keep name (seq_ops ~staged:false (engine ())) w
  | Seq_batch -> replay_with ~keep name (seq_ops ~staged:true (engine ())) w
  | Par shards -> Par.with_engine (config w ~shards) (fun t -> par_replay ~keep t w)
  | Served { sessions; shards } -> served ~sessions ~shards w

(* ------------------------------ comparators ----------------------------- *)

let compare_result x y =
  let c = Int.compare x.qi y.qi in
  let c = if c <> 0 then c else Int.compare x.r.rid y.r.rid in
  let c = if c <> 0 then c else Int.compare x.s.sid y.s.sid in
  if c <> 0 then c else Int.compare x.sign y.sign

let pp_result x =
  Printf.sprintf "%s(q=%d, rid=%d, sid=%d)" (if x.sign > 0 then "+" else "-") x.qi x.r.rid x.s.sid

(* Signed (query, rid, sid) multisets, then delivered counts; the first
   difference in sorted order is reported at the step that produced it. *)
let same a b =
  let lacks x = Some (x.at, Printf.sprintf "%s lacks %s" b.driver (pp_result x))
  and extra y = Some (y.at, Printf.sprintf "%s has an extra %s" b.driver (pp_result y)) in
  let rec walk = function
    | [], [] -> None
    | x :: _, [] -> lacks x
    | [], y :: _ -> extra y
    | x :: xs, y :: ys ->
        let c = compare_result x y in
        if c = 0 then walk (xs, ys) else if c < 0 then lacks x else extra y
  in
  match walk (List.sort compare_result a.results, List.sort compare_result b.results) with
  | Some _ as d -> d
  | None when a.delivered <> b.delivered ->
      Some
        ( b.steps,
          Printf.sprintf "%s delivered %d results, %s delivered %d" a.driver a.delivered b.driver
            b.delivered )
  | None -> None

(* [a] is exact; [b] sheds.  Bounds hold only while no chunk was
   dropped whole: such rows flip no coin, so no estimator sees them. *)
let shed_bounds a b =
  let nq = max (Array.length a.counts) (Array.length b.counts) in
  let count o qi = if qi < Array.length o.counts then o.counts.(qi) else 0 in
  let check qi =
    let n = count a qi and got = count b qi in
    if got > n then
      Some (Printf.sprintf "query %d delivered %d results but only %d exist (subsample violated)" qi got n)
    else if b.dropped_rows > 0 then None
    else
      match List.find_opt (fun (d : Engine.degraded) -> d.deg_qid = qi) b.degraded with
      | Some d when d.deg_observed <> got ->
          Some (Printf.sprintf "query %d: engine reports %d observed, callbacks saw %d" qi d.deg_observed got)
      | Some d ->
          let err = Float.abs (d.deg_estimate -. float_of_int n) in
          if err > d.deg_claimed_error +. 1e-6 then
            Some
              (Printf.sprintf "query %d: estimate %.2f for exact %d misses the claimed bound %.2f (err %.2f)"
                 qi d.deg_estimate n d.deg_claimed_error err)
          else None
      | None ->
          if got <> n then
            Some
              (Printf.sprintf "query %d never saw a sub-unit coin yet delivered %d of %d exact results"
                 qi got n)
          else None
  in
  if b.min_rate <= 0.0 || b.min_rate > 1.0 then
    Some (b.steps, Printf.sprintf "applied keep-rate %.3f outside (0, 1]" b.min_rate)
  else Option.map (fun d -> (b.steps, d)) (List.find_map check (List.init nq Fun.id))

(* Bit-for-bit rows in per-session order.  Sessions own contiguous
   blocks of query indices, so a stable sort by owner turns a global
   delivery order into the sessions' streams laid end to end. *)
let same_stream a b =
  let queries = max (Array.length a.counts) (Array.length b.counts) in
  let owner x = owner ~sessions:(max a.sessions b.sessions) ~queries x.qi in
  let by_session o = List.stable_sort (fun x y -> Int.compare (owner x) (owner y)) (List.rev o.results) in
  let row x = (x.qi, x.r.a, x.r.b, x.s.b, x.s.c) in
  let show = function
    | [] -> "nothing"
    | x :: _ -> Printf.sprintf "q%d (%.17g, %.17g, %.17g, %.17g)" x.qi x.r.a x.r.b x.s.b x.s.c
  in
  let rec walk j = function
    | [], [] -> None
    | x :: xs, y :: ys when row x = row y -> walk (j + 1) (xs, ys)
    | xs, ys ->
        Some
          ( b.steps,
            Printf.sprintf "session-major row %d: %s has %s, %s has %s" j a.driver (show xs)
              b.driver (show ys) )
  in
  walk 0 (by_session a, by_session b)

let verdict cmp a b =
  let structure = Printf.sprintf "%s[%s/%s]" a.workload a.driver b.driver in
  let divergence =
    match (a.failure, b.failure) with
    | Some d, _ | None, Some d -> Some { d with structure; detail = d.structure ^ ": " ^ d.detail }
    | None, None ->
        let judged =
          match cmp with Same -> same a b | Shed_bounds -> shed_bounds a b | Same_stream -> same_stream a b
        in
        Option.map (fun (op_index, detail) -> { structure; seed = a.seed; op_index; detail }) judged
  in
  {
    structure;
    seed = a.seed;
    ops = a.steps;
    final_size = b.delivered;
    violations = a.violations @ b.violations;
    divergence;
  }

let diff w a b cmp =
  let start_ns = Cq_util.Clock.monotonic_ns () in
  let keep = match cmp with Shed_bounds -> false | Same | Same_stream -> true in
  let o = verdict cmp (replay ~keep a w) (replay ~keep b w) in
  note_elapsed o.structure ~start_ns ~ops:o.ops;
  o

(* ------------------------------------------------------------------ *)
(* The full battery                                                     *)
(* ------------------------------------------------------------------ *)

let index_drivers : (module STAB_INDEX) list =
  [
    (module Itree_driver);
    (module Pst_driver);
    (module Rtree_driver);
    (module Treap_driver);
  ]

(* Build every structure from the same adversarial stream (mutations
   only, single-copy semantics so the set-like structures can share
   it), then deep-audit each one once. *)
let audit_workload ~seed ~n () =
  let audit_start = Cq_util.Clock.monotonic_ns () in
  let stream = Fault.gen ~seed ~n in
  let live = Hashtbl.create 1024 in
  let apply ~add ~del =
    Array.iter
      (fun op ->
        match op with
        | Fault.Add { id; iv } ->
            add id iv;
            Hashtbl.replace live id iv
        | Fault.Remove { id; iv } when Hashtbl.mem live id ->
            del id iv;
            Hashtbl.remove live id
        | _ -> ())
      stream;
    Hashtbl.reset live
  in
  let entries =
    let mirror : (int, I.t) Hashtbl.t = Hashtbl.create 1024 in
    apply ~add:(Hashtbl.replace mirror) ~del:(fun id _ -> Hashtbl.remove mirror id);
    mirror_entries mirror
  in
  let index_reports =
    List.map
      (fun (module S : STAB_INDEX) ->
        let t = S.create ~seed in
        apply ~add:(S.add t) ~del:(fun id iv -> ignore (S.remove t id iv));
        (S.name, S.audit t ~entries))
      index_drivers
  in
  let bt : int Fbt.t = Fbt.create () in
  apply
    ~add:(fun id iv -> Fbt.insert bt (I.lo iv) id)
    ~del:(fun id iv -> ignore (Fbt.remove_first bt (I.lo iv) (fun id' -> id' = id)));
  let tr = Tracker.create ~alpha:0.05 ~seed () in
  apply ~add:(fun id iv -> Tracker.insert tr (id, iv)) ~del:(fun id iv -> ignore (Tracker.delete tr (id, iv)));
  let lp = Lazy_p.create ~seed () in
  apply ~add:(fun id iv -> Lazy_p.insert lp (id, iv)) ~del:(fun id iv -> ignore (Lazy_p.delete lp (id, iv)));
  let rp = Refined_p.create ~seed () in
  apply ~add:(fun id iv -> Refined_p.insert rp (id, iv)) ~del:(fun id iv -> ignore (Refined_p.delete rp (id, iv)));
  let engine_report =
    let o = replay ~keep:false Seq_rows (Fault.gen_engine ~seed ~n:(max 100 (n / 10))) in
    let replay_failure (d : divergence) =
      { Invariant.structure = "engine"; check = "replay"; detail = d.detail }
    in
    match Option.to_list (Option.map replay_failure o.failure) @ o.violations with
    | [] -> Ok ()
    | vs -> Error vs
  in
  let reports =
    index_reports
    @ [
        ("btree", Fbt_audit.audit bt);
        ("hotspot_tracker", Tracker_audit.audit tr);
        ("lazy_partition", Lazy_audit.audit ~name:"lazy_partition" lp);
        ("refined_partition", Refined_audit.audit ~name:"refined_partition" rp);
        ("engine", engine_report);
      ]
  in
  note_elapsed "audit" ~start_ns:audit_start ~ops:n;
  Metrics.add (Metrics.counter "oracle.audit.structures") (List.length reports);
  reports

let fuzz_all ?(shards = 2) ~seed ~ops () =
  let n = max 200 (ops / 10) in
  List.map (fun d -> run_index d ~seed ~ops) index_drivers
  @ [
      run_btree ~seed ~ops;
      run_tracker ~seed ~ops ();
      run_lazy_partition ~seed ~ops;
      run_refined_partition ~seed ~ops;
      diff (Fault.gen_engine ~seed ~n) Reference Seq_rows Same;
      diff (Fault.gen_uniform ~churn:true ~seed ~n ()) Seq_rows Seq_batch Same;
      diff (Fault.gen_uniform ~seed ~n ()) (Par 1) (Par shards) Same;
      diff (Fault.gen_uniform ~rates:Fault.mixed_rates ~seed ~n ()) Reference Seq_rows Shed_bounds;
    ]

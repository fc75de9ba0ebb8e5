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
let finish run ~ops ~final_size =
  let dur_ns = Int64.sub (Cq_util.Clock.monotonic_ns ()) run.start_ns in
  Metrics.set
    (Metrics.gauge ("oracle." ^ run.name ^ ".elapsed_ms"))
    (Int64.to_float dur_ns /. 1e6);
  Metrics.add (Metrics.counter ("oracle." ^ run.name ^ ".ops")) ops;
  Trace.add_span ~cat:"oracle" ~name:("oracle." ^ run.name) ~ts_ns:run.start_ns ~dur_ns ();
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
(* Whole-engine differential run                                        *)
(* ------------------------------------------------------------------ *)

module Engine = Cq_engine.Engine
module Tuple = Cq_relation.Tuple

type q_kind = Band of I.t | Select of I.t * I.t

type q_state = {
  qid : int;
  kind : q_kind;
  sub : Engine.subscription;
  mutable q_live : bool;
  mutable actual : int; (* deliveries - retractions observed *)
  mutable expect : int; (* same balance per the naive mirror *)
}

let q_matches q (r : Tuple.r) (s : Tuple.s) =
  match q.kind with
  | Band w -> I.stabs w (s.b -. r.b)
  | Select (ra, rc) -> r.b = s.b && I.stabs ra r.a && I.stabs rc s.c

let run_engine ~seed ~ops () =
  let run = make_run "engine" seed in
  let eng = Engine.create ~alpha:0.1 ~seed () in
  let stream = Fault.gen_engine ~seed ~n:ops in
  let rng = Rng.create (seed + 0x9e37) in
  let queries : q_state list ref = ref [] in
  let r_live : Tuple.r list ref = ref [] in
  let s_live : Tuple.s list ref = ref [] in
  let next_qid = ref 0 in
  let stray = ref None in
  let gap = checkpoint_gap ops in
  let subscribe i kind =
    let qid = !next_qid in
    incr next_qid;
    let cell = ref None in
    let guard delta _ _ =
      match !cell with
      | Some q when q.q_live -> q.actual <- q.actual + delta
      | Some q when Option.is_none !stray -> stray := Some (q.qid, i)
      | _ -> ()
    in
    let sub =
      match kind with
      | Band range -> Engine.subscribe_band eng ~on_retract:(guard (-1)) ~range (guard 1)
      | Select (range_a, range_c) ->
          Engine.subscribe_select eng ~on_retract:(guard (-1)) ~range_a ~range_c (guard 1)
    in
    let q = { qid; kind; sub; q_live = true; actual = 0; expect = 0 } in
    cell := Some q;
    queries := q :: !queries
  in
  let live_queries () = List.filter (fun q -> q.q_live) !queries in
  (* Mirror the delivery semantics: completing a pair credits every
     subscribed query it matches; deleting a tuple debits every
     subscribed query once per live matching partner. *)
  let credit_r delta r =
    List.iter
      (fun q ->
        List.iter (fun s -> if q_matches q r s then q.expect <- q.expect + delta) !s_live)
      (live_queries ())
  in
  let credit_s delta s =
    List.iter
      (fun q ->
        List.iter (fun r -> if q_matches q r s then q.expect <- q.expect + delta) !r_live)
      (live_queries ())
  in
  let pick l = match !l with [] -> None | xs -> Some (List.nth xs (Rng.int rng (List.length xs))) in
  let checkpoint i =
    List.iter
      (fun q ->
        if q.actual <> q.expect then
          diverge run i "query %d balance %d, oracle says %d" q.qid q.actual q.expect)
      !queries;
    (match !stray with
    | Some (qid, at) -> diverge run i "query %d received a result after unsubscribe (op %d)" qid at
    | None -> ());
    let st = Engine.stats eng in
    let nr = List.length !r_live and ns = List.length !s_live in
    if st.r_size <> nr then diverge run i "r_size %d, oracle says %d" st.r_size nr;
    if st.s_size <> ns then diverge run i "s_size %d, oracle says %d" st.s_size ns;
    record_report run (Invariant.engine eng)
  in
  Array.iteri
    (fun i op ->
      if Option.is_none run.div then
        try
          (match op with
          | Fault.Sub_band { range } -> subscribe i (Band range)
          | Fault.Sub_select { range_a; range_c } -> subscribe i (Select (range_a, range_c))
          | Fault.Unsub_random -> (
              match live_queries () with
              | [] -> ()
              | qs ->
                  let q = List.nth qs (Rng.int rng (List.length qs)) in
                  if not (Engine.unsubscribe eng q.sub) then
                    diverge run i "unsubscribe of live query %d returned false" q.qid;
                  q.q_live <- false)
          | Fault.Ins_r { a; b } ->
              let r, _ = Engine.insert_r eng ~a ~b in
              credit_r 1 r;
              r_live := r :: !r_live
          | Fault.Ins_s { b; c } ->
              let s, _ = Engine.insert_s eng ~b ~c in
              credit_s 1 s;
              s_live := s :: !s_live
          | Fault.Del_r_random -> (
              match pick r_live with
              | None -> ()
              | Some r -> (
                  match Engine.delete_r eng r with
                  | None -> diverge run i "delete_r of live tuple %d returned None" r.rid
                  | Some _ ->
                      r_live := List.filter (fun r' -> r'.Tuple.rid <> r.rid) !r_live;
                      credit_r (-1) r))
          | Fault.Del_s_random -> (
              match pick s_live with
              | None -> ()
              | Some s -> (
                  match Engine.delete_s eng s with
                  | None -> diverge run i "delete_s of live tuple %d returned None" s.sid
                  | Some _ ->
                      s_live := List.filter (fun s' -> s'.Tuple.sid <> s.sid) !s_live;
                      credit_s (-1) s))
          | Fault.Reject_ins_r { a; b } -> (
              match Engine.try_insert_r eng ~a ~b with
              | Error _ -> ()
              | Ok _ -> diverge run i "insert_r with non-finite attribute was accepted")
          | Fault.Reject_sub_band -> (
              match Engine.try_subscribe_band eng ~range:I.empty (fun _ _ -> ()) with
              | Error _ -> ()
              | Ok _ -> diverge run i "subscription with an empty window was accepted"));
          if (i + 1) mod gap = 0 then checkpoint i
        with exn -> diverge run i "uncaught exception: %s" (Printexc.to_string exn))
    stream;
  checkpoint (Array.length stream);
  finish run ~ops ~final_size:(List.length !r_live + List.length !s_live)

(* ------------------------------------------------------------------ *)
(* Parallel-vs-sequential differential run                              *)
(* ------------------------------------------------------------------ *)

module Par = Cq_engine.Parallel

(* The verdict shared by the parallel differentials: the (query, rid,
   sid) multisets and delivery counts of a 1-shard and an N-shard run
   must agree; the first difference in sorted order is reported. *)
let compare_shard_runs run ~shards (seq_rs, seq_n) (par_rs, par_n) =
  if seq_n <> par_n then
    diverge run 0 "sequential delivered %d results, %d shards delivered %d" seq_n shards par_n
  else begin
    let cmp (q1, r1, s1) (q2, r2, s2) =
      let c = Int.compare q1 q2 in
      if c <> 0 then c
      else
        let c = Int.compare r1 r2 in
        if c <> 0 then c else Int.compare s1 s2
    in
    let rec first_diff i xs ys =
      match (xs, ys) with
      | [], [] -> ()
      | (q, r, s) :: _, [] ->
          diverge run i "result (q=%d, rid=%d, sid=%d) missing under %d shards" q r s shards
      | [], (q, r, s) :: _ ->
          diverge run i "result (q=%d, rid=%d, sid=%d) fabricated under %d shards" q r s shards
      | x :: xs', y :: ys' ->
          if cmp x y = 0 then first_diff (i + 1) xs' ys'
          else
            let q, r, s = x and q', r', s' = y in
            diverge run i
              "multisets differ: sequential has (q=%d, rid=%d, sid=%d), %d shards have (q=%d, \
               rid=%d, sid=%d)"
              q r s shards q' r' s'
    in
    first_diff 0 (List.sort cmp seq_rs) (List.sort cmp par_rs)
  end

(* The whole workload — queries, row batches, the engine's batch size —
   is materialised from the seed first, then replayed verbatim into a
   1-shard and an N-shard engine, so both runs see bit-identical input
   and tuple ids line up.  The property under test is the determinism
   claim of Parallel's merge: the delivered result multiset, keyed by
   (query, rid, sid), must not depend on the shard count. *)
let run_parallel ?(shards = 2) ~seed ~ops () =
  let run = make_run (Printf.sprintf "parallel[%d]" shards) seed in
  let rng = Rng.create (seed + 0x517c) in
  let n_q = 8 + Rng.int rng 17 in
  let mk_iv () =
    let lo = (Rng.float rng *. 1000.0) -. 200.0 in
    let w = 1.0 +. (Rng.float rng *. 150.0) in
    I.make lo (lo +. w)
  in
  let queries =
    List.init n_q (fun _ ->
        if Rng.bool rng then `Band (mk_iv ()) else `Select (mk_iv (), mk_iv ()))
  in
  let n_batches = max 2 (ops / 40) in
  let batches =
    List.init n_batches (fun _ ->
        let side = if Rng.bool rng then Par.R else Par.S in
        let len = 1 + Rng.int rng 50 in
        let rows =
          Array.init len (fun _ -> (Rng.float rng *. 1000.0, Rng.float rng *. 1000.0))
        in
        (side, rows))
  in
  let batch_size = 1 + Rng.int rng 64 in
  let collect n_shards =
    let t = Par.create ~alpha:0.1 ~seed ~shards:n_shards ~batch_size () in
    let results = ref [] in
    List.iteri
      (fun qi q ->
        let cb (r : Tuple.r) (s : Tuple.s) = results := (qi, r.rid, s.sid) :: !results in
        match q with
        | `Band range -> ignore (Par.subscribe_band t ~range cb)
        | `Select (range_a, range_c) -> ignore (Par.subscribe_select t ~range_a ~range_c cb))
      queries;
    List.iter (fun (side, rows) -> Par.ingest_batch t side rows) batches;
    ignore (Par.flush t);
    Par.check_invariants t;
    let delivered = Par.results_delivered t in
    Par.shutdown t;
    (!results, delivered)
  in
  let total_rows = List.fold_left (fun acc (_, rows) -> acc + Array.length rows) 0 batches in
  (try
     let seq = collect 1 in
     compare_shard_runs run ~shards seq (collect shards)
   with exn -> diverge run 0 "uncaught exception: %s" (Printexc.to_string exn));
  finish run ~ops:total_rows ~final_size:total_rows

let replay_drift t stream cb =
  let handles = Queue.create () in
  let next_qi = ref 0 in
  let reg spec =
    let qi = !next_qi in
    incr next_qi;
    Queue.add (Par.register t spec (cb qi)) handles
  in
  Array.iter
    (fun op ->
      match op with
      | Fault.Drift_register { range } -> reg (Par.Band { range })
      | Fault.Drift_register_select { range_a; range_c } -> reg (Par.Select { range_a; range_c })
      | Fault.Drift_deregister -> (
          match Queue.take_opt handles with
          | Some sub -> ignore (Par.deregister t sub)
          | None -> ())
      | Fault.Drift_r rows -> Par.ingest_batch t Par.R rows
      | Fault.Drift_s rows -> Par.ingest_batch t Par.S rows
      | Fault.Drift_flush -> ignore (Par.flush t))
    stream;
  ignore (Par.flush t)

(* Drift differential run: a {!Fault.gen_drift} walking-hotspot stream
   — live registration/deregistration mid-ingest, registration mass
   Zipf-concentrated on one home shard, the concentration walking
   across strips — is replayed verbatim into a 1-shard engine (no
   domains) and an N-shard engine.  The delivered (query, rid, sid)
   multiset must be bit-for-bit independent of the shard count. *)
let run_drift ?(shards = 4) ~seed ~ops () =
  let run = make_run (Printf.sprintf "drift[%d]" shards) seed in
  let stream = Fault.gen_drift ~shards ~seed ~n:(max 60 ops) () in
  let collect n_shards =
    let t = Par.create ~alpha:0.1 ~seed ~shards:n_shards ~batch_size:8 () in
    let results = ref [] in
    replay_drift t stream (fun qi (r : Tuple.r) (s : Tuple.s) ->
        results := (qi, r.rid, s.sid) :: !results);
    Par.check_invariants t;
    let delivered = Par.results_delivered t in
    Par.shutdown t;
    (!results, delivered)
  in
  (try
     let seq = collect 1 in
     compare_shard_runs run ~shards seq (collect shards)
   with exn -> diverge run 0 "uncaught exception: %s" (Printexc.to_string exn));
  finish run ~ops:(Array.length stream) ~final_size:(Array.length stream)

(* Staging differential check: one seeded insert-only workload runs
   twice through identically configured sequential engines.  Both runs
   share one event body; they differ in how each batch's scattered
   candidates are found.  The first ingests every row as a one-row
   batch (insert_r/insert_s), which skips staging and stabs the
   scattered index per event; the second ingests each n-row batch
   whole (ingest_batch_r/_s), which stages all n keys with one batched
   descent.  The delivered (query, rid, sid) multisets must be
   identical, tuple-id assignment included (both runs draw rids/sids
   from the same counter in the same order).  A third of the batches
   are followed by a fresh subscription, so every batch stages against
   a query population that churn has just changed.  This is the only
   engine-level check of multi-key staging. *)
let run_batch ~seed ~ops () =
  let run = make_run "batch" seed in
  let rng = Rng.create (seed + 0xba7c) in
  let n_q = 8 + Rng.int rng 17 in
  let mk_iv () =
    let lo = (Rng.float rng *. 1000.0) -. 200.0 in
    let w = 1.0 +. (Rng.float rng *. 150.0) in
    I.make lo (lo +. w)
  in
  let mk_query () = if Rng.bool rng then `Band (mk_iv ()) else `Select (mk_iv (), mk_iv ()) in
  let initial = List.init n_q (fun _ -> mk_query ()) in
  let n_batches = max 2 (ops / 40) in
  let batches =
    List.init n_batches (fun _ ->
        let side = if Rng.bool rng then `R else `S in
        let len = 1 + Rng.int rng 50 in
        let rows =
          Array.init len (fun _ -> (Rng.float rng *. 1000.0, Rng.float rng *. 1000.0))
        in
        let churn = if Rng.int rng 3 = 0 then Some (mk_query ()) else None in
        (side, rows, churn))
  in
  let collect use_batch =
    let eng = Engine.create ~alpha:0.1 ~seed () in
    let results = ref [] in
    let next_q = ref 0 in
    let subscribe q =
      let qi = !next_q in
      incr next_q;
      let cb (r : Tuple.r) (s : Tuple.s) = results := (qi, r.rid, s.sid) :: !results in
      match q with
      | `Band range -> ignore (Engine.subscribe_band eng ~range cb)
      | `Select (range_a, range_c) ->
          ignore (Engine.subscribe_select eng ~range_a ~range_c cb)
    in
    List.iter subscribe initial;
    List.iter
      (fun (side, rows, churn) ->
        (if use_batch then
           let b = Cq_relation.Batch.of_rows rows in
           ignore
             (match side with
             | `R -> Engine.ingest_batch_r eng b
             | `S -> Engine.ingest_batch_s eng b)
         else
           Array.iter
             (fun (x, y) ->
               match side with
               | `R -> ignore (Engine.insert_r eng ~a:x ~b:y)
               | `S -> ignore (Engine.insert_s eng ~b:x ~c:y))
             rows);
        match churn with Some q -> subscribe q | None -> ())
      batches;
    Engine.check_invariants eng;
    (!results, (Engine.stats eng).results_delivered)
  in
  let total_rows = List.fold_left (fun acc (_, rows, _) -> acc + Array.length rows) 0 batches in
  (try
     let seq_rs, seq_n = collect false in
     let bat_rs, bat_n = collect true in
     let cmp (q1, r1, s1) (q2, r2, s2) =
       let c = Int.compare q1 q2 in
       if c <> 0 then c
       else
         let c = Int.compare r1 r2 in
         if c <> 0 then c else Int.compare s1 s2
     in
     if seq_n <> bat_n then
       diverge run 0 "one-row batches delivered %d results, staged batches delivered %d" seq_n
         bat_n
     else begin
       let a = List.sort cmp seq_rs and b = List.sort cmp bat_rs in
       let rec first_diff i xs ys =
         match (xs, ys) with
         | [], [] -> ()
         | (q, r, s) :: _, [] ->
             diverge run i "result (q=%d, rid=%d, sid=%d) missing under staged batches" q r s
         | [], (q, r, s) :: _ ->
             diverge run i "result (q=%d, rid=%d, sid=%d) fabricated under staged batches" q r s
         | x :: xs', y :: ys' ->
             if cmp x y = 0 then first_diff (i + 1) xs' ys'
             else
               let q, r, s = x and q', r', s' = y in
               diverge run i
                 "multisets differ: one-row batches have (q=%d, rid=%d, sid=%d), staged \
                  batches have (q=%d, rid=%d, sid=%d)"
                 q r s q' r' s'
       in
       first_diff 0 a b
     end
   with exn -> diverge run 0 "uncaught exception: %s" (Printexc.to_string exn));
  finish run ~ops:total_rows ~final_size:total_rows

(* Shed-mode differential check: replay a seeded insert-only workload
   through a Shed-policy engine at a forced keep-rate, compute the
   exact answer for every query by brute force, and require (a) the
   delivered subset never exceeds the exact answer, (b) the engine's
   observed counter matches what the callbacks saw, and (c) every
   Horvitz-Thompson estimate lands within its own claimed error
   bound. *)
let run_shed ?(shards = 1) ?(rate = 0.5) ~seed ~ops () =
  let run = make_run (Printf.sprintf "shed[%dx%.2f]" shards rate) seed in
  let rng = Rng.create (seed + 0x53ed) in
  let n_q = 6 + Rng.int rng 11 in
  let mk_iv () =
    let lo = (Rng.float rng *. 1000.0) -. 200.0 in
    let w = 1.0 +. (Rng.float rng *. 150.0) in
    I.make lo (lo +. w)
  in
  let queries =
    Array.init n_q (fun _ ->
        if Rng.bool rng then `Band (mk_iv ()) else `Select (mk_iv (), mk_iv ()))
  in
  let n_batches = max 2 (ops / 40) in
  let batches =
    List.init n_batches (fun _ ->
        let side = if Rng.bool rng then Par.R else Par.S in
        let len = 1 + Rng.int rng 50 in
        let rows =
          Array.init len (fun _ -> (Rng.float rng *. 1000.0, Rng.float rng *. 1000.0))
        in
        (side, rows))
  in
  let batch_size = 1 + Rng.int rng 64 in
  let total_rows = List.fold_left (fun acc (_, rows) -> acc + Array.length rows) 0 batches in
  (try
     let t =
       Par.create ~alpha:0.1 ~seed ~shards ~batch_size ~overload:Engine.Config.Shed
         ~shed_rate:rate ()
     in
     let observed = Array.make n_q 0 in
     Array.iteri
       (fun qi q ->
         let cb (_ : Tuple.r) (_ : Tuple.s) = observed.(qi) <- observed.(qi) + 1 in
         match q with
         | `Band range -> ignore (Par.subscribe_band t ~range cb)
         | `Select (range_a, range_c) -> ignore (Par.subscribe_select t ~range_a ~range_c cb))
       queries;
     List.iter (fun (side, rows) -> Par.ingest_batch t side rows) batches;
     ignore (Par.flush t);
     Par.check_invariants t;
     let info = Par.shed_info t in
     Par.shutdown t;
     let rs = ref [] and ss = ref [] in
     List.iter
       (fun (side, rows) ->
         match side with
         | Par.R -> Array.iter (fun row -> rs := row :: !rs) rows
         | Par.S -> Array.iter (fun row -> ss := row :: !ss) rows)
       batches;
     let exact qi =
       let n = ref 0 in
       List.iter
         (fun (ra, rb) ->
           List.iter
             (fun (sb, sc) ->
               let hit =
                 match queries.(qi) with
                 | `Band w -> I.stabs w (sb -. rb)
                 | `Select (wa, wc) -> rb = sb && I.stabs wa ra && I.stabs wc sc
               in
               if hit then incr n)
             !ss)
         !rs;
       !n
     in
     let reported = Hashtbl.create 16 in
     List.iter (fun (d : Engine.degraded) -> Hashtbl.replace reported d.deg_qid d) info;
     Array.iteri
       (fun qi _ ->
         let n = exact qi in
         match Hashtbl.find_opt reported qi with
         | Some (d : Engine.degraded) ->
             if observed.(qi) > n then
               diverge run qi
                 "query %d delivered %d results but only %d exist (subsample violated)" qi
                 observed.(qi) n;
             if d.deg_observed <> observed.(qi) then
               diverge run qi "query %d: engine reports %d observed, callbacks saw %d" qi
                 d.deg_observed observed.(qi);
             let err = Float.abs (d.deg_estimate -. float_of_int n) in
             if err > d.deg_claimed_error +. 1e-6 then
               diverge run qi
                 "query %d: estimate %.2f for exact %d misses the claimed bound %.2f (err %.2f)"
                 qi d.deg_estimate n d.deg_claimed_error err
         | None ->
             if observed.(qi) <> n then
               diverge run qi
                 "query %d never saw a shed coin yet delivered %d of %d exact results" qi
                 observed.(qi) n)
       queries
   with exn -> diverge run 0 "uncaught exception: %s" (Printexc.to_string exn));
  finish run ~ops:total_rows ~final_size:total_rows

(* Adaptive-schedule differential check: the keep-rate moves between
   1.0 and sub-unit values per batch — the regime the parallel
   adaptive controller produces — and every claimed bound must still
   contain the exact count.  The load-bearing case is an exact phase
   followed by a shedding one: results delivered at rate 1.0 must fold
   into the estimate at p = 1, or the estimate omits the whole exact
   phase while the claimed error only covers shed-phase sampling.
   Driven through the sequential engine so the schedule is a pure
   function of the seed (the parallel controller reads live queue
   depths, which no replay can pin down). *)
let run_shed_adaptive ~seed ~ops () =
  let run = make_run "shed-adaptive" seed in
  let rng = Rng.create (seed + 0xada) in
  let n_q = 6 + Rng.int rng 11 in
  let mk_iv () =
    let lo = (Rng.float rng *. 1000.0) -. 200.0 in
    let w = 1.0 +. (Rng.float rng *. 150.0) in
    I.make lo (lo +. w)
  in
  let queries =
    Array.init n_q (fun _ ->
        if Rng.bool rng then `Band (mk_iv ()) else `Select (mk_iv (), mk_iv ()))
  in
  let n_batches = max 4 (ops / 40) in
  let batches =
    List.init n_batches (fun i ->
        let side = if Rng.bool rng then `R else `S in
        let len = 1 + Rng.int rng 50 in
        let rows =
          Array.init len (fun _ -> (Rng.float rng *. 1000.0, Rng.float rng *. 1000.0))
        in
        (* Always open with an exact phase (the historical failure
           shape), then mix freely — about half the batches exact. *)
        let rate =
          if i = 0 then 1.0
          else
            match Rng.int rng 6 with
            | 0 | 1 | 2 -> 1.0
            | 3 -> 0.25
            | 4 -> 0.5
            | _ -> 0.75
        in
        (side, rate, rows))
  in
  let total_rows =
    List.fold_left (fun acc (_, _, rows) -> acc + Array.length rows) 0 batches
  in
  (try
     let eng = Engine.create ~alpha:0.1 ~seed ~overload:Engine.Config.Shed () in
     let observed = Array.make n_q 0 in
     Array.iteri
       (fun qi q ->
         let cb (_ : Tuple.r) (_ : Tuple.s) = observed.(qi) <- observed.(qi) + 1 in
         match q with
         | `Band range -> ignore (Engine.subscribe_band eng ~range cb)
         | `Select (range_a, range_c) ->
             ignore (Engine.subscribe_select eng ~range_a ~range_c cb))
       queries;
     List.iter
       (fun (side, rate, rows) ->
         Engine.set_shed_rate eng rate;
         Array.iter
           (fun (x, y) ->
             match side with
             | `R -> ignore (Engine.insert_r eng ~a:x ~b:y)
             | `S -> ignore (Engine.insert_s eng ~b:x ~c:y))
           rows)
       batches;
     Engine.check_invariants eng;
     let info = Engine.shed_info eng in
     let rs = ref [] and ss = ref [] in
     List.iter
       (fun (side, _, rows) ->
         match side with
         | `R -> Array.iter (fun row -> rs := row :: !rs) rows
         | `S -> Array.iter (fun row -> ss := row :: !ss) rows)
       batches;
     let exact qi =
       let n = ref 0 in
       List.iter
         (fun (ra, rb) ->
           List.iter
             (fun (sb, sc) ->
               let hit =
                 match queries.(qi) with
                 | `Band w -> I.stabs w (sb -. rb)
                 | `Select (wa, wc) -> rb = sb && I.stabs wa ra && I.stabs wc sc
               in
               if hit then incr n)
             !ss)
         !rs;
       !n
     in
     let reported = Hashtbl.create 16 in
     List.iter (fun (d : Engine.degraded) -> Hashtbl.replace reported d.deg_qid d) info;
     Array.iteri
       (fun qi _ ->
         let n = exact qi in
         match Hashtbl.find_opt reported qi with
         | Some (d : Engine.degraded) ->
             if observed.(qi) > n then
               diverge run qi
                 "query %d delivered %d results but only %d exist (subsample violated)" qi
                 observed.(qi) n;
             if d.deg_observed <> observed.(qi) then
               diverge run qi "query %d: engine reports %d observed, callbacks saw %d" qi
                 d.deg_observed observed.(qi);
             let err = Float.abs (d.deg_estimate -. float_of_int n) in
             if err > d.deg_claimed_error +. 1e-6 then
               diverge run qi
                 "query %d: estimate %.2f for exact %d misses the claimed bound %.2f \
                  (err %.2f) under a mixed-rate schedule"
                 qi d.deg_estimate n d.deg_claimed_error err
         | None ->
             if observed.(qi) <> n then
               diverge run qi
                 "query %d never saw a sub-unit coin yet delivered %d of %d exact results"
                 qi observed.(qi) n)
       queries
   with exn -> diverge run 0 "uncaught exception: %s" (Printexc.to_string exn));
  finish run ~ops:total_rows ~final_size:total_rows

(* Burst replay: the Fault.gen_burst stream (quiet trickle alternating
   with 64-256-row volleys, no flush inside a volley) goes through an
   adaptive Shed engine.  Shed's contract is liveness, not exactness:
   every ingest call must return [Ok] — never a blocking stall, never
   an [Overload] error — and what does get delivered must remain a
   subset of the exact answer over everything submitted.  The adaptive
   rate itself is timing-dependent (it reads live queue depths), so
   the run is not replayable decision-for-decision — but the bound
   contract is checked regardless: whenever no whole chunk was dropped
   past the grace window (the one loss the estimators cannot see),
   every degraded report must contain the exact count within its
   claimed error, and every unreported query must be exact. *)
let run_burst ?(shards = 2) ~seed ~ops () =
  let run = make_run (Printf.sprintf "burst[%d]" shards) seed in
  let burst = Fault.gen_burst ~seed ~n:(max 24 (ops / 10)) in
  let rng = Rng.create (seed + 0xb5e7) in
  let n_q = 4 + Rng.int rng 9 in
  let mk_iv () =
    let lo = (Rng.float rng *. 30.0) -. 15.0 in
    let w = 0.5 +. (Rng.float rng *. 6.0) in
    I.make lo (lo +. w)
  in
  let queries =
    Array.init n_q (fun _ ->
        if Rng.bool rng then `Band (mk_iv ()) else `Select (mk_iv (), mk_iv ()))
  in
  let total_rows = ref 0 in
  (try
     let t =
       Par.create ~alpha:0.1 ~seed ~shards ~batch_size:8 ~overload:Engine.Config.Shed ()
     in
     let observed = Array.make n_q 0 in
     Array.iteri
       (fun qi q ->
         let cb (_ : Tuple.r) (_ : Tuple.s) = observed.(qi) <- observed.(qi) + 1 in
         match q with
         | `Band range -> ignore (Par.subscribe_band t ~range cb)
         | `Select (range_a, range_c) -> ignore (Par.subscribe_select t ~range_a ~range_c cb))
       queries;
     let rs = ref [] and ss = ref [] in
     let ingest i side rows mirror =
       total_rows := !total_rows + Array.length rows;
       match Par.try_ingest_batch t side rows with
       | Ok () -> Array.iter (fun row -> mirror := row :: !mirror) rows
       | Error e ->
           diverge run i "shed-mode ingest must stay non-blocking and Ok, got: %s"
             (Cq_util.Error.to_string e)
     in
     Array.iteri
       (fun i op ->
         match op with
         | Fault.Burst_r rows -> ingest i Par.R rows rs
         | Fault.Burst_s rows -> ingest i Par.S rows ss
         | Fault.Burst_flush -> ignore (Par.flush t))
       burst;
     ignore (Par.flush t);
     Par.check_invariants t;
     let totals : Par.shed_totals = Par.shed_totals t in
     let info = Par.shed_info t in
     Par.shutdown t;
     if totals.par_min_rate <= 0.0 || totals.par_min_rate > 1.0 then
       diverge run 0 "applied shed rate %.3f outside (0, 1]" totals.par_min_rate;
     let reported = Hashtbl.create 16 in
     List.iter (fun (d : Engine.degraded) -> Hashtbl.replace reported d.deg_qid d) info;
     (* Qids are issued in subscription order, so query index = qid. *)
     Array.iteri
       (fun qi q ->
         let n = ref 0 in
         List.iter
           (fun (ra, rb) ->
             List.iter
               (fun (sb, sc) ->
                 let hit =
                   match q with
                   | `Band w -> I.stabs w (sb -. rb)
                   | `Select (wa, wc) -> rb = sb && I.stabs wa ra && I.stabs wc sc
                 in
                 if hit then incr n)
               !ss)
           !rs;
         if observed.(qi) > !n then
           diverge run qi "query %d delivered %d results but only %d exist under burst" qi
             observed.(qi) !n;
         (* Whole-chunk drops at admission are the one loss the
            per-query estimators never see (no coin is flipped for a
            row that reaches no shard), so the claimed bounds are only
            asserted on runs where none occurred. *)
         if totals.par_dropped_rows = 0 then
           match Hashtbl.find_opt reported qi with
           | Some (d : Engine.degraded) ->
               if d.deg_observed <> observed.(qi) then
                 diverge run qi "query %d: engine reports %d observed, callbacks saw %d" qi
                   d.deg_observed observed.(qi);
               let err = Float.abs (d.deg_estimate -. float_of_int !n) in
               if err > d.deg_claimed_error +. 1e-6 then
                 diverge run qi
                   "query %d: adaptive estimate %.2f for exact %d misses the claimed \
                    bound %.2f (err %.2f)"
                   qi d.deg_estimate !n d.deg_claimed_error err
           | None ->
               if observed.(qi) <> !n then
                 diverge run qi
                   "query %d never saw a sub-unit coin yet delivered %d of %d exact \
                    results under burst"
                   qi observed.(qi) !n)
       queries
   with exn -> diverge run 0 "uncaught exception: %s" (Printexc.to_string exn));
  finish run ~ops:!total_rows ~final_size:!total_rows

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
  let mirror : (int, I.t) Hashtbl.t = Hashtbl.create 1024 in
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
  let index_reports =
    List.map
      (fun (module S : STAB_INDEX) ->
        let t = S.create ~seed in
        apply ~add:(S.add t) ~del:(fun id iv -> ignore (S.remove t id iv));
        Hashtbl.reset mirror;
        Array.iter
          (function
            | Fault.Add { id; iv } -> Hashtbl.replace mirror id iv
            | Fault.Remove { id; _ } -> Hashtbl.remove mirror id
            | _ -> ())
          stream;
        (S.name, S.audit t ~entries:(mirror_entries mirror)))
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
  let eng = Engine.create ~alpha:0.1 ~seed () in
  let rng = Rng.create (seed + 0x9e37) in
  let subs = ref [] and rs = ref [] and ss = ref [] in
  let pick l = match !l with [] -> None | xs -> Some (List.nth xs (Rng.int rng (List.length xs))) in
  Array.iter
    (fun op ->
      match op with
      | Fault.Sub_band { range } ->
          subs := Engine.subscribe_band eng ~range (fun _ _ -> ()) :: !subs
      | Fault.Sub_select { range_a; range_c } ->
          subs := Engine.subscribe_select eng ~range_a ~range_c (fun _ _ -> ()) :: !subs
      | Fault.Unsub_random -> (
          match pick subs with
          | None -> ()
          | Some sub ->
              ignore (Engine.unsubscribe eng sub);
              subs := List.filter (fun s -> s != sub) !subs)
      | Fault.Ins_r { a; b } -> rs := fst (Engine.insert_r eng ~a ~b) :: !rs
      | Fault.Ins_s { b; c } -> ss := fst (Engine.insert_s eng ~b ~c) :: !ss
      | Fault.Del_r_random -> (
          match pick rs with
          | None -> ()
          | Some r ->
              ignore (Engine.delete_r eng r);
              rs := List.filter (fun r' -> r'.Tuple.rid <> r.rid) !rs)
      | Fault.Del_s_random -> (
          match pick ss with
          | None -> ()
          | Some s ->
              ignore (Engine.delete_s eng s);
              ss := List.filter (fun s' -> s'.Tuple.sid <> s.sid) !ss)
      | Fault.Reject_ins_r _ | Fault.Reject_sub_band -> ())
    (Fault.gen_engine ~seed ~n:(max 100 (n / 10)));
  let reports =
    index_reports
    @ [
        ("btree", Fbt_audit.audit bt);
        ("hotspot_tracker", Tracker_audit.audit tr);
        ("lazy_partition", Lazy_audit.audit ~name:"lazy_partition" lp);
        ("refined_partition", Refined_audit.audit ~name:"refined_partition" rp);
        ("engine", Invariant.engine eng);
      ]
  in
  let dur_ns = Int64.sub (Cq_util.Clock.monotonic_ns ()) audit_start in
  Metrics.set (Metrics.gauge "oracle.audit.elapsed_ms") (Int64.to_float dur_ns /. 1e6);
  Metrics.add (Metrics.counter "oracle.audit.ops") n;
  Metrics.add (Metrics.counter "oracle.audit.structures") (List.length reports);
  Trace.add_span ~cat:"oracle" ~name:"oracle.audit_workload" ~ts_ns:audit_start ~dur_ns ();
  reports

let fuzz_all ?(shards = 2) ~seed ~ops () =
  let engine_ops = max 200 (ops / 10) in
  List.map (fun d -> run_index d ~seed ~ops) index_drivers
  @ [
      run_btree ~seed ~ops;
      run_tracker ~seed ~ops ();
      run_lazy_partition ~seed ~ops;
      run_refined_partition ~seed ~ops;
      run_engine ~seed ~ops:engine_ops ();
      run_batch ~seed ~ops:engine_ops ();
      run_parallel ~shards ~seed ~ops:engine_ops ();
      run_shed_adaptive ~seed ~ops:engine_ops ();
    ]

(* Served-vs-direct differential check: the same seeded workload runs
   once through the network front-end (Cq_net.Driver's lockstep
   loopback harness — real sockets, real frames, a real multi-session
   server) and once straight into an identically configured parallel
   engine, and every session's result stream must match bit-for-bit:
   same qid assignment, same rows, same order.  Lockstep driving plus
   the server's read/flush/write tick make the served order
   deterministic, so this is an equality check, not a multiset one. *)
module Netd = Cq_net.Driver

let run_serve ?(sessions = 4) ?(shards = 2) ~seed ~ops () =
  let run = make_run (Printf.sprintf "serve[%d]" sessions) seed in
  let n_batches = max 2 (ops / 20) in
  let w =
    Netd.gen_workload ~seed ~sessions ~queries_per_session:2 ~batches:n_batches
      ~rows_per_batch:8
  in
  let cfg = { Cq_engine.Engine.Config.default with shards; seed } in
  let total_rows =
    Array.fold_left (fun acc (b : Netd.batch_spec) -> acc + Array.length b.rows) 0 w.batches
  in
  (try
     match Netd.run_workload ~engine:cfg w with
     | Error e -> diverge run 0 "served run failed: %s" (Cq_net.Client.error_to_string e)
     | Ok oc ->
         if oc.server.net_results_dropped <> 0 then
           diverge run 0 "lockstep run dropped %d result rows — queues were sized not to"
             oc.server.net_results_dropped
         else begin
           (* Direct replay: same config, same flat-batch path, same
              session-major registration order, one flush per batch
              (the server flushes every ingest tick under lockstep). *)
           let par = Cq_util.Error.ok_exn (Par.try_create_cfg cfg) in
           let recording = ref true in
           let direct = Array.make sessions [] in
           let next_qid = ref 1 in
           let expect_qids =
             Array.mapi
               (fun i specs ->
                 Array.map
                   (fun spec ->
                     let qid = !next_qid in
                     incr next_qid;
                     let cb (r : Tuple.r) (s : Tuple.s) =
                       if !recording then
                         direct.(i) <- (qid, (r.a, r.b, s.b, s.c)) :: direct.(i)
                     in
                     (match spec with
                     | Netd.Band { lo; hi } ->
                         ignore (Par.subscribe_band par ~range:(I.make lo hi) cb)
                     | Netd.Select { a_lo; a_hi; c_lo; c_hi } ->
                         ignore
                           (Par.subscribe_select par ~range_a:(I.make a_lo a_hi)
                              ~range_c:(I.make c_lo c_hi) cb));
                     qid)
                   specs)
               w.queries
           in
           Array.iter
             (fun (b : Netd.batch_spec) ->
               let side = match b.side with Cq_net.Frame.R -> Par.R | Cq_net.Frame.S -> Par.S in
               (match Par.try_ingest_batch_flat par side (Netd.batch_of_rows b.rows) with
               | Ok () -> ()
               | Error e -> diverge run 0 "direct ingest failed: %s" (Cq_util.Error.to_string e));
               ignore (Par.flush par))
             w.batches;
           ignore (Par.flush par);
           recording := false;
           Par.shutdown par;
           if not (Array.for_all2 (fun a b -> a = b) expect_qids oc.qids) then
             diverge run 0 "qid assignment differs between served and direct runs"
           else
             Array.iteri
               (fun i frames ->
                 if Option.is_none run.div then begin
                   let served =
                     List.concat_map
                       (fun (qid, rows) ->
                         List.map (fun row -> (qid, row)) (Array.to_list rows))
                       (Array.to_list frames)
                   in
                   let expect = List.rev direct.(i) in
                   let ns = List.length served and ne = List.length expect in
                   if ns <> ne then
                     diverge run i "session %d: served %d result rows, direct run has %d" i
                       ns ne
                   else
                     List.iteri
                       (fun k ((q1, r1), (q2, r2)) ->
                         if Option.is_none run.div && not (q1 = q2 && r1 = r2) then
                           let p1 (a, b, c, d) =
                             Printf.sprintf "(%.17g, %.17g, %.17g, %.17g)" a b c d
                           in
                           diverge run k
                             "session %d row %d: served q%d %s, direct q%d %s" i k q1
                             (p1 r1) q2 (p1 r2))
                       (List.combine served expect)
                 end)
               oc.results
         end
   with exn -> diverge run 0 "uncaught exception: %s" (Printexc.to_string exn));
  finish run ~ops:total_rows ~final_size:total_rows

module I = Cq_interval.Interval
module Rng = Cq_util.Rng
module Metrics = Cq_obs.Metrics
module Trace = Cq_obs.Trace
module Err = Cq_util.Error

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

(* ------------------------------------------------------------------ *)
(* Structures: each described once, one replay loop for all            *)
(* ------------------------------------------------------------------ *)

type structure = {
  name : string;
  dup : bool;
  add : int -> I.t -> unit;
  remove : int -> I.t -> bool;
  check : int -> float -> (int * I.t) list -> string option;
  size : unit -> int;
  audit : unit -> Invariant.report;
}

(* The mirror holds every live copy as id -> (insertion number,
   interval).  A remove drops the oldest matching copy, the one the
   sweep store's contract says a remove takes first; a check sees the
   live pairs in insertion order. *)
let run_structure s ~seed ~ops =
  let run = make_run s.name seed in
  let live = Hashtbl.create 1024 and next = ref 0 in
  let take id iv =
    let copies = Hashtbl.find_all live id in
    match List.find_opt (fun (_, iv') -> I.equal iv iv') (List.rev copies) with
    | None -> false
    | Some (k, _) ->
        List.iter (fun _ -> Hashtbl.remove live id) copies;
        List.iter (fun ((k', _) as c) -> if k' <> k then Hashtbl.add live id c) (List.rev copies);
        true
  in
  let pairs () =
    Hashtbl.fold (fun id (k, iv) acc -> (k, (id, iv)) :: acc) live []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.map snd
  in
  let gap = checkpoint_gap ops in
  Array.iteri
    (fun i op ->
      if Option.is_none run.div then
        try
          (match op with
          | Fault.Re_add { id; iv } when not s.dup -> (
              match s.add id iv with
              | () -> diverge run i "duplicate insert of %d was accepted" id
              | exception Invalid_argument _ -> ())
          | Fault.Add { id; iv } | Fault.Re_add { id; iv } ->
              s.add id iv;
              Hashtbl.add live id (!next, iv);
              incr next
          | Fault.Remove { id; iv } | Fault.Remove_absent { id; iv } ->
              let got = s.remove id iv in
              if got <> take id iv then
                diverge run i "remove %d %s returned %b, oracle says %b" id (I.to_string iv) got
                  (not got)
          | Fault.Probe x -> Option.iter (diverge run i "%s") (s.check i x (pairs ())));
          let n = s.size () and m = Hashtbl.length live in
          if n <> m then diverge run i "size %d, oracle says %d" n m;
          if (i + 1) mod gap = 0 then record_report run (s.audit ())
        with exn -> diverge run i "uncaught exception: %s" (Printexc.to_string exn))
    (Fault.gen ~seed ~n:ops);
  record_report run (s.audit ());
  finish run ~ops ~final_size:(s.size ())

let no_check _ _ _ = None

let collect iter =
  let acc = ref [] in
  iter (fun id -> acc := id :: !acc);
  List.rev !acc

let differs what got want =
  let rec first j = function
    | x :: xs, y :: ys when Int.equal x y -> first (j + 1) (xs, ys)
    | [], [] -> None
    | _ -> Some j
  in
  Option.map
    (Printf.sprintf "%s returned %d ids, oracle says %d; first difference at position %d" what
       (List.length got) (List.length want))
    (first 0 (got, want))

(* The stabbing answer at [x] as a set of ids. *)
let stab_check stab_ids _ x live =
  let want = List.filter_map (fun (id, iv) -> if I.stabs iv x then Some id else None) live in
  differs (Printf.sprintf "stab %g" x)
    (List.sort Int.compare (stab_ids x))
    (List.sort Int.compare want)

(* Payloads carry their interval along so the audit can recover it. *)
let interval_tree () =
  let module T = Cq_index.Flat_interval_tree in
  let t = T.create () in
  {
    name = "interval_tree";
    dup = true;
    add = (fun id iv -> T.add t iv (id, iv));
    remove = (fun id iv -> T.remove t iv (fun (id', _) -> id' = id));
    check = stab_check (fun x -> collect (fun f -> T.stab t x (fun (id, _) -> f id)));
    size = (fun () -> T.size t);
    audit = (fun () -> Invariant.interval_tree ~interval:snd t);
  }

(* Intervals embed into the R-tree as squares [iv × iv]; stabbing at
   (x, x) recovers 1-D stabbing and tests both axes' endpoints. *)
let rtree () =
  let module R = Cq_index.Rtree in
  let t = R.create () in
  let rect iv = Cq_index.Rect.make ~x:iv ~y:iv in
  {
    name = "rtree";
    dup = true;
    add = (fun id iv -> R.insert t (rect iv) id);
    remove = (fun id iv -> R.remove t (rect iv) (Int.equal id));
    check = stab_check (fun x -> collect (fun f -> R.stab t ~x ~y:x f));
    size = (fun () -> R.size t);
    audit = (fun () -> Invariant.rtree t);
  }

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

(* Each probe first splits the treap at the probe and joins it back
   (Appendix B's SPLIT/JOIN), so a split/join bug corrupts the answer. *)
let treap ~seed =
  let rng = Rng.create seed and tr = ref Tr.empty in
  let stab_ids x =
    let l, r = Tr.split_lo_le x !tr in
    tr := Tr.join l r;
    Tr.fold (fun acc (id, iv) -> if I.stabs iv x then id :: acc else acc) [] !tr
  in
  {
    name = "treap";
    dup = true;
    add = (fun id iv -> tr := Tr.add rng (id, iv) !tr);
    remove =
      (fun id iv ->
        Option.fold ~none:false ~some:(fun t -> tr := t; true) (Tr.remove (id, iv) !tr));
    check = stab_check stab_ids;
    size = (fun () -> Tr.size !tr);
    audit = (fun () -> Tr_audit.audit !tr);
  }

(* The keys a probe at [x] sweeps against: sorted, one on the grid the
   intervals sit on and the others off it, spread over a few windows'
   width; the shift moves every window a quarter step left. *)
let sweep_keys x =
  let keys = [| x -. 2.5; Float.round x; x; x +. 4.0 |] in
  Array.sort Float.compare keys;
  keys

let sweep_shift = -0.25

(* The sweep against a sorted key array cut into leaves of three keys,
   so windows hop between leaves and descend past several: the protocol
   a band event runs against S.B's leaves, with a linear descent. *)
let sweep_leaf = 3

let sweep_ids st ~keys ~shift =
  let module S = Cq_index.Sweep_store in
  let n = Array.length keys in
  let start = ref 0 in
  let load (c : S.cursor) from idx =
    start := from;
    c.keys <- Array.sub keys from (Int.min sweep_leaf (n - from));
    c.nkeys <- Array.length c.keys;
    c.idx <- idx;
    c.synced <- idx
  in
  let hop c =
    !start + sweep_leaf < n
    && begin
         load c (!start + sweep_leaf) 0;
         true
       end
  in
  let descend (c : S.cursor) lo i =
    let x = lo.(i) +. c.shift.(0) in
    let j = ref 0 in
    while !j < n && keys.(!j) < x do
      incr j
    done;
    if !j < n then load c (!j / sweep_leaf * sweep_leaf) (!j mod sweep_leaf)
    else
      let last = (n - 1) / sweep_leaf * sweep_leaf in
      load c last (n - last)
  in
  let c = S.cursor ~hop ~descend ~sync:(fun _ -> ()) in
  c.shift.(0) <- shift;
  if n > 0 then load c 0 0;
  collect (S.sweep st c)

(* The anchors a probe at [x] walks with, cycling through a finite
   pair, a missing left or right anchor, and the exact hit. *)
let anchors_at i x =
  match i mod 4 with
  | 0 -> [| x -. 1.0; x +. 0.5 |]
  | 1 -> [| nan; x +. 0.5 |]
  | 2 -> [| x -. 1.0; nan |]
  | _ -> [| infinity; nan |]

(* The anchored walk's contract on the sorted pairs: the longest
   prefix with lo <= a1, then the later windows with hi >= a2. *)
let anchored_model sorted anchors =
  let rec prefix acc = function
    | (id, iv) :: rest when I.lo iv <= anchors.(0) -> prefix (id :: acc) rest
    | rest -> List.rev_append acc (List.filter_map (fun (id, iv) -> if I.hi iv >= anchors.(1) then Some id else None) rest)
  in
  prefix [] sorted

(* The live pairs sorted stably by (lo, hi) are the store's order:
   equal keys in insertion order.  Listing, sweep and anchored walk are
   compared in that order. *)
let sweep_store () =
  let module S = Cq_index.Sweep_store in
  let t = S.create () in
  let check i x live =
    let key (_, iv) = (I.lo iv, I.hi iv) in
    let sorted = List.stable_sort (Cq_util.Order.by key Cq_util.Order.float_pair) live in
    let keys = sweep_keys x and anchors = anchors_at i x in
    let holds (_, iv) =
      Array.exists (fun k -> I.lo iv +. sweep_shift <= k && k <= I.hi iv +. sweep_shift) keys
    in
    List.find_map Fun.id
      [
        differs "listing" (List.map (fun (_, _, id) -> id) (S.to_list t)) (List.map fst sorted);
        differs (Printf.sprintf "sweep at %g" x) (sweep_ids t ~keys ~shift:sweep_shift)
          (List.map fst (List.filter holds sorted));
        differs
          (Printf.sprintf "anchored walk at [%g, %g]" anchors.(0) anchors.(1))
          (collect (S.walk_anchored t anchors))
          (anchored_model sorted anchors);
      ]
  in
  {
    name = "sweep_store";
    dup = true;
    add = (fun id iv -> S.add t iv id);
    remove = (fun id iv -> S.remove t iv (Int.equal id));
    check;
    size = (fun () -> S.size t);
    audit = (fun () -> Invariant.sweep_store t);
  }

(* A band hotspot processor over the windows (an empty S table): every
   hot group's member store, beside the processor's own audit. *)
let band_hot_groups ~seed =
  let module BH = Cq_joins.Band_join.Hotspot in
  let bh = BH.create_alpha ~alpha:0.05 ~seed (Cq_relation.Table.create_s ()) [||] in
  let q id iv = Cq_joins.Band_query.make ~qid:id ~range:iv in
  let audit () =
    let fail check detail = Error [ { Invariant.structure = "band_hot_groups"; check; detail } ] in
    let own =
      match BH.check_invariants bh with
      | () -> Ok ()
      | exception exn -> fail "processor" (Printexc.to_string exn)
    in
    let stores = ref [] in
    BH.iter_group_stores bh (fun st -> stores := Invariant.sweep_store st :: !stores);
    let count =
      if List.length !stores = BH.num_hotspots bh then Ok ()
      else
        fail "groups"
          (Printf.sprintf "%d group stores for %d hotspots" (List.length !stores)
             (BH.num_hotspots bh))
    in
    Invariant.merge (own :: count :: !stores)
  in
  {
    name = "band_hot_groups";
    dup = false;
    add = (fun id iv -> BH.insert_query bh (q id iv));
    remove = (fun id iv -> BH.delete_query bh (q id iv));
    check = no_check;
    size = (fun () -> BH.query_count bh);
    audit;
  }

(* The B+-tree keyed on (lo, hi), probed on lo alone: [count_range] and
   both neighbours against scans of the live left endpoints. *)
let btree () =
  let module Bt = Cq_index.Btree in
  let t : int Bt.t = Bt.create () in
  let check _ x live =
    let ks = List.map (fun (_, iv) -> I.lo iv) live in
    let neighbour side cursor ks best =
      match (cursor, ks) with
      | Some c, k :: _ ->
          let b = List.fold_left best k ks in
          if Float.equal (Bt.key c) b then None
          else Some (Printf.sprintf "%s neighbour of %g is %g, oracle says %g" side x (Bt.key c) b)
      | None, [] -> None
      | _ -> Some (Printf.sprintf "%s-neighbour presence at %g disagrees with oracle" side x)
    in
    let got = Bt.count_range t x neg_infinity x infinity
    and want = List.length (List.filter (Float.equal x) ks) in
    let left () = neighbour "left" (Bt.seek_le t x infinity) (List.filter (fun k -> k <= x) ks) Float.max
    and right () = neighbour "right" (Bt.seek_ge t x neg_infinity) (List.filter (fun k -> k >= x) ks) Float.min in
    if got <> want then Some (Printf.sprintf "count_range [%g,%g] = %d, oracle says %d" x x got want)
    else match left () with None -> right () | d -> d
  in
  {
    name = "btree";
    dup = true;
    add = (fun id iv -> Bt.insert t (I.lo iv) (I.hi iv) id);
    remove = (fun id iv -> Bt.remove_first t (I.lo iv) (I.hi iv) (Int.equal id));
    check;
    size = (fun () -> Bt.length t);
    audit = (fun () -> Invariant.btree t);
  }

(* The tracker and the partitions hold one copy of each pair, refuse a
   second with Invalid_argument, and must report a pair present right
   after inserting it. *)
let set_like name ~insert ~delete ~mem ~size ~audit =
  {
    name;
    dup = false;
    add =
      (fun id iv ->
        insert (id, iv);
        if not (mem (id, iv)) then Err.corrupt ~structure:name "mem is false right after inserting %d" id);
    remove = (fun id iv -> delete (id, iv));
    check = no_check;
    size;
    audit;
  }

module Tracker = Hotspot_core.Hotspot_tracker.Make (Elem)
module Tracker_audit = Invariant.Tracker (Elem) (Tracker)
module Lazy_p = Hotspot_core.Lazy_partition.Make (Elem)
module Refined_p = Hotspot_core.Refined_partition.Make (Elem)
module Lazy_audit = Invariant.Partition (Elem) (Lazy_p)
module Refined_audit = Invariant.Partition (Elem) (Refined_p)

(* The tracker runs at alpha 0.05 so the hub clusters actually promote. *)
let tracker ~seed =
  let t = Tracker.create ~alpha:0.05 ~seed () in
  set_like "hotspot_tracker" ~insert:(Tracker.insert t) ~delete:(Tracker.delete t)
    ~mem:(Tracker.mem t)
    ~size:(fun () -> Tracker.size t)
    ~audit:(fun () -> Tracker_audit.audit t)

let lazy_partition ~seed =
  let p = Lazy_p.create ~seed () in
  set_like "lazy_partition" ~insert:(Lazy_p.insert p) ~delete:(Lazy_p.delete p) ~mem:(Lazy_p.mem p)
    ~size:(fun () -> Lazy_p.size p)
    ~audit:(fun () -> Lazy_audit.audit ~name:"lazy_partition" p)

let refined_partition ~seed =
  let p = Refined_p.create ~seed () in
  set_like "refined_partition" ~insert:(Refined_p.insert p) ~delete:(Refined_p.delete p)
    ~mem:(Refined_p.mem p)
    ~size:(fun () -> Refined_p.size p)
    ~audit:(fun () -> Refined_audit.audit ~name:"refined_partition" p)

let structures ~seed =
  [
    interval_tree ();
    rtree ();
    treap ~seed;
    sweep_store ();
    band_hot_groups ~seed;
    btree ();
    tracker ~seed;
    lazy_partition ~seed;
    refined_partition ~seed;
  ]

(* ------------------------------------------------------------------ *)
(* Engine-level differential harness: workload x driver x comparator   *)
(* ------------------------------------------------------------------ *)

module Engine = Cq_engine.Engine
module Par = Cq_engine.Parallel
module Tuple = Cq_relation.Tuple
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

(* The sequential engine.  [batched] ingests each [Rows] step as one
   batch; otherwise every row is a one-row batch, whose tuple handle
   is kept for [Del].  Either way the live counts are kept, and every
   audit holds the engine's sizes to them. *)
let seq_ops ~batched eng =
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
        if not batched then Array.fold_left (one_row side) (Ok ()) rows
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
     (* Each query remembers how many batches preceded it: a query that
        follows a batch joins once that batch's barrier has passed. *)
     Array.iter
       (function
         | Fault.Sub q -> queries := (q, List.length !batches) :: !queries
         | Fault.Rows (side, rows) -> batches := (side, rows) :: !batches
         | Fault.Flush -> ()
         | st -> unsupported ~driver:"Served" (Format.asprintf "%a" Fault.pp_step st))
       w.steps;
     let qs = Array.of_list (List.rev !queries) in
     let nq = Array.length qs in
     let owner qi = owner ~sessions ~queries:nq qi in
     let blocks = List.init sessions (fun i -> List.filter (fun qi -> owner qi = i) (List.init nq Fun.id)) in
     let spec qi =
       match fst qs.(qi) with
       | Fault.Band w -> Netd.Band { lo = I.lo w; hi = I.hi w }
       | Fault.Select (a, c) -> Netd.Select { a_lo = I.lo a; a_hi = I.hi a; c_lo = I.lo c; c_hi = I.hi c }
     in
     let after qi = snd qs.(qi) in
     let workload =
       {
         Netd.seed = w.seed;
         sessions;
         queries =
           Array.of_list
             (List.map (fun b -> Array.of_list (List.map spec (List.filter (fun qi -> after qi = 0) b))) blocks);
         batches =
           Array.of_list (List.rev !batches)
           |> Array.mapi (fun i (side, rows) ->
                  let side = match side with Par.R -> Cq_net.Frame.R | Par.S -> Cq_net.Frame.S in
                  let joins = List.filter (fun qi -> after qi = i + 1) (List.init nq Fun.id) in
                  { Netd.owner = i mod sessions; side; rows; joins = List.map (fun qi -> (owner qi, spec qi)) joins });
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
  | Seq_rows -> replay_with ~keep name (seq_ops ~batched:false (engine ())) w
  | Seq_batch -> replay_with ~keep name (seq_ops ~batched:true (engine ())) w
  | Par shards -> Par.with_engine (config w ~shards) (fun t -> par_replay ~keep t w)
  | Served { sessions; shards } -> served ~sessions ~shards w

(* ------------------------------ fingerprint ----------------------------- *)

(* Every served replay runs first: [Unix.fork] refuses a process that
   has ever spawned a domain, and [Par 2] spawns some. *)
let fingerprint ~seeds =
  let w seed = Fault.gen_uniform ~churn:true ~seed ~n:800 () in
  let served = List.map (fun seed -> replay ~keep:true (Served { sessions = 2; shards = 1 }) (w seed)) seeds in
  List.concat_map
    (fun (seed, s) ->
      List.map (fun d -> replay ~keep:true d (w seed)) [ Seq_rows; Seq_batch; Par 1; Par 2; Par 3 ] @ [ s ])
    (List.combine seeds served)

(* FNV-1a over 64-bit words, oldest callback first. *)
let stream_hash o =
  let h = ref 0xcbf29ce484222325L in
  let mix x = h := Int64.mul (Int64.logxor !h x) 0x100000001b3L in
  List.iter
    (fun p ->
      List.iter mix (List.map Int64.of_int [ p.qi; p.sign; p.at; p.r.rid; p.s.sid ]);
      List.iter mix (List.map Int64.bits_of_float [ p.r.a; p.r.b; p.s.b; p.s.c ]))
    (List.rev o.results);
  Printf.sprintf "%016Lx" !h

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

(* Build every structure from the same adversarial stream (adds and
   removes only, so the set-like structures hold one copy of each
   pair), then deep-audit each one once. *)
let audit_workload ~seed ~n () =
  let audit_start = Cq_util.Clock.monotonic_ns () in
  let stream = Fault.gen ~seed ~n in
  let build s =
    Array.iter
      (function
        | Fault.Add { id; iv } -> s.add id iv
        | Fault.Remove { id; iv } -> ignore (s.remove id iv)
        | _ -> ())
      stream;
    (s.name, s.audit ())
  in
  let engine_report =
    let o = replay ~keep:false Seq_rows (Fault.gen_engine ~seed ~n:(max 100 (n / 10))) in
    let replay_failure (d : divergence) =
      { Invariant.structure = "engine"; check = "replay"; detail = d.detail }
    in
    match Option.to_list (Option.map replay_failure o.failure) @ o.violations with
    | [] -> Ok ()
    | vs -> Error vs
  in
  let reports = List.map build (structures ~seed) @ [ ("engine", engine_report) ] in
  note_elapsed "audit" ~start_ns:audit_start ~ops:n;
  Metrics.add (Metrics.counter "oracle.audit.structures") (List.length reports);
  reports

let fuzz_all ?(shards = 2) ~seed ~ops () =
  let n = max 200 (ops / 10) in
  let churned = Fault.gen_uniform ~churn:true ~seed ~n () in
  List.map (fun s -> run_structure s ~seed ~ops) (structures ~seed)
  @ [
      diff (Fault.gen_engine ~seed ~n) Reference Seq_rows Same;
      diff churned Seq_rows Seq_batch Same;
      diff churned Seq_rows Seq_batch Same_stream;
      diff (Fault.gen_uniform ~seed ~n ()) (Par 1) (Par shards) Same;
      diff (Fault.gen_uniform ~rates:Fault.mixed_rates ~seed ~n ()) Reference Seq_rows Shed_bounds;
    ]

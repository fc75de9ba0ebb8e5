module I = Cq_interval.Interval
module Table = Cq_relation.Table
module Tuple = Cq_relation.Tuple
module Bt = Cq_index.Btree
module Itree = Cq_index.Flat_interval_tree
module Rtree = Cq_index.Rtree
module Vec = Cq_util.Vec
module Processor = Hotspot_core.Processor
module Dedupe = Processor.Dedupe

type sink = Select_query.t -> Tuple.s -> unit

module type STRATEGY =
  Processor.STRATEGY
    with type query := Select_query.t
     and type event := Tuple.r
     and type store := Table.s_table
     and type result := Tuple.s

(* Visit the S-tuples joining with the event (same B), in C order. *)
let iter_joining table ~b f = Bt.iter_range (Table.s_by_b table) b neg_infinity b infinity f

(* --------------------------------------------------------------------- *)
(* The event's run in S(B,C)                                               *)
(* --------------------------------------------------------------------- *)

(* An R-tuple joins only the S rows with S.B = r.B: one run of S(B,C),
   in C order.  [scan_begin] finds the run's first entry by one descent
   from the root and keeps it in [run]; every later seek of the event
   (a group's STEP 1, a candidate's probe) copies [run] into [finger]
   and seeks from there, so a run that fits in a leaf or two costs a
   search inside one leaf, and a longer one [finger_seek]'s own
   descent. *)
type scan = {
  mutable ev : Tuple.r;
  run : Tuple.s Bt.finger;
  finger : Tuple.s Bt.finger;
}

let scan_create table =
  let sb = Table.s_by_b table in
  { ev = { rid = -1; a = 0.0; b = 0.0 }; run = Bt.finger sb; finger = Bt.finger sb }

(* Whether the event has a join partner: the run's first entry, the
   leftmost with key >= (r.b, -∞), has B = r.b.  With none, no query
   has a result, and the caller skips the event's walk. *)
let[@cq.hot] scan_begin s (r : Tuple.r) =
  s.ev <- r;
  let run = s.run in
  Bt.finger_descend run r.b neg_infinity;
  let i = Bt.finger_index run in
  i < Bt.finger_count run && Array.unsafe_get (Bt.finger_keys run) i = r.b

(* [finger] on the leftmost entry >= (r.b, c), sought from the run. *)
let[@cq.hot] seek s c =
  Bt.finger_copy s.finger ~from:s.run;
  Bt.finger_seek s.finger s.ev.b c

(* The S-tuples joining the event with C in [q]'s rangeC, in C order,
   from one seek: [sink q] gets each. *)
let probe s (q : Select_query.t) sink =
  seek s q.range_c.I.lo;
  Bt.finger_iter_le s.finger s.ev.b q.range_c.I.hi q sink

(* Whether [probe] would emit: one seek to (r.b, lo), then a look at
   the entry it lands on. *)
let hit s (q : Select_query.t) =
  seek s q.range_c.I.lo;
  let f = s.finger in
  let i = Bt.finger_index f in
  i < Bt.finger_count f
  && (Bt.finger_keys f).(i) = s.ev.b
  && (Bt.finger_keys2 f).(i) <= q.range_c.I.hi

(* --------------------------------------------------------------------- *)
(* NAIVE: join, then evaluate every query on the intermediate result       *)
(* --------------------------------------------------------------------- *)

module Naive = struct
  type t = {
    table : Table.s_table;
    queries : (int, Select_query.t) Hashtbl.t;
  }

  let name = "NAIVE"

  let create table queries =
    let h = Hashtbl.create (max 16 (Array.length queries)) in
    Array.iter (fun (q : Select_query.t) -> Hashtbl.replace h q.qid q) queries;
    { table; queries = h }

  let process_r t (r : Tuple.r) sink =
    (* Intermediate result, ordered by S.C. *)
    let joined = Vec.create () in
    iter_joining t.table ~b:r.b (fun s -> Vec.push joined s);
    let m = Vec.length joined in
    if m > 0 then begin
      (* First index with C >= x. *)
      let lower_bound x =
        let lo = ref 0 and hi = ref m in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if (Vec.get joined mid).Tuple.c < x then lo := mid + 1 else hi := mid
        done;
        !lo
      in
      Hashtbl.iter
        (fun _ (q : Select_query.t) ->
          if I.stabs q.range_a r.a then begin
            let i = ref (lower_bound (I.lo q.range_c)) in
            let continue = ref true in
            while !continue && !i < m do
              let s = Vec.get joined !i in
              if s.Tuple.c <= I.hi q.range_c then begin
                sink q s;
                incr i
              end
              else continue := false
            done
          end)
        t.queries
    end

  let affected t (r : Tuple.r) report =
    let joined = Vec.create () in
    iter_joining t.table ~b:r.b (fun s -> Vec.push joined s);
    let m = Vec.length joined in
    if m > 0 then begin
      let lower_bound x =
        let lo = ref 0 and hi = ref m in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if (Vec.get joined mid).Tuple.c < x then lo := mid + 1 else hi := mid
        done;
        !lo
      in
      Hashtbl.iter
        (fun _ (q : Select_query.t) ->
          if I.stabs q.range_a r.a then begin
            let i = lower_bound (I.lo q.range_c) in
            if i < m && (Vec.get joined i).Tuple.c <= I.hi q.range_c then report q
          end)
        t.queries
    end

  let insert_query t q = Hashtbl.replace t.queries q.Select_query.qid q

  let delete_query t (q : Select_query.t) =
    if Hashtbl.mem t.queries q.qid then (Hashtbl.remove t.queries q.qid; true) else false

  let query_count t = Hashtbl.length t.queries
end

(* --------------------------------------------------------------------- *)
(* SJ-JoinFirst: join, then 2-D stab per join result point                 *)
(* --------------------------------------------------------------------- *)

module Join_first = struct
  type t = {
    table : Table.s_table;
    rects : Select_query.t Rtree.t;
    dedupe : Dedupe.t;
    mutable count : int;
  }

  let name = "SJ-J"

  let create table queries =
    let rects = Rtree.create ~max_entries:8 () in
    Array.iter (fun q -> Rtree.insert rects (Select_query.rect q) q) queries;
    { table; rects; dedupe = Dedupe.create (); count = Array.length queries }

  let process_r t (r : Tuple.r) sink =
    iter_joining t.table ~b:r.b (fun s ->
        Rtree.stab t.rects ~x:s.Tuple.c ~y:r.a (fun q -> sink q s))

  let affected t (r : Tuple.r) report =
    Dedupe.fresh t.dedupe;
    iter_joining t.table ~b:r.b (fun s ->
        Rtree.stab t.rects ~x:s.Tuple.c ~y:r.a (fun (q : Select_query.t) ->
            if Dedupe.mark t.dedupe q.qid then report q))

  let insert_query t q =
    Rtree.insert t.rects (Select_query.rect q) q;
    t.count <- t.count + 1

  let delete_query t (q : Select_query.t) =
    let hit = Rtree.remove t.rects (Select_query.rect q) (fun p -> p.Select_query.qid = q.qid) in
    if hit then t.count <- t.count - 1;
    Dedupe.forget t.dedupe q.qid;
    hit

  let query_count t = t.count
end

(* --------------------------------------------------------------------- *)
(* SJ-SelectFirst: R.A selection first, then an index join per query       *)
(* --------------------------------------------------------------------- *)

module Select_first = struct
  type t = {
    a_index : Select_query.t Itree.t;
    scan : scan;
  }

  let name = "SJ-S"

  let create table queries =
    let a_index = Itree.create () in
    Array.iter (fun (q : Select_query.t) -> Itree.add a_index q.range_a q) queries;
    { a_index; scan = scan_create table }

  (* The processors' rule: an event with no join partner ends after
     its one descent, before the rangeA stab. *)
  let process_r t (r : Tuple.r) sink =
    if scan_begin t.scan r then Itree.stab t.a_index r.a (fun q -> probe t.scan q sink)

  let affected t (r : Tuple.r) report =
    if scan_begin t.scan r then Itree.stab t.a_index r.a (fun q -> if hit t.scan q then report q)

  let insert_query t (q : Select_query.t) = Itree.add t.a_index q.range_a q

  let delete_query t (q : Select_query.t) =
    Itree.remove t.a_index q.range_a (fun p -> p.Select_query.qid = q.qid)

  let query_count t = Itree.size t.a_index
end

(* --------------------------------------------------------------------- *)
(* The shared processor core: groups as R-trees over the query             *)
(* rectangles, STEP 1 probing at the two anchor join-result points         *)
(* (Section 3.2, Figure 5)                                                 *)
(* --------------------------------------------------------------------- *)

(* A stabbing group: member rectangles in an R-tree plus a reusable
   STEP-1 output buffer.  [group_step1] clears and refills [scratch],
   so its contents are only valid until the next STEP 1 on the same
   group (the batch-ingest non-reentrancy contract).  [take_first] and
   [take_second] are the two probes' callbacks, made once with the
   group: they read the current STEP 1's acceptance test from [mark]
   and the first anchor's C value from [q1] (NaN when there is none,
   which no rangeC holds). *)
type group = {
  rtree : Select_query.t Rtree.t;
  scratch : Select_query.t Vec.t;
  mutable mark : Select_query.t -> bool;
  q1 : float array;
  take_first : Select_query.t -> unit;
  take_second : Select_query.t -> unit;
}

let create_group () =
  let rec g =
    {
      rtree = Rtree.create ~max_entries:8 ();
      scratch = Vec.create ();
      mark = (fun _ -> false);
      q1 = [| nan |];
      take_first = (fun q -> if g.mark q then Vec.push g.scratch q);
      (* A rectangle the first probe found holds q1 in its rangeC: the
         second probe skips it, so each member is offered once.  The
         range is read as fields of the private record (a call to
         [I.stabs] would box q1). *)
      take_second =
        (fun (q : Select_query.t) ->
          let c = q.range_c and q1 = g.q1.(0) in
          if (not (c.I.lo <= q1 && q1 <= c.I.hi)) && g.mark q then Vec.push g.scratch q);
    }
  in
  g

(* STEP 1 for one stabbing group (on the rangeC projections) with
   stabbing point [stab]: find the affected queries.  The anchors are
   the joining S-tuples whose C values surround the stabbing point —
   the rightmost entry < (b, stab) and the leftmost >= (b, stab), each
   usable only while it stays within the event's B value.  One seek
   from the event's run finds both, and leaves the scan's finger on the
   second for STEP 2; their C values are read from the leaves'
   secondary column, as band STEP 1 reads B from the primary one.  The
   two join result points closest to (stab, r.a) probe the group's
   rectangle index with the group's own callbacks, so nothing is
   allocated but the boxed probe coordinates. *)
let[@cq.hot] group_step1 s (r : Tuple.r) ~stab ~g ~mark =
  let b = r.b in
  Vec.clear g.scratch;
  g.mark <- mark;
  seek s stab;
  let f = s.finger in
  let j = Bt.finger_back_index f in
  if j >= 0 && (Bt.finger_back_keys f).(j) = b then begin
    let q1 = (Bt.finger_back_keys2 f).(j) in
    g.q1.(0) <- q1;
    Rtree.stab g.rtree ~x:q1 ~y:r.a g.take_first
  end
  else g.q1.(0) <- nan;
  let i = Bt.finger_index f in
  if i < Bt.finger_count f && (Bt.finger_keys f).(i) = b then
    Rtree.stab g.rtree ~x:(Bt.finger_keys2 f).(i) ~y:r.a g.take_second;
  g.scratch

(* STEP 2: each affected rectangle covers a consecutive C-run of join
   result points including an anchor; walk back from the first anchor
   and forward from the second, both from the finger STEP 1 left.  No
   allocation per emitted result. *)
let[@cq.hot] process_group s g ~stab (r : Tuple.r) ~mark (sink : sink) =
  let b = r.b and f = s.finger in
  let hits = group_step1 s r ~stab ~g ~mark in
  for i = 0 to Vec.length hits - 1 do
    let q : Select_query.t = Vec.get hits i in
    Bt.finger_iter_back_ge f b q.range_c.I.lo q sink;
    Bt.finger_iter_le f b q.range_c.I.hi q sink
  done

module Core_query = struct
  type t = Select_query.t
  type event = Tuple.r
  type store = Table.s_table
  type result = Tuple.s

  let label = "SJ"
  let qid (q : Select_query.t) = q.qid
  let compare = Select_query.Elem_c.compare

  (* Partition on the rangeC projections; scattered queries are served
     SJ-SelectFirst style, indexed on rangeA and pruned by the event's
     A value. *)
  let interval (q : Select_query.t) = q.range_c
  let scatter_interval (q : Select_query.t) = q.range_a

  (* Candidates are already pruned by the rangeA stab, so each one is
     probed on its own, from the event's run. *)
  type nonrec scan = scan

  let scan_create = scan_create
  let scan_begin = scan_begin

  let scattered = Processor.Stab { point = (fun (r : Tuple.r) -> r.a); probe; hit }

  module Group = struct
    type g = group

    let create = create_group
    let add g q = Rtree.insert g.rtree (Select_query.rect q) q

    let remove g (q : Select_query.t) =
      ignore (Rtree.remove g.rtree (Select_query.rect q) (fun p -> p.Select_query.qid = q.qid))

    let size g = Rtree.size g.rtree
    let iter g k = Rtree.iter g.rtree (fun _ q -> k q)
    let check_invariants g = Rtree.check_invariants g.rtree
    let process s g ~stab ev ~mark sink = process_group s g ~stab ev ~mark sink
    let identify s g ~stab ev ~mark report = Vec.iter report (group_step1 s ev ~stab ~g ~mark)
  end
end

module Core = Processor.Make (Core_query)
module Ssi = Core.Ssi

module Hotspot = Core.Hotspot

(* --------------------------------------------------------------------- *)
(* Adaptive per-event strategy choice (Section 6)                          *)
(* --------------------------------------------------------------------- *)

module Adaptive = struct
  type choice = Use_select_first | Use_ssi

  type t = {
    table : Table.s_table;
    sf : Select_first.t;
    ssi : Ssi.t;
    (* n' estimator: an SSI histogram over the rangeA intervals,
       rebuilt lazily after query churn. *)
    mutable estimator : Cq_histogram.Ssi_hist.t option;
    mutable churn : int;
    mutable sf_events : int;
    mutable ssi_events : int;
  }

  let name = "SJ-ADAPT"

  (* The dispatch rule's scale: SJ-SelectFirst is chosen when the
     estimated n' is below [threshold * tau]. *)
  let threshold = 2.0

  let create table queries =
    {
      table;
      sf = Select_first.create table queries;
      ssi = Ssi.create table queries;
      estimator = None;
      churn = 0;
      sf_events = 0;
      ssi_events = 0;
    }

  let estimator t =
    match t.estimator with
    | Some h when t.churn = 0 -> h
    | _ ->
        let acc = ref [] in
        Ssi.iter_queries t.ssi (fun (q : Select_query.t) -> acc := q.range_a :: !acc);
        let ranges = Array.of_list !acc in
        let buckets = max 16 (Array.length ranges / 250) in
        let h = Cq_histogram.Ssi_hist.build ranges ~buckets in
        t.estimator <- Some h;
        t.churn <- 0;
        h

  let choose t (r : Tuple.r) =
    let est_n' = Cq_histogram.Ssi_hist.estimate (estimator t) r.a in
    let tau = float_of_int (Ssi.num_groups t.ssi) in
    if est_n' < threshold *. tau then Use_select_first else Use_ssi

  let process_r t r sink =
    match choose t r with
    | Use_select_first ->
        t.sf_events <- t.sf_events + 1;
        Select_first.process_r t.sf r sink
    | Use_ssi ->
        t.ssi_events <- t.ssi_events + 1;
        Ssi.process_r t.ssi r sink

  let affected t r report =
    match choose t r with
    | Use_select_first ->
        t.sf_events <- t.sf_events + 1;
        Select_first.affected t.sf r report
    | Use_ssi ->
        t.ssi_events <- t.ssi_events + 1;
        Ssi.affected t.ssi r report

  let insert_query t q =
    Select_first.insert_query t.sf q;
    Ssi.insert_query t.ssi q;
    t.churn <- t.churn + 1

  let delete_query t q =
    let ok = Select_first.delete_query t.sf q in
    if ok then begin
      ignore (Ssi.delete_query t.ssi q);
      t.churn <- t.churn + 1
    end;
    ok

  let query_count t = Ssi.query_count t.ssi
  let decisions t = (t.sf_events, t.ssi_events)
end

(* --------------------------------------------------------------------- *)
(* Ground truth                                                            *)
(* --------------------------------------------------------------------- *)

let reference table queries (r : Tuple.r) =
  let acc = ref [] in
  Array.iter
    (fun (q : Select_query.t) ->
      Table.iter_s table (fun s ->
          if s.Tuple.b = r.b && Select_query.matches q ~r_a:r.a ~s_c:s.Tuple.c then
            acc := (q.qid, s.sid) :: !acc))
    queries;
  List.sort Cq_util.Order.int_pair !acc

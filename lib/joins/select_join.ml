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

(* The S-tuples with B = [b] and C in [[lo, hi]], in C order, from one
   seek of the finger [f]: [sink q] gets each. *)
let iter_selected f ~b ~lo ~hi q sink =
  Bt.finger_seek f b lo;
  Bt.finger_iter_le f b hi q sink

(* Whether S holds a tuple with B = [b] and C in [[lo, hi]]: one seek
   of [f] to (b, lo), then a look at the entry it lands on. *)
let holds f ~b ~lo ~hi =
  Bt.finger_seek f b lo;
  let i = Bt.finger_index f in
  i < Bt.finger_count f && (Bt.finger_keys f).(i) = b && (Bt.finger_keys2 f).(i) <= hi

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
    (* On S(B,C), reset at each event. *)
    finger : Tuple.s Bt.finger;
  }

  let name = "SJ-S"

  let create table queries =
    let a_index = Itree.create () in
    Array.iter (fun (q : Select_query.t) -> Itree.add a_index q.range_a q) queries;
    { a_index; finger = Bt.finger (Table.s_by_b table) }

  let process_r t (r : Tuple.r) sink =
    Bt.finger_reset t.finger;
    Itree.stab t.a_index r.a (fun (q : Select_query.t) ->
        iter_selected t.finger ~b:r.b ~lo:q.range_c.I.lo ~hi:q.range_c.I.hi q sink)

  let affected t (r : Tuple.r) report =
    Bt.finger_reset t.finger;
    Itree.stab t.a_index r.a (fun (q : Select_query.t) ->
        if holds t.finger ~b:r.b ~lo:q.range_c.I.lo ~hi:q.range_c.I.hi then report q)

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
   usable only while it stays within the event's B value.  One seek of
   the finger [f] finds both, and leaves [f] on the second for STEP 2;
   their C values are read from the leaves' secondary column, as band
   STEP 1 reads B from the primary one.  The two join result points
   closest to (stab, r.a) probe the group's rectangle index with the
   group's own callbacks, so nothing is allocated but the boxed probe
   coordinates. *)
let[@cq.hot] group_step1 f (r : Tuple.r) ~stab ~g ~mark =
  let b = r.b in
  Vec.clear g.scratch;
  g.mark <- mark;
  Bt.finger_seek f b stab;
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
let[@cq.hot] process_group f g ~stab (r : Tuple.r) ~mark (sink : sink) =
  let b = r.b in
  let hits = group_step1 f r ~stab ~g ~mark in
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
     probed on its own: the scan remembers the event, plus the finger
     on S(B,C) that each candidate's probe and each group's STEP 1
     seek. *)
  type scan = {
    mutable ev : Tuple.r;
    finger : Tuple.s Bt.finger;
  }

  let scan_create table =
    { ev = { rid = -1; a = 0.0; b = 0.0 }; finger = Bt.finger (Table.s_by_b table) }

  let scan_begin s r =
    s.ev <- r;
    Bt.finger_reset s.finger

  let probe s (q : Select_query.t) sink =
    iter_selected s.finger ~b:s.ev.b ~lo:q.range_c.I.lo ~hi:q.range_c.I.hi q sink

  let hit s (q : Select_query.t) = holds s.finger ~b:s.ev.b ~lo:q.range_c.I.lo ~hi:q.range_c.I.hi

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
    let process s g ~stab ev ~mark sink = process_group s.finger g ~stab ev ~mark sink

    let identify s g ~stab ev ~mark report =
      Vec.iter report (group_step1 s.finger ev ~stab ~g ~mark)
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

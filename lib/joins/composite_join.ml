module I = Cq_interval.Interval
module Table = Cq_relation.Table
module Tuple = Cq_relation.Tuple
module Fbt = Table.Fbt
module Itree = Cq_index.Flat_interval_tree
module Vec = Cq_util.Vec
module CQ = Composite_query
module Processor = Hotspot_core.Processor

type sink = CQ.t -> Tuple.s -> unit

module type STRATEGY =
  Processor.STRATEGY
    with type query := CQ.t
     and type event := Tuple.r
     and type store := Table.s_table
     and type result := Tuple.s

(* Emit results of one query against the event: scan the instantiated
   band window on the S.B index, filtering by the C selection.  With
   [stop_after_first], stops at the first hit (existence probing for
   [affected]).  Returns whether anything matched. *)
let probe_query table (q : CQ.t) ~b ~stop_after_first sink =
  let w = I.shift q.band b in
  let hit = ref false in
  (try
     Fbt.iter_range (Table.s_by_b table) ~lo:(I.lo w) ~hi:(I.hi w) (fun _ s ->
         if I.stabs q.range_c s.Tuple.c then begin
           hit := true;
           sink q s;
           if stop_after_first then raise Exit
         end)
   with Exit -> ());
  !hit

(* --------------------------------------------------------------------- *)
(* NAIVE                                                                   *)
(* --------------------------------------------------------------------- *)

module Naive = struct
  type t = {
    table : Table.s_table;
    queries : (int, CQ.t) Hashtbl.t;
  }

  let name = "CJ-NAIVE"

  let create table queries =
    let h = Hashtbl.create (max 16 (Array.length queries)) in
    Array.iter (fun (q : CQ.t) -> Hashtbl.replace h q.qid q) queries;
    { table; queries = h }

  let visit t (r : Tuple.r) ~stop_after_first sink report =
    Hashtbl.iter
      (fun _ (q : CQ.t) ->
        if I.stabs q.range_a r.a then
          if probe_query t.table q ~b:r.b ~stop_after_first sink then report q)
      t.queries

  let process_r t r sink = visit t r ~stop_after_first:false sink (fun _ -> ())
  let affected t r report = visit t r ~stop_after_first:true (fun _ _ -> ()) report

  let insert_query t q = Hashtbl.replace t.queries q.CQ.qid q

  let delete_query t (q : CQ.t) =
    if Hashtbl.mem t.queries q.qid then (Hashtbl.remove t.queries q.qid; true) else false

  let query_count t = Hashtbl.length t.queries
end

(* --------------------------------------------------------------------- *)
(* A-first: R.A selection index, then per-query probing                    *)
(* --------------------------------------------------------------------- *)

module Afirst = struct
  type t = {
    table : Table.s_table;
    a_index : CQ.t Itree.t;
  }

  let name = "CJ-A"

  let create table queries =
    let a_index = Itree.create () in
    Array.iter (fun (q : CQ.t) -> Itree.add a_index q.range_a q) queries;
    { table; a_index }

  let process_r t (r : Tuple.r) sink =
    Itree.stab t.a_index r.a (fun q ->
        ignore (probe_query t.table q ~b:r.b ~stop_after_first:false sink))

  let affected t (r : Tuple.r) report =
    Itree.stab t.a_index r.a (fun q ->
        if probe_query t.table q ~b:r.b ~stop_after_first:true (fun _ _ -> ()) then report q)

  let insert_query t (q : CQ.t) = Itree.add t.a_index q.range_a q

  let delete_query t (q : CQ.t) =
    Itree.remove t.a_index q.range_a (fun p -> p.CQ.qid = q.qid)

  let query_count t = Itree.size t.a_index
end

(* --------------------------------------------------------------------- *)
(* The shared processor core: groups on the band axis; the R.A             *)
(* selection is tested before a candidate is accepted (an O(1) filter      *)
(* the group walk absorbs for free) and the C selection during the         *)
(* per-candidate result walk.  STEP 2's output-sensitivity is lost to      *)
(* the C filter — exactly the composition difficulty the paper flags.      *)
(* --------------------------------------------------------------------- *)

module G = Band_axis.Make (struct
  type q = CQ.t

  let qid (q : CQ.t) = q.qid
  let axis (q : CQ.t) = q.band
end)

module Core_query = struct
  type t = CQ.t
  type event = Tuple.r
  type store = Table.s_table
  type result = Tuple.s

  let label = "CJ"
  let qid (q : CQ.t) = q.qid
  let compare = CQ.Elem.compare

  (* Partition on the band windows; scattered queries are pruned by
     their rangeA selection first (the Afirst idea). *)
  let interval (q : CQ.t) = q.band
  let scatter_interval (q : CQ.t) = q.range_a

  (* Candidates are already pruned by the rangeA stab, so each one is
     probed on its own: the scan remembers the event, plus the finger
     on S.B each group's STEP 1 seeks to its anchors. *)
  type scan = {
    table : Table.s_table;
    mutable ev : Tuple.r;
    group : Tuple.s Fbt.finger;
  }

  let scan_create table =
    { table; ev = { rid = -1; a = 0.0; b = 0.0 }; group = Fbt.finger (Table.s_by_b table) }

  let scan_begin s r =
    s.ev <- r;
    Fbt.finger_reset s.group

  let probe s q sink = ignore (probe_query s.table q ~b:s.ev.b ~stop_after_first:false sink)
  let hit s q = probe_query s.table q ~b:s.ev.b ~stop_after_first:true (fun _ _ -> ())
  let scattered = Processor.Stab { point = (fun (r : Tuple.r) -> r.a); probe; hit }

  module Group = struct
    type g = G.g

    let create = G.create
    let add = G.add
    let remove = G.remove
    let size = G.size
    let iter = G.iter
    let check_invariants = G.check_invariants

    (* STEP 1 on the group finger; STEP 2 keeps the per-candidate
       ascending window scan, which the C filter needs anyway. *)
    let candidates s g ~stab (r : Tuple.r) ~mark =
      let mark' (q : CQ.t) = I.stabs q.range_a r.a && mark q in
      G.step1 s.group r g ~stab ~mark:mark'

    let process s g ~stab (r : Tuple.r) ~mark sink =
      Vec.iter
        (fun (q : CQ.t) ->
          ignore (probe_query s.table q ~b:r.b ~stop_after_first:false (fun q s -> sink q s)))
        (candidates s g ~stab r ~mark)

    let identify s g ~stab (r : Tuple.r) ~mark report =
      Vec.iter
        (fun (q : CQ.t) ->
          if probe_query s.table q ~b:r.b ~stop_after_first:true (fun _ _ -> ()) then report q)
        (candidates s g ~stab r ~mark)
  end
end

module Core = Processor.Make (Core_query)
module Ssi = Core.Ssi

module Hotspot = Core.Hotspot

(* --------------------------------------------------------------------- *)

let reference table queries (r : Tuple.r) =
  let acc = ref [] in
  Array.iter
    (fun (q : CQ.t) ->
      Table.iter_s table (fun s ->
          if CQ.matches q ~r_a:r.a ~r_b:r.b ~s_b:s.Tuple.b ~s_c:s.Tuple.c then
            acc := (q.qid, s.sid) :: !acc))
    queries;
  List.sort Cq_util.Order.int_pair !acc

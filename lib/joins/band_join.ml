module I = Cq_interval.Interval
module Table = Cq_relation.Table
module Tuple = Cq_relation.Tuple
module Bt = Cq_index.Btree
module Itree = Cq_index.Flat_interval_tree
module Store = Cq_index.Sweep_store
module Vec = Cq_util.Vec
module Processor = Hotspot_core.Processor
module Dedupe = Processor.Dedupe

type sink = Band_query.t -> Tuple.s -> unit

module type STRATEGY =
  Processor.STRATEGY
    with type query := Band_query.t
     and type event := Tuple.r
     and type store := Table.s_table
     and type result := Tuple.s

(* Does the S.B index hold any value inside the window? *)
let[@cq.hot] window_nonempty table w =
  match Table.Fbt.seek_ge (Table.s_by_b table) (I.lo w) with
  | Some c -> Bt.key c <= I.hi w
  | None -> false

(* --------------------------------------------------------------------- *)
(* BJ-QOuter: queries as the outer relation                                *)
(* --------------------------------------------------------------------- *)

module Qouter = struct
  type t = {
    table : Table.s_table;
    queries : (int, Band_query.t) Hashtbl.t;
  }

  let name = "BJ-Q"

  let create table queries =
    let h = Hashtbl.create (max 16 (Array.length queries)) in
    Array.iter (fun (q : Band_query.t) -> Hashtbl.replace h q.qid q) queries;
    { table; queries = h }

  let process_r t (r : Tuple.r) sink =
    let sb = Table.s_by_b t.table in
    Hashtbl.iter
      (fun _ (q : Band_query.t) ->
        let w = Band_query.instantiated q ~b:r.b in
        Bt.iter_range sb (I.lo w) neg_infinity (I.hi w) infinity (fun s -> sink q s))
      t.queries

  let affected t (r : Tuple.r) report =
    Hashtbl.iter
      (fun _ (q : Band_query.t) ->
        if window_nonempty t.table (Band_query.instantiated q ~b:r.b) then report q)
      t.queries

  let insert_query t q = Hashtbl.replace t.queries q.Band_query.qid q
  let delete_query t (q : Band_query.t) =
    if Hashtbl.mem t.queries q.qid then (Hashtbl.remove t.queries q.qid; true) else false

  let query_count t = Hashtbl.length t.queries
end

(* --------------------------------------------------------------------- *)
(* BJ-DOuter: data as the outer relation                                   *)
(* --------------------------------------------------------------------- *)

module Douter = struct
  type t = {
    table : Table.s_table;
    (* Stabbing index over the band windows (the paper suggests a
       dynamic priority search tree; an augmented interval tree has the
       same O(log n + k) stabbing bound and O(log n) updates). *)
    windows : Band_query.t Itree.t;
    dedupe : Dedupe.t;
  }

  let name = "BJ-D"

  let create table queries =
    let windows = Itree.create () in
    Array.iter (fun (q : Band_query.t) -> Itree.add windows q.range q) queries;
    { table; windows; dedupe = Dedupe.create () }

  let process_r t (r : Tuple.r) sink =
    Table.iter_s t.table (fun s ->
        Itree.stab t.windows (s.b -. r.b) (fun q -> sink q s))

  let affected t (r : Tuple.r) report =
    Dedupe.fresh t.dedupe;
    Table.iter_s t.table (fun s ->
        Itree.stab t.windows (s.b -. r.b) (fun (q : Band_query.t) ->
            if Dedupe.mark t.dedupe q.qid then report q))

  let insert_query t (q : Band_query.t) = Itree.add t.windows q.range q

  let delete_query t (q : Band_query.t) =
    Dedupe.forget t.dedupe q.qid;
    Itree.remove t.windows q.range (fun p -> p.Band_query.qid = q.qid)

  let query_count t = Itree.size t.windows
end

(* --------------------------------------------------------------------- *)
(* BJ-MJ: merge join between the sorted windows and sorted S               *)
(* --------------------------------------------------------------------- *)

module Merge = struct
  type t = {
    table : Table.s_table;
    (* Band windows in increasing (lo, hi) order (a B-tree doubles as
       the "sorted list" with O(log n) maintenance). *)
    by_lo : Band_query.t Bt.t;
  }

  let name = "BJ-MJ"

  let create table queries =
    let by_lo = Bt.create () in
    Array.iter (fun (q : Band_query.t) -> Bt.insert by_lo (I.lo q.range) (I.hi q.range) q) queries;
    { table; by_lo }

  let process_r t (r : Tuple.r) sink =
    let sb = Table.s_by_b t.table in
    (* The frontier cursor only ever moves right: total cost
       O(n + m + k) per event. *)
    let frontier = ref (Table.Fbt.seek_ge sb neg_infinity) in
    Bt.iter t.by_lo (fun q ->
        let w = Band_query.instantiated q ~b:r.b in
        let rec advance () =
          match !frontier with
          | Some c when Bt.key c < I.lo w ->
              frontier := Bt.next c;
              advance ()
          | _ -> ()
        in
        advance ();
        let rec emit = function
          | Some c when Bt.key c <= I.hi w ->
              sink q (Bt.value c);
              emit (Bt.next c)
          | _ -> ()
        in
        emit !frontier)

  let affected t (r : Tuple.r) report =
    let sb = Table.s_by_b t.table in
    let frontier = ref (Table.Fbt.seek_ge sb neg_infinity) in
    Bt.iter t.by_lo (fun q ->
        let w = Band_query.instantiated q ~b:r.b in
        let rec advance () =
          match !frontier with
          | Some c when Bt.key c < I.lo w ->
              frontier := Bt.next c;
              advance ()
          | _ -> ()
        in
        advance ();
        match !frontier with
        | Some c when Bt.key c <= I.hi w -> report q
        | _ -> ())

  let insert_query t (q : Band_query.t) = Bt.insert t.by_lo (I.lo q.range) (I.hi q.range) q

  let delete_query t (q : Band_query.t) =
    Bt.remove_first t.by_lo (I.lo q.range) (I.hi q.range) (fun p -> p.Band_query.qid = q.qid)

  let query_count t = Bt.length t.by_lo
end

(* --------------------------------------------------------------------- *)
(* The shared processor core: groups on the band axis, STEP 2 walking     *)
(* the S.B leaves outward from the anchors (Section 3.1)                  *)
(* --------------------------------------------------------------------- *)

(* A stabbing group on the band (S.B − R.B) axis.  An incoming R-tuple
   shifts every member window by its B value; the two S-tuples closest
   to the shifted stabbing point certify which members are affected: a
   member whose window reaches the left anchor or the right anchor has
   at least one joining S-tuple.  The members sit in one lo-ordered
   sweep store, so a membership change moves slots in one chunk and
   STEP 1 is one pass over float columns: the prefix that reaches the
   left anchor, then the later members that reach the right one.
   [anchors] holds the shifted anchors [| s1 - b; s2 - b |] of the
   current STEP 1, [mark] its acceptance test and [take] the
   preallocated step that offers a member to [mark] and keeps it in
   [scratch], the reusable STEP-1 output: its contents are only valid
   until the next [step1] on the same group (no re-entrant processing
   of one group — the batch-ingest non-reentrancy contract). *)
module G = struct
  type g = {
    store : Band_query.t Store.t;
    anchors : float array;
    scratch : Band_query.t Vec.t;
    mutable mark : Band_query.t -> bool;
    take : Band_query.t -> unit;
  }

  let create () =
    let rec g =
      {
        store = Store.create ();
        anchors = [| nan; nan |];
        scratch = Vec.create ();
        mark = (fun _ -> false);
        take = (fun q -> if g.mark q then Vec.push g.scratch q);
      }
    in
    g

  let add g (q : Band_query.t) = Store.add g.store q.range q

  let remove g (q : Band_query.t) =
    ignore (Store.remove g.store q.range (fun (p : Band_query.t) -> p.qid = q.qid))

  let size g = Store.size g.store
  let iter g k = Store.iter g.store k
  let check_invariants g = Store.check_invariants g.store

  (* STEP 1: the affected members that [mark] accepts, each offered at
     most once, in store order.  The anchors around the shifted
     stabbing point [key]: s2 is the leftmost entry >= key (the finger
     [f] stays on it for STEP 2) and s1 the entry just before it.  A
     missing anchor reads as NaN, which takes no member on its side.
     On an exact match the S-tuple at the stabbing point joins with
     every member: [infinity] as the left anchor takes them all in the
     prefix.  Keys are read from the finger's leaf arrays, so no anchor
     is boxed, and beyond the seek nothing allocates.  The result is
     the group's [scratch]. *)
  let[@cq.hot] step1 f (r : Tuple.r) g ~stab ~mark =
    let b = r.b in
    let key = stab +. b in
    Vec.clear g.scratch;
    Bt.finger_seek f key neg_infinity;
    let i = Bt.finger_index f in
    let s2 = if i < Bt.finger_count f then Array.unsafe_get (Bt.finger_keys f) i else nan in
    if s2 = key then g.anchors.(0) <- infinity
    else begin
      let j = Bt.finger_back_index f in
      let s1 = if j >= 0 then Array.unsafe_get (Bt.finger_back_keys f) j else nan in
      g.anchors.(0) <- s1 -. b;
      g.anchors.(1) <- s2 -. b
    end;
    g.mark <- mark;
    Store.walk_anchored g.store g.anchors g.take;
    g.scratch
end

(* STEP 2 from the finger STEP 1 left on the anchor s2: for each
   affected query, walk S.B back from s1 while the key reaches the
   instantiated window's lower end, then forward from s2 up to its
   upper end.  The window ends are read as fields of the private
   record (a call to [I.lo] would box), and neither walk allocates per
   emitted result. *)
let process_group f g ~stab (r : Tuple.r) ~mark (sink : sink) =
  let affected = G.step1 f r g ~stab ~mark in
  let b = r.b in
  for i = 0 to Vec.length affected - 1 do
    let q : Band_query.t = Vec.get affected i in
    Bt.finger_iter_back_ge f (q.range.I.lo +. b) neg_infinity q sink;
    Bt.finger_iter_le f (q.range.I.hi +. b) infinity q sink
  done

module Core_query = struct
  type t = Band_query.t
  type event = Tuple.r
  type store = Table.s_table
  type result = Tuple.s

  let label = "BJ"
  let qid (q : Band_query.t) = q.qid
  let compare = Band_query.Elem.compare
  let interval (q : Band_query.t) = q.range
  let scatter_interval = interval

  (* Band windows shift with the event's B value, so scattered queries
     have no fixed stabbing point.  The sweep store yields them in
     ascending [lo], so their shifted lower ends [lo + r.b] only rise:
     one pruned sweep of the store against one forward cursor through
     S.B answers every window of the event (BJ-MJ's merge, applied to
     the scattered remainder).  The cursor caches the leaf [finger] is
     on and reads its keys itself; its closures, made once here, move
     [finger] to the next leaf ([hop]) or seek it from the root
     ([descend]) and reload the cache, and on a hit set [finger]'s slot
     ([sync]) so [emit] walks the rows from it.  [group] is the second
     finger, which each group's STEP 1 seeks to its anchors. *)
  type scan = {
    finger : Tuple.s Bt.finger;
    cursor : Cq_index.Sweep_store.cursor;
    group : Tuple.s Bt.finger;
  }

  let scan_create table =
    let sb = Table.s_by_b table in
    let finger = Bt.finger sb in
    { finger; cursor = Table.cursor_on finger; group = Bt.finger sb }

  (* The cursor starts on S.B's first key, so every window's target is
     at or after it.  Any event may join: a band window reaches rows
     of any B. *)
  let[@cq.hot] scan_begin s (r : Tuple.r) =
    Bt.finger_reset s.finger;
    Bt.finger_reset s.group;
    s.cursor.shift.(0) <- r.b;
    Table.load_cursor s.cursor s.finger;
    true

  (* A hit's rows, from the finger the sweep left on its first one.
     The window end is read as a field of the private record: a call
     to [I.hi] in another module would return a boxed float. *)
  let[@cq.hot] emit s (q : Band_query.t) sink =
    Bt.finger_iter_le s.finger (q.range.I.hi +. s.cursor.shift.(0)) infinity q sink

  let scattered = Processor.Sweep { cursor = (fun s -> s.cursor); emit }

  module Group = struct
    include G

    let process s g ~stab ev ~mark sink = process_group s.group g ~stab ev ~mark sink
    let identify s g ~stab ev ~mark report = Vec.iter report (G.step1 s.group ev g ~stab ~mark)
  end
end

module Core = Processor.Make (Core_query)
module Ssi = Core.Ssi

module Hotspot = struct
  include Core.Hotspot

  let iter_group_stores t f = iter_groups t (fun (g : G.g) -> f g.store)
end

(* --------------------------------------------------------------------- *)
(* BJ-SSI over the dynamically maintained partition (Appendix B)           *)
(* --------------------------------------------------------------------- *)

module P = Hotspot_core.Refined_partition.Make (Band_query.Elem)

module Ssi_dynamic = struct
  type aux = {
    stab : float;
    g : G.g;
  }

  type t = {
    part : P.t;
    (* Per-group sequences, rebuilt lazily after the group changes.
       Updates touch at most one group (Theorem 2), so invalidation is
       surgical; reconstructions retire every group id at once. *)
    cache : (int, aux) Hashtbl.t;
    mutable last_recon : int;
    (* The groups of a partition are disjoint, so the walk needs no
       dedupe; [scan] carries the group finger. *)
    scan : Core_query.scan;
  }

  let name = "BJ-SSI(dyn)"

  let sync t =
    let r = P.reconstructions t.part in
    if r <> t.last_recon then begin
      Hashtbl.reset t.cache;
      t.last_recon <- r
    end

  let create_eps ~epsilon table queries =
    let part = P.create ~epsilon ~seed:0xb57 () in
    Array.iter (fun q -> P.insert part q) queries;
    {
      part;
      cache = Hashtbl.create 64;
      last_recon = P.reconstructions part;
      scan = Core_query.scan_create table;
    }

  let create table queries = create_eps ~epsilon:3.0 table queries

  let aux_of t gid =
    match Hashtbl.find_opt t.cache gid with
    | Some a -> a
    | None ->
        let members = P.group_members t.part gid in
        let g = G.create () in
        List.iter (G.add g) members;
        let isect =
          List.fold_left (fun acc (q : Band_query.t) -> I.inter acc q.range)
            (I.make neg_infinity infinity) members
        in
        let a = { stab = I.hi isect; g } in
        Hashtbl.replace t.cache gid a;
        a

  let mark (_ : Band_query.t) = true

  let process_r t r sink =
    sync t;
    ignore (Core_query.scan_begin t.scan r);
    P.iter_group_sizes t.part (fun gid _size ->
        let a = aux_of t gid in
        Core_query.Group.process t.scan a.g ~stab:a.stab r ~mark sink)

  let affected t r report =
    sync t;
    ignore (Core_query.scan_begin t.scan r);
    P.iter_group_sizes t.part (fun gid _size ->
        let a = aux_of t gid in
        Core_query.Group.identify t.scan a.g ~stab:a.stab r ~mark report)

  let insert_query t q =
    P.insert t.part q;
    sync t;
    (* The element landed in some group; drop that group's cache entry
       (for a fresh singleton there is nothing cached — harmless). *)
    (match P.group_of t.part q with
    | gid -> Hashtbl.remove t.cache gid
    | exception Not_found -> ())

  let delete_query t q =
    match P.group_of t.part q with
    | exception Not_found -> false
    | gid ->
        ignore (P.delete t.part q);
        sync t;
        Hashtbl.remove t.cache gid;
        true

  let query_count t = P.size t.part
  let num_groups t = P.num_groups t.part
  let reconstructions t = P.reconstructions t.part
end

(* --------------------------------------------------------------------- *)
(* Ground truth                                                            *)
(* --------------------------------------------------------------------- *)

let reference table queries (r : Tuple.r) =
  let acc = ref [] in
  Array.iter
    (fun (q : Band_query.t) ->
      Table.iter_s table (fun s ->
          if Band_query.matches q ~r_b:r.b ~s_b:s.b then acc := (q.qid, s.sid) :: !acc))
    queries;
  List.sort Cq_util.Order.int_pair !acc

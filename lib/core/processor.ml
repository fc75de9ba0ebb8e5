module I = Cq_interval.Interval
module Metrics = Cq_obs.Metrics
module Trace = Cq_obs.Trace

(* Keep the library siblings reachable inside [Make], where [Ssi] and
   [Hotspot] name the generated processors. *)
module Ssi0 = Ssi
module Tracker0 = Hotspot_tracker

module Dedupe = struct
  type t = {
    seen : (int, int) Hashtbl.t;
    mutable event : int;
  }

  let create () = { seen = Hashtbl.create 256; event = 0 }

  let fresh d = d.event <- d.event + 1

  let mark d qid =
    match Hashtbl.find_opt d.seen qid with
    | Some ev when ev = d.event -> false
    | _ ->
        Hashtbl.replace d.seen qid d.event;
        true

  let forget d qid = Hashtbl.remove d.seen qid
end

type ('scan, 'q, 'event, 'result) scattered =
  | Stab of {
      point : 'event -> float;
      probe : 'scan -> 'q -> ('q -> 'result -> unit) -> unit;
      hit : 'scan -> 'q -> bool;
    }
  | Sweep of {
      cursor : 'scan -> Cq_index.Sweep_store.cursor;
      emit : 'scan -> 'q -> ('q -> 'result -> unit) -> unit;
    }

module type QUERY = sig
  type t
  type event
  type store
  type result

  val label : string
  val qid : t -> int
  val compare : t -> t -> int
  val interval : t -> I.t
  val scatter_interval : t -> I.t
  type scan

  val scan_create : store -> scan
  val scan_begin : scan -> event -> bool
  val scattered : (scan, t, event, result) scattered

  module Group : sig
    type g

    val create : unit -> g
    val add : g -> t -> unit
    val remove : g -> t -> unit
    val size : g -> int
    val iter : g -> (t -> unit) -> unit
    val check_invariants : g -> unit

    val process :
      scan -> g -> stab:float -> event -> mark:(t -> bool) -> (t -> result -> unit) -> unit

    val identify :
      scan -> g -> stab:float -> event -> mark:(t -> bool) -> (t -> unit) -> unit
  end
end

module type STRATEGY = sig
  type query
  type event
  type store
  type result
  type t

  val name : string
  val create : store -> query array -> t
  val process_r : t -> event -> (query -> result -> unit) -> unit
  val affected : t -> event -> (query -> unit) -> unit
  val insert_query : t -> query -> unit
  val delete_query : t -> query -> bool
  val query_count : t -> int
end

type telemetry = {
  restructures : int;
  groups_split : int;
  groups_merged : int;
  max_group_size : int;
}

let empty_telemetry =
  { restructures = 0; groups_split = 0; groups_merged = 0; max_group_size = 0 }

let add_telemetry a b =
  {
    restructures = a.restructures + b.restructures;
    groups_split = a.groups_split + b.groups_split;
    groups_merged = a.groups_merged + b.groups_merged;
    max_group_size = max a.max_group_size b.max_group_size;
  }

type snapshot = {
  snap_queries : int;
  snap_hotspots : int;
  snap_coverage : float;
  snap_telemetry : telemetry;
}

let empty_snapshot =
  { snap_queries = 0; snap_hotspots = 0; snap_coverage = 0.0; snap_telemetry = empty_telemetry }

(* Coverage is a per-instance fraction, so the merge reweights it by
   query count: the result is again "fraction of all queries covered". *)
let merge_snapshot a b =
  let n = a.snap_queries + b.snap_queries in
  {
    snap_queries = n;
    snap_hotspots = a.snap_hotspots + b.snap_hotspots;
    snap_coverage =
      (if n = 0 then 0.0
       else
         ((a.snap_coverage *. float_of_int a.snap_queries)
         +. (b.snap_coverage *. float_of_int b.snap_queries))
         /. float_of_int n);
    snap_telemetry = add_telemetry a.snap_telemetry b.snap_telemetry;
  }

module type PROCESSOR = sig
  include STRATEGY

  val create_alpha :
    alpha:float -> ?epsilon:float -> ?seed:int -> store -> query array -> t
  val num_hotspots : t -> int
  val coverage : t -> float
  val telemetry : t -> telemetry
  val snapshot : t -> snapshot
  val check_invariants : t -> unit

  val set_shed : t -> (int -> bool) option -> unit

  module Testing : sig
    val plant_in_two_groups : t -> bool
    val plant_in_group_and_scattered : t -> bool
  end
end

module Make (Q : QUERY) = struct
  module B = Cq_index.Stab_backend.Instrumented_interval_tree

  module Elem = struct
    type t = Q.t

    let compare = Q.compare
    let interval = Q.interval
  end

  module Tracker = Tracker0.Make (Elem)

  let dummy_sink : Q.t -> Q.result -> unit = fun _ _ -> ()

  let accept_all : Q.t -> bool = fun _ -> true

  (* Per-event candidate fanout (queries visited by the group walk and
     scattered probes) and the number the shed predicate accepts —
     shared cells for every instance built from this QUERY. *)
  let m_fanout = Metrics.histogram ("proc." ^ Q.label ^ ".fanout")
  let m_accepted = Metrics.histogram ("proc." ^ Q.label ^ ".accepted")

  (* The per-event walk state both processors share: the scan the
     group walks and scattered probes run on, the shed predicate (only
     [Hotspot] installs one), and the preallocated [mark]/[visit]
     closures, parameterised through the [ev]/[sink] cells so a walk
     builds no closure per event.  The groups are pairwise disjoint and
     a group's STEP 1 offers each member at most once, so [mark] needs
     no dedupe: it counts the candidates the walk offers ([cands]) and
     those the shed predicate accepts ([accepted]). *)
  type walker = {
    scan : Q.scan;
    mutable shed : (int -> bool) option;
    mutable ev : Q.event option;
    mutable sink : Q.t -> Q.result -> unit;
    mutable cands : int;
    mutable accepted : int;
    mutable mark : Q.t -> bool;
    mutable visit : stab:float -> Q.Group.g -> unit;
  }

  let[@cq.hot] accept w =
    w.accepted <- w.accepted + 1;
    true

  let create_walker store =
    let w =
      {
        scan = Q.scan_create store;
        shed = None;
        ev = None;
        sink = dummy_sink;
        cands = 0;
        accepted = 0;
        mark = (fun _ -> false);
        visit = (fun ~stab:_ _ -> ());
      }
    in
    w.mark <-
      (fun q ->
        w.cands <- w.cands + 1;
        match w.shed with None -> accept w | Some pred -> pred (Q.qid q) && accept w);
    w.visit <-
      (fun ~stab g ->
        match w.ev with
        | Some ev -> Q.Group.process w.scan g ~stab ev ~mark:w.mark w.sink
        | None -> ());
    w

  (* Whether to walk: the processor holds a query ([held]) and the event can join. *)
  let[@cq.hot] begin_event w ~held ev sink =
    w.cands <- 0;
    w.accepted <- 0;
    w.ev <- Some ev;
    w.sink <- sink;
    held && Q.scan_begin w.scan ev

  let[@cq.hot] end_event w =
    w.ev <- None;
    w.sink <- dummy_sink;
    if Metrics.enabled () then begin
      Metrics.observe m_fanout (float_of_int w.cands);
      Metrics.observe m_accepted (float_of_int w.accepted)
    end

  module Hotspot = struct
    module Store = Cq_index.Sweep_store

    type query = Q.t
    type event = Q.event
    type store = Q.store
    type result = Q.result

    (* The scattered queries' container, with the class's hooks: a
       stabbed class keeps them in the instrumented flat interval tree,
       a swept class in the lo-ordered sweep store.  One substrate per
       role, picked once from [Q.scattered]. *)
    type scattered =
      | Stabbed of {
          tree : Q.t B.t;
          point : Q.event -> float;
          hit : Q.scan -> Q.t -> bool;
        }
      | Swept of {
          store : Q.t Store.t;
          cursor : Q.scan -> Store.cursor;
        }

    let scattered_size = function Stabbed s -> B.size s.tree | Swept s -> Store.size s.store

    let scattered_add sc q =
      match sc with
      | Stabbed s -> B.add s.tree (Q.scatter_interval q) q
      | Swept s -> Store.add s.store (Q.scatter_interval q) q

    let scattered_remove sc q =
      let same p = Q.qid p = Q.qid q in
      match sc with
      | Stabbed s -> B.remove s.tree (Q.scatter_interval q) same
      | Swept s -> Store.remove s.store (Q.scatter_interval q) same

    let scattered_iter sc f =
      match sc with Stabbed s -> B.iter s.tree f | Swept s -> Store.iter s.store f

    let scattered_check = function
      | Stabbed s -> B.check_invariants s.tree
      | Swept s -> Store.check_invariants s.store

    type t = {
      tracker : Tracker.t;
      hot : (int, Q.Group.g) Hashtbl.t;
      scattered : scattered;
      w : walker;
      (* Preallocated walk closures over [w] (set after creation, they
         capture [t]). *)
      mutable c_group : int -> Q.Group.g -> unit;
      mutable c_scat : Q.t -> unit;
    }

    let name = Q.label ^ "-Hotspot"

    (* Hotspot and scattered sets are disjoint, so a scattered
       candidate is offered once.  A stabbed candidate is counted here
       and, under shedding, confirmed with [hit] before the predicate
       is asked; the sweep counts its windows in one step ([walk]) and
       calls back only on hits, so its predicate sees hits alone. *)
    let[@cq.hot] visit_stabbed probe hit w q =
      w.cands <- w.cands + 1;
      match w.shed with
      | None ->
          w.accepted <- w.accepted + 1;
          probe w.scan q w.sink
      | Some pred -> if hit w.scan q && pred (Q.qid q) && accept w then probe w.scan q w.sink

    let[@cq.hot] visit_swept emit w q =
      match w.shed with
      | None -> emit w.scan q w.sink
      | Some pred -> if pred (Q.qid q) && accept w then emit w.scan q w.sink

    let create_alpha ~alpha ?epsilon ?seed store queries =
      let hot = Hashtbl.create 16 in
      let scattered =
        match Q.scattered with
        | Stab { point; hit; _ } -> Stabbed { tree = B.create ~seed:0; point; hit }
        | Sweep { cursor; _ } -> Swept { store = Store.create (); cursor }
      in
      let on_event = function
        | Tracker.Hotspot_created (gid, members) ->
            let g = Q.Group.create () in
            List.iter (Q.Group.add g) members;
            Hashtbl.replace hot gid g
        | Tracker.Hotspot_destroyed (gid, _members) -> Hashtbl.remove hot gid
        | Tracker.Hotspot_added (gid, q) -> Q.Group.add (Hashtbl.find hot gid) q
        | Tracker.Hotspot_removed (gid, q) -> Q.Group.remove (Hashtbl.find hot gid) q
        | Tracker.Scattered_added q -> scattered_add scattered q
        | Tracker.Scattered_removed q -> ignore (scattered_remove scattered q)
      in
      let tracker = Tracker.create ~alpha ?epsilon ?seed ~on_event () in
      Array.iter (fun q -> Tracker.insert tracker q) queries;
      let t =
        {
          tracker;
          hot;
          scattered;
          w = create_walker store;
          c_group = (fun _ _ -> ());
          c_scat = (fun _ -> ());
        }
      in
      t.c_group <- (fun gid g -> t.w.visit ~stab:(Tracker.hotspot_stab t.tracker gid) g);
      (t.c_scat <-
         match Q.scattered with
         | Stab { probe; hit; _ } -> fun q -> visit_stabbed probe hit t.w q
         | Sweep { emit; _ } -> fun q -> visit_swept emit t.w q);
      t

    let create store queries = create_alpha ~alpha:0.001 store queries

    (* The one event body (Section 3.1's two-step walk): every hotspot
       group, then the scattered queries.  A class with a scatter point
       stabs the scattered index there and visits the candidates; a
       band event has no fixed point (its windows shift with r.b), so
       one pruned sweep of the store against the scan's cursor reports
       the windows that hit.  Every scattered window counts as offered,
       as when each was probed, so the fanout and accepted samples keep
       their meaning. *)
    let[@cq.hot] process_r t ev sink =
      let w = t.w in
      if begin_event w ~held:(Tracker.size t.tracker > 0) ev sink then begin
        Hashtbl.iter t.c_group t.hot;
        match t.scattered with
        | Stabbed { tree; point; _ } -> B.stab tree (point ev) t.c_scat
        | Swept { store; cursor } ->
            let n = Store.size store in
            w.cands <- w.cands + n;
            (match w.shed with None -> w.accepted <- w.accepted + n | Some _ -> ());
            Store.sweep store (cursor w.scan) t.c_scat
      end;
      end_event w

    let affected t ev report =
      let scan = t.w.scan in
      if Tracker.size t.tracker > 0 && Q.scan_begin scan ev then begin
        Hashtbl.iter
          (fun gid g ->
            let stab = Tracker.hotspot_stab t.tracker gid in
            Q.Group.identify scan g ~stab ev ~mark:accept_all report)
          t.hot;
        match t.scattered with
        | Stabbed { tree; point; hit } ->
            B.stab tree (point ev) (fun q -> if hit scan q then report q)
        | Swept { store; cursor } -> Store.sweep store (cursor scan) report
      end

    let set_shed t pred = t.w.shed <- pred
    let iter_groups t f = Hashtbl.iter (fun _ g -> f g) t.hot

    let insert_query t q = Tracker.insert t.tracker q
    let delete_query t q = Tracker.delete t.tracker q
    let query_count t = Tracker.size t.tracker
    let num_hotspots t = Tracker.num_hotspots t.tracker
    let coverage t = Tracker.coverage t.tracker

    let telemetry t =
      {
        restructures = Tracker.restructures t.tracker;
        groups_split = Tracker.promotions t.tracker;
        groups_merged = Tracker.demotions t.tracker;
        max_group_size = Tracker.max_group_size t.tracker;
      }

    let snapshot t =
      {
        snap_queries = query_count t;
        snap_hotspots = num_hotspots t;
        snap_coverage = coverage t;
        snap_telemetry = telemetry t;
      }

    (* The aux groups and the scattered index are maintained purely
       from the tracker's event stream; verify they never drift from
       the tracker's own view.  The walk offers each candidate once
       only because every query sits in exactly one place (one aux
       group, or the scattered index), so that is checked member by
       member, not only by counts. *)
    let check_invariants t =
      Tracker.check_invariants t.tracker;
      let fail fmt = Cq_util.Error.corrupt ~structure:name fmt in
      let hotspots = Tracker.hotspots t.tracker in
      if List.length hotspots <> Hashtbl.length t.hot then
        fail "%s: %d aux groups for %d hotspots" name (Hashtbl.length t.hot)
          (List.length hotspots);
      List.iter
        (fun (gid, _, members) ->
          match Hashtbl.find_opt t.hot gid with
          | None -> fail "%s: hotspot %d has no aux group" name gid
          | Some g ->
              Q.Group.check_invariants g;
              if Q.Group.size g <> List.length members then
                fail "%s: hotspot %d aux group holds %d of %d members" name gid
                  (Q.Group.size g) (List.length members))
        hotspots;
      let scattered = Tracker.scattered t.tracker in
      scattered_check t.scattered;
      if scattered_size t.scattered <> List.length scattered then
        fail "%s: scattered index holds %d of %d queries" name (scattered_size t.scattered)
          (List.length scattered);
      (* [home] maps each qid to where the tracker puts it (a gid, or
         -1 for scattered); [seen] to where the aux side was found. *)
      let home = Hashtbl.create 64 and seen = Hashtbl.create 64 in
      List.iter
        (fun (gid, _, members) -> List.iter (fun q -> Hashtbl.replace home (Q.qid q) gid) members)
        hotspots;
      List.iter (fun q -> Hashtbl.replace home (Q.qid q) (-1)) scattered;
      let where gid = if gid < 0 then "the scattered index" else Printf.sprintf "aux group %d" gid in
      let place gid q =
        let qid = Q.qid q in
        (match Hashtbl.find_opt seen qid with
        | Some g -> fail "%s: query %d sits in %s and in %s" name qid (where g) (where gid)
        | None -> Hashtbl.replace seen qid gid);
        match Hashtbl.find_opt home qid with
        | Some g when g = gid -> ()
        | _ -> fail "%s: query %d sits in %s, not where the tracker puts it" name qid (where gid)
      in
      Hashtbl.iter (fun gid g -> Q.Group.iter g (place gid)) t.hot;
      scattered_iter t.scattered (place (-1))

    (* Plant one query in a second place while keeping every count, so
       only the member-by-member check above can see it. *)
    module Testing = struct
      let first iter x =
        let r = ref None in
        iter x (fun q -> if Option.is_none !r then r := Some q);
        !r

      (* The first member of each aux group, with the group. *)
      let firsts t = Hashtbl.fold (fun _ g acc -> (first Q.Group.iter g, g) :: acc) t.hot []

      let plant_in_two_groups t =
        match firsts t with
        | (Some q, _) :: (Some victim, gb) :: _ ->
            Q.Group.remove gb victim;
            Q.Group.add gb q;
            true
        | _ -> false

      let plant_in_group_and_scattered t =
        match (firsts t, first scattered_iter t.scattered) with
        | (Some q, _) :: _, Some victim ->
            ignore (scattered_remove t.scattered victim);
            scattered_add t.scattered q;
            true
        | _ -> false
    end
  end

  module Ssi = struct
    type query = Q.t
    type event = Q.event
    type store = Q.store
    type result = Q.result

    module G = struct
      type elt = Q.t
      type t = Q.Group.g

      let build ~stab:_ members =
        let g = Q.Group.create () in
        Array.iter (Q.Group.add g) members;
        g
    end

    module Index = Ssi0.Make (Elem) (G)

    type t = {
      queries : (int, Q.t) Hashtbl.t;
      mutable index : Index.t;
      mutable dirty : bool;
      w : walker;
    }

    let name = Q.label ^ "-SSI"

    (* The lazy rebuild is the sanctioned slow path: churn-triggered,
       amortised over the batch — [@cq.cold] cuts CQL008 propagation. *)
    let[@cq.cold] rebuild t =
      Trace.with_span ~cat:"ssi" (Q.label ^ ".ssi_rebuild") (fun () ->
          let qs = Hashtbl.fold (fun _ q acc -> q :: acc) t.queries [] in
          t.index <- Index.build (Array.of_list qs);
          t.dirty <- false)

    let refresh t = if t.dirty then rebuild t

    let create store queries =
      let h = Hashtbl.create (max 16 (Array.length queries)) in
      Array.iter (fun q -> Hashtbl.replace h (Q.qid q) q) queries;
      {
        queries = h;
        index = Index.build queries;
        dirty = false;
        w = create_walker store;
      }

    (* The same walk with no scattered remainder: every canonical group
       the event stabs. *)
    let[@cq.hot] process_r t ev sink =
      refresh t;
      if begin_event t.w ~held:(Hashtbl.length t.queries > 0) ev sink then
        Index.iter t.index t.w.visit;
      end_event t.w

    let affected t ev report =
      refresh t;
      let scan = t.w.scan in
      if Hashtbl.length t.queries > 0 && Q.scan_begin scan ev then
        Index.iter t.index (fun ~stab g -> Q.Group.identify scan g ~stab ev ~mark:accept_all report)

    let insert_query t q =
      Hashtbl.replace t.queries (Q.qid q) q;
      t.dirty <- true

    let delete_query t q =
      if Hashtbl.mem t.queries (Q.qid q) then begin
        Hashtbl.remove t.queries (Q.qid q);
        t.dirty <- true;
        true
      end
      else false

    let query_count t = Hashtbl.length t.queries

    let check_invariants t =
      refresh t;
      if Index.size t.index <> Hashtbl.length t.queries then
        Cq_util.Error.corrupt ~structure:name "index holds %d of %d queries"
          (Index.size t.index) (Hashtbl.length t.queries)

    (* Extras used by the adaptive dispatcher. *)
    let num_groups t =
      refresh t;
      Index.num_groups t.index

    let iter_queries t f = Hashtbl.iter (fun _ q -> f q) t.queries
  end
end

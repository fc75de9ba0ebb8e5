(** The unified continuous-query processor core.

    The paper's two applications — band joins (Section 3.1) and
    equality joins with local selections (Section 3.2) — are both
    instances of one scheme: derive an interval per query, maintain a
    stabbing partition (or only its hotspots) over those intervals,
    keep a per-group auxiliary structure, and process each event with
    the two-step group walk.
    [Make] owns everything that scheme shares — the per-event walk, the
    hotspot-tracker subscription, SSI rebuild bookkeeping, query
    insert/delete plumbing, invariant auditing — so each join module
    only supplies its query geometry ({!QUERY}) and the processors fall
    out as thin instantiations.

    The scattered queries live in one container per role, picked once
    from the class's {!QUERY.scattered}.  A class that stabs them keeps
    them in the flat interval tree behind its metrics decorator
    ({!Cq_index.Stab_backend.Instrumented_interval_tree}); the paper
    leaves that index open (interval tree or priority search tree), and
    it is fixed because repeated [ablation-backend] captures showed the
    treap-based priority search tree winning nothing beyond noise.  A
    class that sweeps them (band joins) keeps them in
    {!Cq_index.Sweep_store}, the sorted window list in float columns.

    Per event, the two-step walk costs O(h log m + k) over the hotspot
    groups (h ≤ 2/α of them, Theorems 3 and 4) plus the scattered
    walk; query insert/delete is O(log n) amortised through the
    tracker and partition maintainers.  A select event stabs the
    scattered index at its rangeA point (SJ-SelectFirst) and probes
    each candidate.  A band event sweeps the scattered windows once, in
    (lo, hi) order, against one forward cursor over S.B's leaves:
    O(v + k) for the v ≤ |scattered| windows its block maxima leave,
    plus a short scan or gallop in the cursor's leaf where a window's
    shifted lower end passes the cursor, instead of the paper's
    O(|scattered| log n).  A band group's STEP 1 is one anchored pass
    over the group's own sweep store.

    The walk needs no per-event dedupe: the groups are pairwise
    disjoint and disjoint from the scattered set (the hotspot
    processor's {!PROCESSOR.check_invariants} audits this member by
    member), and a group's STEP 1 offers each member at most once. *)

(** Per-event deduplication of affected queries, for the baselines that
    stab the query index once per opposite-relation tuple, where one
    query really can be found twice in an event. *)
module Dedupe : sig
  type t

  val create : unit -> t
  val fresh : t -> unit
  (** Start a new event epoch. *)

  val mark : t -> int -> bool
  (** [mark d qid] is [true] the first time [qid] is marked in the
      current epoch. *)

  val forget : t -> int -> unit
  (** Drop [qid]'s entry.  Every [delete_query] that owns a table
      calls it, so the table never outgrows the registered queries
      under subscribe/unsubscribe churn. *)
end

(** How a query class finds the results of its scattered queries for
    one event: the two ways Section 3.1's per-query processing of the
    scattered remainder is run here.  Each class implements one of
    them, never the other's hooks. *)
type ('scan, 'q, 'event, 'result) scattered =
  | Stab of {
      point : 'event -> float;
          (** Where the event stabs the scatter axis: the scattered
              index is stabbed there and only the candidates it
              reports are probed (select joins prune on rangeA). *)
      probe : 'scan -> 'q -> ('q -> 'result -> unit) -> unit;
          (** [probe s q sink] calls [sink q res] for every result of
              the candidate [q] on the current event. *)
      hit : 'scan -> 'q -> bool;  (** Whether [probe] would emit a result. *)
    }
  | Sweep of {
      cursor : 'scan -> Cq_index.Sweep_store.cursor;
          (** The scan's cursor over the store (returned, not built),
              loaded by [scan_begin] with the event's shift and the
              store's first leaf, its closures made once with the
              scan. *)
      emit : 'scan -> 'q -> ('q -> 'result -> unit) -> unit;
          (** [emit s q sink] emits the results of a window the sweep
              just reported as a hit, walking from the finger the
              cursor's [sync] left on the window's first key. *)
    }
      (** The event has no fixed point on the scatter axis (band
          windows shift with r.b), so the scattered windows are swept
          once against the store: {!Cq_index.Sweep_store.sweep} scans
          them in order, skips every block whose windows all end
          before the cursor, stops when the cursor runs off the end,
          and calls back only for the windows that reach a store
          key. *)

(** What a join application must provide: its query geometry and its
    per-group structure. *)
module type QUERY = sig
  type t
  (** The query. *)

  type event
  (** An incoming tuple of the driving relation. *)

  type store
  (** The indexed opposite relation the processors probe. *)

  type result
  (** A matched opposite-relation tuple. *)

  val label : string
  (** Short processor-name prefix ("BJ", "SJ"). *)

  val qid : t -> int
  val compare : t -> t -> int

  val interval : t -> Cq_interval.Interval.t
  (** The interval the stabbing partition is computed on. *)

  val scatter_interval : t -> Cq_interval.Interval.t
  (** The interval scattered (non-hotspot) queries are indexed on —
      may differ from {!interval} (SJ scatters on rangeA but
      partitions on rangeC). *)

  type scan
  (** Per-processor state for one event's walk over the store.  It is
      created once with the processor and begun once per event, so
      neither the scattered walk nor a group walk builds a closure.

      Contract: after {!scan_begin}, the scattered queries reach the
      {!scattered} hooks in the scattered container's order
      (ascending [scatter_interval] lower end), possibly a
      sub-sequence of it and, for [Stab], possibly with a query
      offered to [hit] and then to [probe].  The store is not mutated
      between [scan_begin] and the event's last result; the engine's
      non-reentrancy rule guarantees this.  A band join's [Sweep] uses
      both facts to run one forward cursor through S.B for the whole
      event.

      The scan also carries the finger the group walk runs on
      ({!Group.process}, {!Group.identify}): [scan_begin] makes it
      valid for the event, and every group's STEP 1 seeks it to that
      group's anchors.  A select scan finds the event's run of
      S(B,C) by one descent in [scan_begin], and every later seek of
      the event starts from that run. *)

  val scan_create : store -> scan

  val scan_begin : scan -> event -> bool
  (** Start a new event; called before the event's first group walk.
      It returns whether the event can join anything: [false] only
      when no query can have a result for it, as for a select event
      whose R.B no S row holds.  A band event always returns [true].

      The processors ({!Make}'s [Hotspot.process_r]/[affected] and
      [Ssi.process_r]/[affected]) call it only while they hold a
      query, and on [false] skip the group walk and the scattered
      walk.  Such an event offers no candidate: its
      [proc.<label>.fanout] and [proc.<label>.accepted] samples read
      0, and it stabs no scattered index, so
      [stab.interval_tree.stab_ns] is sampled only for events that
      can join. *)

  val scattered : (scan, t, event, result) scattered
  (** Which scattered walk the class uses, with its hooks. *)

  (** The per-group auxiliary structure (sorted sequences for band
      windows, an R-tree for select rectangles) with the group walk of
      Section 3's STEP 1 / STEP 2. *)
  module Group : sig
    type g

    val create : unit -> g
    val add : g -> t -> unit
    val remove : g -> t -> unit
    val size : g -> int

    val iter : g -> (t -> unit) -> unit
    (** Every member, once (for audits). *)

    val check_invariants : g -> unit

    val process :
      scan -> g -> stab:float -> event -> mark:(t -> bool) -> (t -> result -> unit) -> unit
    (** Emit every (member query, result) pair the event produces,
        walking from the scan's group finger.  STEP 1 offers each
        affected member to [mark] exactly once; a member is processed
        only when [mark] accepts it (the shed predicate and the walk's
        counters live there). *)

    val identify :
      scan -> g -> stab:float -> event -> mark:(t -> bool) -> (t -> unit) -> unit
    (** STEP 1 only: report affected members without enumerating
        results. *)
  end
end

(** The contract every event-processing strategy satisfies (the
    per-join [STRATEGY] module types are this signature with the
    four carrier types pinned). *)
module type STRATEGY = sig
  type query
  type event
  type store
  type result
  type t

  val name : string

  val create : store -> query array -> t
  (** The store is shared, not copied: strategies see later updates
      made through the store's own interface. *)

  val process_r : t -> event -> (query -> result -> unit) -> unit

  val affected : t -> event -> (query -> unit) -> unit
  (** Identification only (the paper's STEP 1): report each affected
      query exactly once, without enumerating its result tuples. *)

  val insert_query : t -> query -> unit
  val delete_query : t -> query -> bool
  val query_count : t -> int
end

(** Per-instance structural-reorganisation counters, exposed uniformly
    so the engine can aggregate them into its stats block. *)
type telemetry = {
  restructures : int;
      (** Every structural reorganisation: hotspot promotions +
          demotions + scattered-partition reconstructions. *)
  groups_split : int;  (** Hotspot promotions. *)
  groups_merged : int;  (** Hotspot demotions. *)
  max_group_size : int;  (** High-water mark of hotspot-group cardinality. *)
}

val empty_telemetry : telemetry

val add_telemetry : telemetry -> telemetry -> telemetry
(** Component-wise sum ([max] for {!telemetry.max_group_size}). *)

(** A processor's contribution to cross-shard statistics: a plain
    value, safe to capture on the domain that owns the processor and
    merge on another.  The sharded engine ([Cq_engine.Parallel])
    collects one per shard and folds them with {!merge_snapshot}. *)
type snapshot = {
  snap_queries : int;  (** Registered queries in this instance. *)
  snap_hotspots : int;
  snap_coverage : float;
      (** Fraction of {e this instance's} queries inside hotspots;
          {!merge_snapshot} reweights by query count. *)
  snap_telemetry : telemetry;
}

val empty_snapshot : snapshot

val merge_snapshot : snapshot -> snapshot -> snapshot
(** Sums counts and telemetry; coverage merges as the query-weighted
    mean, so the merged value is again "fraction of all queries inside
    hotspots". *)

(** The hotspot processor produced by {!Make}: a {!STRATEGY} with its
    configuration knobs, the hooks the engine drives (load shedding,
    statistics) and invariant auditing. *)
module type PROCESSOR = sig
  include STRATEGY

  val create_alpha :
    alpha:float -> ?epsilon:float -> ?seed:int -> store -> query array -> t
  (** [alpha] is the hotspot threshold ({!create} uses 0.001),
      [epsilon] the scattered-partition slack, [seed] the tracker's
      treap priorities; fixing [seed] makes a run reproducible bit for
      bit.
      @raise Cq_util.Error.Cq_error on a bad [alpha] or [epsilon]. *)

  val num_hotspots : t -> int

  val coverage : t -> float
  (** Fraction of queries inside hotspots. *)

  val telemetry : t -> telemetry

  val snapshot : t -> snapshot
  (** {!telemetry} plus query/hotspot/coverage counts, packaged for
      cross-shard merging. *)

  val check_invariants : t -> unit
  (** Audits the tracker, every aux group and the scattered index, and
      that each query sits in exactly one of them: the aux group of
      the hotspot the tracker puts it in, or the scattered index.
      @raise Failure on violation. *)

  val set_shed : t -> (int -> bool) option -> unit
  (** Install ([Some]) or clear ([None], the default) a load-shedding
      predicate for degraded (approximate) processing.  During
      {!process_r} the predicate is consulted at most once per (event,
      candidate qid) and {e only} for pairs
      that definitely produce at least one result: group
      identification is anchor-exact, the band sweep reports only the
      windows that hit, and a stabbed candidate is confirmed with its
      [hit] hook before asking.  The consultation set
      is therefore a pure function of the query population and the
      event stream, independent of internal structure (hotspot
      grouping, scatter layout, seeds), which makes drop-side
      accounting shard-count invariant.  A [false] verdict suppresses
      that query's probes for this event.  {!affected}, query
      maintenance, and invariant audits remain exact.  With [None]
      there is no per-candidate overhead. *)

  (** Deliberate corruption, for showing that {!check_invariants}
      catches a query held in two places.  Each hook keeps every count
      (aux group sizes, scattered index size) unchanged and returns
      [false] when the processor lacks what it needs.  {b Test
      harnesses only.} *)
  module Testing : sig
    val plant_in_two_groups : t -> bool
    (** Replace a member of one aux group with a member of another
        (needs two hotspots). *)

    val plant_in_group_and_scattered : t -> bool
    (** Replace a scattered query in the scattered index with an aux
        group member (needs a hotspot and a scattered query). *)
  end
end

module Make (Q : QUERY) : sig
  module Tracker : module type of Hotspot_tracker.Make (struct
    type t = Q.t

    let compare = Q.compare
    let interval = Q.interval
  end)

  (** SSI on the α-hotspots and the {!QUERY.scattered} walk over the
      scattered remainder (a stab of the scattered interval tree, or a
      band event's sweep of the sweep store) — Section 2.2 + the closing remark of
      Section 3.1. *)
  module Hotspot : sig
    include
      PROCESSOR
        with type query = Q.t
         and type event = Q.event
         and type store = Q.store
         and type result = Q.result

    val iter_groups : t -> (Q.Group.g -> unit) -> unit
    (** Every hotspot's aux group once, for audits. *)
  end

  (** SSI over a static canonical partition of the whole query set,
      rebuilt lazily after churn — the paper's plain BJ-SSI / SJ-SSI
      baseline. *)
  module Ssi : sig
    include
      STRATEGY
        with type query = Q.t
         and type event = Q.event
         and type store = Q.store
         and type result = Q.result

    val check_invariants : t -> unit
    (** @raise Failure on violation. *)

    val num_groups : t -> int
    (** τ(I) of the current query set (refreshes the index first). *)

    val iter_queries : t -> (query -> unit) -> unit
  end
end

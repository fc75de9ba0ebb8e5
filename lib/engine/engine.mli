(** A continuous-query engine over the two-relation schema R(A,B),
    S(B,C), tying the whole stack together: hotspot-tracked SSI
    processing for both band joins and equality joins with local
    selections, per-query result callbacks, and full symmetry — both
    R-side and S-side insertions generate results.

    S-side events are processed by the paper's "symmetric" argument
    through mirrored state: the engine keeps R encoded as a second
    S-shaped table (B as the join key, A in the C slot) together with
    mirrored queries (band windows negated, rangeA/rangeC swapped), so
    a new S-tuple is processed by the very same SSI machinery with the
    roles of the relations exchanged.  Internally both directions are
    one code path: a [side] value holds the hotspot processors
    ({!Cq_joins.Band_join.Hotspot}, {!Cq_joins.Select_join.Hotspot})
    that probe the other side's table, and the R and S sides drive it
    with the roles swapped.

    Cost model (Sections 3.1/3.2, Theorems 3 and 4): each insertion
    pays O(log m) to store the tuple in its home table plus the
    processors' identification cost — O(τ log m + k) per event, where
    τ bounds the stabbed groups, m the opposite table size and k the
    affected queries — plus output enumeration.  Query subscription
    and removal are O(log n) amortised in the number of live
    queries. *)

type t

module Config : sig
  (** What the engine does when ingest outruns processing capacity:
      [Block] (the default) applies backpressure and stays exact,
      [Reject] refuses whole batches with {!Cq_util.Error.Overload} so
      the producer can back off, [Shed] admits everything but samples
      (event, query) candidate pairs, degrading answers to
      Horvitz-Thompson estimates with claimed error bounds.  The
      policy forms a lattice of fidelity vs availability — see
      DESIGN.md §12. *)
  type overload = Block | Reject | Shed

  val overload_to_string : overload -> string
  (** ["block" | "reject" | "shed"] — the [cqctl] flag spellings. *)

  type t = {
    alpha : float;
        (** Hotspot threshold passed to the trackers; must lie in
            (0, 1].  Default 0.01. *)
    epsilon : float;
        (** Slack of the (1+ε)-approximate scattered partitions; must
            be positive.  Default 1.0 (the paper's band-join
            experiments use ε = 3). *)
    seed : int;
        (** Seeds the four processors' randomised partitions (each
            gets a distinct derived seed): two engines built with the
            same seed and fed the same event sequence evolve
            identically, bit for bit.  Default [0x40757]. *)
    shards : int;
        (** Worker shards for the {!Parallel} engine; must be >= 1.
            The sequential engine accepts and ignores it (so one
            [Config.t] describes both deployments); {!Parallel} spawns
            [shards] domains when it is > 1 and degrades to an inline
            sequential engine at 1.  Default 1. *)
    batch_size : int;
        (** Rows per work-queue command in {!Parallel.ingest_batch};
            must be >= 1.  Ignored by the sequential engine.
            Default 256. *)
    overload : overload;
        (** Overload policy applied by {!Parallel.try_ingest_batch}.
            The sequential engine ignores [Reject] (it has no queue to
            overflow) but honours [Shed] via [shed_rate].
            Default [Block]. *)
    shed_rate : float;
        (** Bernoulli keep-probability for shed mode; must lie in
            (0, 1].  At 1.0 (the default) no coin is ever flipped and
            processing is exact.  Below 1.0 it acts as a {e forced}
            rate — the deterministic-replay configuration; under
            [Shed] with rate 1.0 the parallel engine instead adapts
            the rate to queue depth. *)
  }

  val default : t

  val validate : t -> (t, Cq_util.Error.t) result
  (** Check every knob against its documented domain.  All [try_create]
      paths — sequential and parallel, record- and per-knob-based —
      funnel through this one validator, so a bad knob always yields
      the same {!Cq_util.Error.Invalid_parameter} payload with [name]
      spelled exactly as the record field ([alpha], [epsilon],
      [shards], [batch_size]). *)
end

type subscription
(** Handle for cancelling a registered continuous query. *)

(** {2 Input validation}

    Every mutating entry point validates its inputs against the shared
    taxonomy in {!Cq_util.Error}: non-finite attribute values are
    rejected before they can break the B-trees' total order, empty
    query windows are rejected at subscription time, and configuration
    knobs are checked against their documented domains.  The
    [try_]-prefixed variants return [result]s; the plain variants raise
    {!Cq_util.Error.Cq_error} (never a bare [Invalid_argument]) on the
    same conditions. *)

val try_create_cfg : Config.t -> (t, Cq_util.Error.t) result
val create_cfg : Config.t -> t

val try_create :
  ?alpha:float ->
  ?epsilon:float ->
  ?seed:int ->
  ?shards:int ->
  ?batch_size:int ->
  ?overload:Config.overload ->
  ?shed_rate:float ->
  unit ->
  (t, Cq_util.Error.t) result
(** Per-knob convenience over {!try_create_cfg}; unspecified knobs
    take their {!Config.default} values.  [shards]/[batch_size] are
    validated (via {!Config.validate}) and otherwise ignored by the
    sequential engine — pass the same knobs to {!Parallel.try_create}
    for the sharded deployment. *)

val create :
  ?alpha:float ->
  ?epsilon:float ->
  ?seed:int ->
  ?shards:int ->
  ?batch_size:int ->
  ?overload:Config.overload ->
  ?shed_rate:float ->
  unit ->
  t

(** {2 Continuous queries} *)

val try_subscribe_band :
  t ->
  ?qid:int ->
  ?on_retract:(Cq_relation.Tuple.r -> Cq_relation.Tuple.s -> unit) ->
  range:Cq_interval.Interval.t ->
  (Cq_relation.Tuple.r -> Cq_relation.Tuple.s -> unit) ->
  (subscription, Cq_util.Error.t) result
(** Register [R ⋈_{S.B−R.B ∈ range} S]; the callback fires once per
    new result pair, for events on either side.  [on_retract] fires
    once per result pair that {e disappears} when a tuple is deleted
    (the paper's "changes between Q(D_i) and Q(D_{i-1})" include
    removals).  An empty [range] is rejected.

    [qid] overrides the engine's sequential numbering — the hook
    {!Parallel} uses to impose one global numbering on every shard, so
    shed-coin outcomes are shard-invariant.  A [qid] already held by a
    live subscription is rejected with {!Cq_util.Error.Duplicate}, a
    negative one with {!Cq_util.Error.Invalid_parameter}.  Callbacks
    sit in an array indexed by qid, so a result finds its callback
    with one load: qids should stay dense, as the engine's own
    numbering and {!Parallel}'s global counter keep them (a qid costs
    a slot for every smaller one). *)

val subscribe_band :
  t ->
  ?qid:int ->
  ?on_retract:(Cq_relation.Tuple.r -> Cq_relation.Tuple.s -> unit) ->
  range:Cq_interval.Interval.t ->
  (Cq_relation.Tuple.r -> Cq_relation.Tuple.s -> unit) ->
  subscription

val try_subscribe_select :
  t ->
  ?qid:int ->
  ?on_retract:(Cq_relation.Tuple.r -> Cq_relation.Tuple.s -> unit) ->
  range_a:Cq_interval.Interval.t ->
  range_c:Cq_interval.Interval.t ->
  (Cq_relation.Tuple.r -> Cq_relation.Tuple.s -> unit) ->
  (subscription, Cq_util.Error.t) result
(** Register [σ_{A∈range_a} R ⋈_{B} σ_{C∈range_c} S].  Empty selection
    ranges are rejected.  [qid] as in {!try_subscribe_band}. *)

val subscribe_select :
  t ->
  ?qid:int ->
  ?on_retract:(Cq_relation.Tuple.r -> Cq_relation.Tuple.s -> unit) ->
  range_a:Cq_interval.Interval.t ->
  range_c:Cq_interval.Interval.t ->
  (Cq_relation.Tuple.r -> Cq_relation.Tuple.s -> unit) ->
  subscription

(** Subscriber callbacks are isolated: an exception raised by one
    callback is logged (source ["cq.engine"]) and does not disturb
    event processing or other subscribers. *)

val unsubscribe : t -> subscription -> bool

val band_query_count : t -> int
val select_query_count : t -> int

(** {2 Data events} *)

val try_insert_r :
  t -> a:float -> b:float -> (Cq_relation.Tuple.r * int, Cq_util.Error.t) result
(** Append an R-tuple: runs all affected continuous queries, invokes
    their callbacks, stores the tuple for future S-side events.
    Returns the tuple and the number of results delivered.  NaN or
    infinite attribute values are rejected before any state changes.

    A single tuple is a batch of one: the row rides in an engine-owned
    one-row {!Cq_relation.Batch} through {!try_ingest_batch_r}, so it
    shares the batch path's validation, event body and results.  The
    same non-reentrancy rule applies: callbacks must not re-enter the
    engine. *)

val insert_r : t -> a:float -> b:float -> Cq_relation.Tuple.r * int

val try_insert_s :
  t -> b:float -> c:float -> (Cq_relation.Tuple.s * int, Cq_util.Error.t) result
(** Symmetric S-side insertion, through {!try_ingest_batch_s}. *)

val insert_s : t -> b:float -> c:float -> Cq_relation.Tuple.s * int

(** {2 Batch ingest}

    The one ingest path: a whole {!Cq_relation.Batch} of rows is
    validated up front, then each row in turn becomes a tuple, runs
    through the side's band and select processors (their group walks
    and one scattered walk each) with preallocated delivery closures,
    and is stored in its home table — no per-event closures and no
    intermediate per-tuple lists.  Results, callback invocations,
    ordinals and shed coins are identical, event for event, to a loop
    of the corresponding [insert_*] calls (which are one-row batches
    themselves).

    {b Non-reentrancy.}  Subscriber callbacks must not re-enter the
    engine (ingest, subscribe, unsubscribe, delete) while a batch is
    in flight: the delivery cells and the processors' scan state
    assume the structures are quiescent until the call returns.
    (Query churn {e between} batches is fine.) *)

val try_ingest_batch_r :
  t -> ?on_event:(int -> unit) -> Cq_relation.Batch.t -> (int, Cq_util.Error.t) result
(** Ingest every row of the batch as an R-tuple ([x = a, y = b]).
    Returns the total number of results delivered.  All rows are
    validated before any is applied.  When the batch is a writable
    root, each row's assigned [rid] is written back into its id slot.
    [on_event i] (default none) fires after row [i] is fully
    processed — the per-event latency hook. *)

val try_ingest_batch_s :
  t -> ?on_event:(int -> unit) -> Cq_relation.Batch.t -> (int, Cq_util.Error.t) result
(** Symmetric S-side batch ingest ([x = b, y = c]). *)

val ingest_batch_r : t -> ?on_event:(int -> unit) -> Cq_relation.Batch.t -> int
val ingest_batch_s : t -> ?on_event:(int -> unit) -> Cq_relation.Batch.t -> int

val validate_batch :
  x_name:string -> y_name:string -> Cq_relation.Batch.t -> (unit, Cq_util.Error.t) result
(** The batch validator behind every ingest path, sequential and
    parallel: [Ok ()] when every row's [x] and [y] are finite, else
    {!Cq_util.Error.Not_finite} for the first bad row, naming [x_name]
    or [y_name] ("a"/"b" for R rows, "b"/"c" for S rows).  The clean
    pass allocates nothing. *)

val delete_r : t -> Cq_relation.Tuple.r -> int option
(** Delete a previously inserted R tuple: every result pair it
    contributed is retracted through the [on_retract] callbacks.
    Returns the number of retractions, or [None] if the tuple was not
    present.

    Shed mode is insert-only (matching the parallel API, which routes
    no deletions): on an engine in shed mode — [Shed] policy, a forced
    [shed_rate], or any past {!set_shed_rate} below 1.0 — deletion
    would retract pairs that were shed at insertion time and never
    delivered, and the degraded-answer accounting cannot soundly
    subtract them, so the call raises {!Cq_util.Error.Cq_error}
    ([Invalid_parameter]) before touching any state.  Use [Block] or
    [Reject] for workloads with deletions. *)

val delete_s : t -> Cq_relation.Tuple.s -> int option
(** Symmetric S-side deletion; same shed-mode restriction as
    {!delete_r}. *)

val try_load_s : t -> (float * float) array -> (unit, Cq_util.Error.t) result
(** Bulk-load initial S contents (no results are generated, matching
    the continuous-query semantics of registering against a database
    state).  All rows are validated before any is applied, so a
    rejected load leaves the engine untouched. *)

val load_s : t -> (float * float) array -> unit

val try_load_r : t -> (float * float) array -> (unit, Cq_util.Error.t) result
val load_r : t -> (float * float) array -> unit

(** {2 Load shedding (degraded answers)}

    Under [Shed] with an effective rate below 1.0, each (event, query)
    candidate pair is kept with probability [rate] by a coin that is a
    pure function of (shed seed, event ordinal, qid) — deterministic
    under replay and invariant across shard counts.  A dropped pair
    skips the query's probes for that event; kept pairs deliver their
    results normally.  Per query the engine maintains a
    Horvitz-Thompson cardinality estimate and a claimed absolute-error
    bound — the max of the exact kept-side error mass and a rigorous
    cap on the dropped mass (each dropped event's results can only
    pair it with the opposite table's current contents, so that table
    size bounds its contribution).

    The estimator runs whenever the engine is {e in shed mode} —
    created under the [Shed] policy or with a forced [shed_rate] —
    not merely while the instantaneous rate is below 1.0: results
    delivered during exact (rate-1.0) phases are candidates kept with
    p = 1, contributing their count to the estimate and zero to the
    error terms, so the claimed bound covers the {e entire} stream
    even when an adaptive controller alternates exact and shedding
    phases.  The differential harness's [Shed_bounds] comparator
    ({!Cq_robust.Oracle.verdict}) fuzz-checks observed error <= claimed
    bound against an exact mirror, at constant forced rates and across
    mixed-rate schedules.

    An engine first handed a sub-unit rate via {!set_shed_rate}
    mid-stream (rather than at creation) enters shed mode only at
    that point: its estimates and bounds cover the results delivered
    {e from engagement onward}, so create the engine in shed mode
    when whole-stream bounds are wanted.  {!check_invariants} is
    never shed; deletions are rejected in shed mode (see
    {!delete_r}). *)

(** One query's degraded-answer report. *)
type degraded = {
  deg_qid : int;
  deg_observed : int;  (** Results actually delivered. *)
  deg_estimate : float;  (** HT estimate of the exact result count. *)
  deg_claimed_error : float;
      (** Claimed bound on [|deg_estimate - exact count|]. *)
  deg_rate : float;  (** Lowest keep-rate this query experienced. *)
}

type shed_totals = { tot_kept : int; tot_dropped : int; tot_min_rate : float }

val shed_info : t -> degraded list
(** Degraded-answer reports for every query ever touched by a
    sub-unit coin (a candidate kept at rate < 1.0 or dropped), sorted
    by qid.  Empty when processing has been exact — in particular for
    a shed-mode engine whose rate never left 1.0.  Each report's
    estimate covers all of that query's results since the engine
    entered shed mode, exact phases included (at p = 1, with zero
    error mass). *)

val shed_totals : t -> shed_totals

val set_shed_rate : t -> float -> unit
(** Set the current keep-probability.  Not validated: callers
    ({!Parallel}'s admission control) pass values in (0, 1].  A value
    below 1.0 puts the engine in shed mode permanently (if it was not
    already); see the section comment above for what that means for
    bound coverage when it happens mid-stream. *)

val set_shed_seed : t -> int -> unit
(** Re-key the shed coin.  {!Parallel} aligns every shard to the
    coordinator's seed so coins agree across shards. *)

(** {2 Introspection} *)

type stats = {
  r_size : int;
  s_size : int;
  events_processed : int;
  results_delivered : int;
  band_hotspots : int;
  band_coverage : float;
  select_hotspots : int;
  select_coverage : float;
  restructures : int;
      (** Structural reorganisations across all four processors:
          hotspot promotions + demotions + scattered-partition
          reconstructions. *)
  groups_split : int;  (** Hotspot promotions. *)
  groups_merged : int;  (** Hotspot demotions. *)
  max_group_size : int;
      (** High-water mark of hotspot-group cardinality across the four
          processors. *)
}

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit

val band_snapshot : t -> Hotspot_core.Processor.snapshot
(** Forward-side band processor snapshot — the cross-shard merge hook:
    {!Parallel} captures one per shard (on the shard's own domain) and
    folds them with {!Hotspot_core.Processor.merge_snapshot} into the
    merged {!stats} block. *)

val select_snapshot : t -> Hotspot_core.Processor.snapshot
(** Forward-side select processor snapshot; same merge contract as
    {!band_snapshot}. *)

val check_invariants : t -> unit
(** Deep audit of the engine's internal consistency: the four hotspot
    trackers' invariants (I1)–(I3), their aux structures' sync with the
    tracker event streams, forward/mirror query-set lockstep, and
    callback-table consistency.  @raise Failure on violation. *)

(** The multicore sharded engine: N independent {!Engine} instances on
    OCaml 5 domains behind bounded SPSC work queues.

    {2 Sharding scheme}

    The hotspot design partitions {e queries}, not data: every stabbing
    group — and a fortiori every query — is an independent unit of
    work, so the parallel engine {b range-partitions the continuous
    queries} across shards (contiguous strips of the partition axis,
    striped round-robin so clustered workloads spread out) and
    {b broadcasts every tuple batch} to all shards.  Each shard owns a
    full {!Engine.t} — its own hotspot trackers, processors, and table
    copies — and processes the whole event stream against its query
    subset; per-event identification cost, the dominant term at scale
    (Theorems 3/4: O(τ log m + k) per event), divides by the shard
    count while the O(log m) home-table store is replicated.

    {2 Determinism}

    Results are delivered through subscriber callbacks {e at flush
    time}, in a total order that is a pure function of the input
    stream and the configuration:

    - each query lives in exactly one shard, so the result {e multiset}
      equals the sequential engine's (no duplication, no omission);
    - each shard's engine is seeded and single-threaded, so its result
      sequence per event is deterministic;
    - each shard appends its results to a run of columns stamped with
      the global event sequence number [seq]; its commands run in FIFO
      order, so the run is already in [(seq, delivery index)] order,
      and the merge walks the runs by ascending [seq], shard by shard,
      in [(seq, shard, index)] order.

    The multiset is the same for every shard count; the order is fixed
    for a given shard count (a query's results interleave with those
    of queries on other shards by shard id).  [cq_robust]'s
    differential harness ({!Cq_robust.Oracle.diff} with the [Par 1]
    and [Par n] drivers) replays seeded workloads through both shard
    counts and asserts the multisets agree; [cqctl fingerprint] hashes
    each shard count's order.

    {2 Elasticity}

    Queries join and leave a running engine through {!subscribe_band} /
    {!subscribe_select} and {!unsubscribe}.  A caller that wants the
    change at a flush barrier calls [ignore (flush t)] first: the join
    or leave point is then a deterministic batch boundary of the event
    stream, and replaying the same call sequence against the same input
    yields the same results, in the same order for a given shard count.
    A query's shard is a fixed function of its strip and the shard
    count: placement never changes after registration, so a
    query lives on one shard for its whole life.  DESIGN.md §15 has the
    protocol and the measurement behind the static placement.

    {2 Fallback and caveats}

    With [shards = 1] no domains are spawned: commands execute inline
    on a sequential {!Engine.t}, through the same command handler a
    shard worker uses, so delivery is buffered exactly as with shards.
    {!flush} walks its one run straight and builds no barrier ack (the
    stats and snapshot block); {!stats}, {!shard_loads}, the shed
    reports and {!check_invariants} still build one.  Deletions and
    retraction callbacks are not yet routed
    through the parallel API (use the sequential engine); observability
    recording from worker domains is best-effort (concurrent counter
    increments may be lost — the switches are off by default).
    Speedup requires real cores: on a single-core host the shards
    time-slice and queue/merge overhead makes [shards > 1] strictly
    slower.  See DESIGN.md §11. *)

type t

(** Which relation a batch of rows belongs to: [R] rows are [(a, b)]
    pairs, [S] rows are [(b, c)] pairs, exactly as in
    {!Engine.try_insert_r} / {!Engine.try_insert_s}. *)
type side = R | S

type subscription
(** A handle naming one live query. *)

val try_create_cfg : Engine.Config.t -> (t, Cq_util.Error.t) result
(** Validates via {!Engine.Config.validate} (so a bad [shards] or
    [batch_size] names that field in the error payload), then spawns
    [cfg.shards - 1 >= 1 ? cfg.shards : 0] worker domains, each owning
    a sequential engine derived from [cfg] with a distinct seed. *)

val try_create :
  ?alpha:float ->
  ?epsilon:float ->
  ?seed:int ->
  ?shards:int ->
  ?batch_size:int ->
  ?overload:Engine.Config.overload ->
  ?shed_rate:float ->
  unit ->
  (t, Cq_util.Error.t) result

val create :
  ?alpha:float ->
  ?epsilon:float ->
  ?seed:int ->
  ?shards:int ->
  ?batch_size:int ->
  ?overload:Engine.Config.overload ->
  ?shed_rate:float ->
  unit ->
  t

val shards : t -> int

(** {2 Continuous queries}

    Callbacks fire during {!flush} (and {!shutdown}), on the
    coordinator's domain, in the deterministic merge order — never
    concurrently.  A raising callback is contained and logged, as in
    the sequential engine.  A callback must not ingest into or flush
    the engine that calls it: the runs it is delivered from are still
    being walked. *)

val try_subscribe_band :
  t ->
  range:Cq_interval.Interval.t ->
  (Cq_relation.Tuple.r -> Cq_relation.Tuple.s -> unit) ->
  (subscription, Cq_util.Error.t) result
(** The query is assigned to the shard owning its band-window strip;
    the subscription is applied at the current stream position (after
    previously ingested batches, before subsequent ones). *)

val subscribe_band :
  t ->
  range:Cq_interval.Interval.t ->
  (Cq_relation.Tuple.r -> Cq_relation.Tuple.s -> unit) ->
  subscription

val try_subscribe_select :
  t ->
  range_a:Cq_interval.Interval.t ->
  range_c:Cq_interval.Interval.t ->
  (Cq_relation.Tuple.r -> Cq_relation.Tuple.s -> unit) ->
  (subscription, Cq_util.Error.t) result
(** Assigned by [range_c] strip (the partition axis of the select
    processors). *)

val subscribe_select :
  t ->
  range_a:Cq_interval.Interval.t ->
  range_c:Cq_interval.Interval.t ->
  (Cq_relation.Tuple.r -> Cq_relation.Tuple.s -> unit) ->
  subscription

val unsubscribe : t -> subscription -> bool
(** Remove a query without a barrier: results already buffered on its
    shard (ingested but not yet flushed) are discarded at the next
    flush's merge: no callback runs for them and no delivery counter
    includes them.  [false] if the subscription was already gone.  For
    a deterministic leave point that delivers everything the query
    produced so far, call [ignore (flush t)] first. *)

(** {2 Batch ingest} *)

val try_ingest_batch_flat :
  t -> side -> Cq_relation.Batch.t -> (unit, Cq_util.Error.t) result
(** The flat-batch ingest path: stamp the batch's rows with
    consecutive global sequence numbers, split the batch into
    [batch_size]-row {e zero-copy slice views}
    ({!Cq_relation.Batch.slice}) and broadcast each view to every
    shard's queue as a single command; shards run it through
    {!Engine.try_ingest_batch_r} / [_s], one command per chunk
    instead of one per event.  Returns once the chunks are {e enqueued}; results surface at the
    next {!flush}.

    Because the queued chunks alias the caller's batch, the root is
    {!Cq_relation.Batch.seal}ed here and unsealed at the next flush
    barrier (including the implicit ones in {!stats}, {!shed_info},
    {!shed_totals}, {!check_invariants} and {!shutdown}) — mutating
    the batch before then raises {!Cq_util.Error.Cq_error}.  A batch the
    caller sealed beforehand stays the caller's to unseal.  Passing a
    view is allowed but the caller must then keep the underlying root
    frozen until the next flush.  Tuple ids are {e not} written back
    (each shard assigns its own id stream); use the sequential
    {!Engine.try_ingest_batch_r} when ids matter.

    Validation and overload behaviour are identical to
    {!try_ingest_batch}. *)

val try_ingest_batch : t -> side -> (float * float) array -> (unit, Cq_util.Error.t) result
(** Row-array convenience wrapper: copies [rows] once into a fresh
    {!Cq_relation.Batch.t} and runs {!try_ingest_batch_flat}.  Rows
    are stamped with consecutive global sequence numbers, split into
    [batch_size]-row commands and broadcast to every shard's queue.
    Returns once the batches are {e enqueued}; results surface at the
    next {!flush}.  All rows are validated before any is enqueued —
    NaN/infinite attributes are rejected with the attribute's name
    ([a]/[b] for [R] rows, [b]/[c] for [S] rows), and a rejected batch
    leaves the engine untouched.

    What happens when a shard queue is full depends on the configured
    {!Engine.Config.overload} policy:

    - [Block] (default): apply backpressure — block until space frees
      up.  Exact results, unbounded producer latency.
    - [Reject]: an admission check runs before anything is published;
      if any shard lacks room for the whole batch the call returns
      [Error (Overload {shard; queue_depth; retry_after_ms})] and no
      row is ingested (all-or-nothing).  A batch that could {e never}
      be admitted — more than [queue_capacity * batch_size] rows, so
      its chunks cannot fit even an idle queue — is instead refused
      with [Error (Invalid_parameter _)] and no retry hint: the
      producer must split it, not back off.
    - [Shed]: never blocks indefinitely.  Each chunk is stamped with a
      keep-rate (the forced [shed_rate] when < 1.0, else adapted to
      the deepest queue) and shards sample (event, query) candidates
      at that rate; a chunk that cannot be enqueued everywhere within
      a short grace window is dropped whole and counted in
      [parallel.overload.dropped_chunks] and {!shed_totals}.  Degraded
      answers carry Horvitz-Thompson estimates and claimed error
      bounds — see {!shed_info}. *)

val ingest_batch : t -> side -> (float * float) array -> unit

val flush : t -> int
(** Barrier: wait until every shard has drained its queue, then walk
    the shards' result runs by ascending [seq], shard by shard, invoke
    the subscriber callbacks and empty the runs.  Returns the number of
    results delivered by this flush, that is the number of callbacks it
    ran.  Worker-side failures (a shard engine raising) are re-raised
    here, on the coordinator. *)

val results_delivered : t -> int
(** Total results delivered across all flushes so far. *)

(** {2 Introspection} *)

val stats : t -> Engine.stats
(** Flushes, then merges the per-shard stats: table sizes and event
    counts are per-shard maxima (each shard sees the whole stream),
    results and restructure counters sum, and hotspot/coverage fields
    fold the shards' {!Hotspot_core.Processor.snapshot}s with
    {!Hotspot_core.Processor.merge_snapshot} (query-weighted
    coverage). *)

val shard_result_counts : t -> int array
(** Results delivered per shard so far — the load-balance signal behind
    the [parallel.shard_imbalance] gauge. *)

(** One shard's load figures, as of the most recent flush barrier.
    The same values are exported through [Cq_obs.Metrics] as
    [parallel.shard<i>.{queries,groups,max_group,delivered}] gauges
    (coordinator-owned cells; recording obeys the global metrics
    switch).  The barrier drains every queue, so a shard's backlog is
    not here: read the [parallel.shard<i>.queue_depth] gauge, set at
    each push. *)
type shard_load = {
  sl_shard : int;
  sl_queries : int;  (** Live queries hosted on the shard. *)
  sl_groups : int;
      (** Stabbing groups (hotspot groups, band + select trackers). *)
  sl_max_group : int;  (** Largest single stabbing group. *)
  sl_delivered : int;  (** Results delivered by the shard so far. *)
}

val shard_loads : t -> shard_load array
(** Flushes (refreshing every figure), then reports one entry per
    shard.  [shards = 1] reports a single synthetic entry.  O(shards)
    beyond the flush. *)

val shed_info : t -> Engine.degraded list
(** Flushes, then returns the degraded-answer reports of every query
    that was ever touched by a sub-unit shed coin, sorted by qid (each
    query lives on one shard, so the per-shard reports are disjoint).
    Empty when processing has been exact.  Deterministic under a
    forced [shed_rate]: identical — including claimed bounds — for
    every shard count.

    The claimed error bounds cover coin drops only.  Whole chunks
    dropped past the shed grace window never reach any shard — no coin
    is flipped for their events, nothing accounts for them — so the
    bounds are valid {b only while} {!shed_totals}[.par_dropped_rows]
    is 0; check it before trusting them
    (the harness's [Shed_bounds] comparator, {!Cq_robust.Oracle.verdict},
    does exactly that). *)

(** Aggregate shedding counters: the shards' coin totals plus the
    coordinator's whole-chunk drops (which no coin ever sees). *)
type shed_totals = {
  par_kept : int;  (** Candidates kept by a sub-unit coin, all shards. *)
  par_dropped : int;  (** Candidates dropped by a coin, all shards. *)
  par_min_rate : float;  (** Minimum keep-rate any shard applied. *)
  par_dropped_chunks : int;
      (** Chunks dropped whole at admission (grace window expired). *)
  par_dropped_rows : int;
      (** Rows in those chunks; nonzero invalidates {!shed_info}'s
          claimed bounds. *)
}

val shed_totals : t -> shed_totals
(** Flushes, then sums kept/dropped candidate counters across shards
    ([par_min_rate] is the minimum rate any shard applied) and adds
    the coordinator-side dropped-chunk counters. *)

val check_invariants : t -> unit
(** Flushes, then runs {!Engine.check_invariants} on every shard (on
    the shard's own domain) plus a coordinator-side check: each shard
    hosts exactly the registered queries whose strips deal to it. *)

val shutdown : t -> unit
(** Flush outstanding batches (delivering their results), stop and
    join the worker domains.  Idempotent; the engine rejects further
    use afterwards.  Stop commands are delivered with a bounded wait
    ({!Bounded_queue.push_timeout}), so a wedged shard with a full
    queue cannot deadlock teardown — its domain is abandoned and the
    leak logged instead. *)

val with_engine : Engine.Config.t -> (t -> 'a) -> 'a
(** [with_engine cfg f] runs [f] on a fresh engine and guarantees
    {!shutdown} on exit, including on exceptions. *)

(** Near-zero-overhead runtime metrics: counters, gauges, and
    log-bucketed histograms behind a single global registry.

    Recording is gated on one global switch, {b off by default}: a
    disabled {!incr} or {!observe} costs one load and one branch, so
    instrumentation lives permanently in the hot paths
    (tracker restructures, per-event fanout, ingest latency) without a
    build-time variant.  Metric {e creation} is independent of the
    switch — instrument at module/processor construction time, record
    only when enabled.

    Naming scheme: dot-separated [subsystem.metric[_unit]] —
    [tracker.promotions], [engine.ingest_ns], [stab.interval_tree.stab_ns].
    Interning the same name twice returns the same cell, so
    instrumentation sites aggregate naturally.

    {b Domains.} Registry operations — interning ({!counter} /
    {!gauge} / {!histogram}), {!reset}, {!snapshot} — are mutex-guarded
    and safe from any domain.  {e Recording} ({!incr}, {!set},
    {!observe}) is deliberately lock-free and therefore best-effort
    under concurrency: concurrent increments to the same cell may be
    lost.  [Cq_engine.Parallel] keeps per-shard metrics on
    coordinator-owned cells for this reason. *)

val set_enabled : bool -> unit
(** Flip the global recording switch (default [false]). *)

val enabled : unit -> bool

(** {2 Metric cells} *)

type counter
(** Monotonically increasing integer. *)

type gauge
(** Last-written float. *)

type histogram
(** Log-bucketed distribution: bucket 0 holds values < 1, bucket
    [i >= 1] holds [\[2^(i-1), 2^i)], the last bucket absorbs the rest
    — 64 buckets cover the full positive float range, so a nanosecond
    latency and a fanout count share the same shape. *)

val counter : string -> counter
(** Create-or-intern by name in the one registry. *)

val gauge : string -> gauge
val histogram : string -> histogram

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val set : gauge -> float -> unit
val gauge_value : gauge -> float

val observe : histogram -> float -> unit
(** Record one sample (negative and NaN samples collapse into bucket
    0).  No-op while disabled, like every recording call. *)

val stamp : unit -> int64
(** The start of a latency measurement: the monotonic clock in
    nanoseconds while recording is enabled, [0L] (no clock read)
    otherwise. *)

val observe_since : histogram -> int64 -> unit
(** [observe_since h t0] records the nanoseconds elapsed since the
    {!stamp} [t0] ([0L] — taken while disabled — records nothing).
    No-op while disabled, so an instrumented body runs
    the same code under either switch state at the cost of one branch
    per call. *)

val hist_count : histogram -> int
val hist_sum : histogram -> float

val percentile : histogram -> float -> float
(** Nearest-rank estimate from the buckets: the containing bucket's
    upper bound clamped into the observed [\[min, max\]], so [p 0] is
    the exact minimum and [p 100] the exact maximum; 0 on an empty
    histogram. *)

(** {2 Bucketing scheme (exposed for tests)} *)

val n_buckets : int

val bucket_of : float -> int

val bucket_bounds : int -> float * float
(** [(lo, hi)] with the bucket holding exactly [lo <= v < hi]; the last
    bucket's [hi] is [infinity]. *)

(** {2 Snapshots} *)

type hist_summary = {
  count : int;
  sum : float;
  min_v : float;
  max_v : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

type snapshot = {
  snap_counters : (string * int) list;
  snap_gauges : (string * float) list;
  snap_histograms : (string * hist_summary) list;
}

val snapshot : unit -> snapshot
(** Name-sorted copy of every registered metric's current value. *)

val reset : unit -> unit
(** Zero every registered value (cells stay interned) — used by the
    bench harness to capture per-experiment deltas. *)

val pp : Format.formatter -> unit -> unit
(** [pp fmt ()] dumps a snapshot of the registry. *)

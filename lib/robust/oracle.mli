(** Differential testing: every structure in the stack runs an
    adversarial {!Fault} stream next to a naive mirror (an O(n) scan
    over a hashtable multiset — too slow to ship, too simple to be
    wrong) and must agree with it on every answer.

    A run stops at the {e first} divergence and reports the seed and
    operation index, so any failure replays exactly:
    [run_index d ~seed ~ops] with the printed seed reproduces it
    bit-for-bit (the op stream, the treap priorities and the driver's
    own choices are all derived from [seed]).  Invariant audits from
    {!Invariant} run at checkpoints throughout and their violations are
    collected alongside. *)

type divergence = { structure : string; seed : int; op_index : int; detail : string }

type outcome = {
  structure : string;
  seed : int;
  ops : int;
  final_size : int;
  violations : Invariant.violation list;
  divergence : divergence option;
}

val passed : outcome -> bool
val pp_outcome : Format.formatter -> outcome -> unit

(** {2 Stabbing-index drivers}

    The four 1-D-stabbing-capable indexes behind one interface; the
    treap driver additionally split/joins at every probe, and the
    R-tree driver embeds intervals as [iv × \[0,1\]] rectangles. *)

module type STAB_INDEX = sig
  type t

  val name : string
  val create : seed:int -> t
  val add : t -> int -> Cq_interval.Interval.t -> unit
  val remove : t -> int -> Cq_interval.Interval.t -> bool
  val stab_ids : t -> float -> int list
  val size : t -> int
  val audit : t -> entries:(int * Cq_interval.Interval.t) list -> Invariant.report
end

module Stab_driver (B : Cq_index.Stab_backend.S) : STAB_INDEX
(** A driver for any structure behind the common
    {!Cq_index.Stab_backend.S} signature — {!Itree_driver} and
    {!Pst_driver} are its instances. *)

module Itree_driver : STAB_INDEX
module Pst_driver : STAB_INDEX
module Rtree_driver : STAB_INDEX
module Treap_driver : STAB_INDEX

val index_drivers : (module STAB_INDEX) list

val run_index : (module STAB_INDEX) -> seed:int -> ops:int -> outcome

(** {2 Other structures} *)

val run_btree : seed:int -> ops:int -> outcome
(** B+-tree keyed on interval left endpoints: [count_range] and
    [neighbours] checked against linear scans of the mirror. *)

val run_tracker : ?alpha:float -> seed:int -> ops:int -> unit -> outcome
(** Hotspot tracker (default [alpha] 0.05 so the hub clusters actually
    promote): membership against the mirror, duplicate inserts must
    raise, (I1)–(I3) audited at checkpoints. *)

val run_lazy_partition : seed:int -> ops:int -> outcome
val run_refined_partition : seed:int -> ops:int -> outcome

val run_engine : seed:int -> ops:int -> unit -> outcome
(** Whole-engine differential run: per-query delivery/retraction
    balances against a brute-force join mirror, must-reject inputs
    (NaN attributes, empty windows) asserted to return [Error],
    callbacks after unsubscribe flagged, engine invariants audited at
    checkpoints. *)

val run_batch : seed:int -> ops:int -> unit -> outcome
(** Staging differential run: one seeded insert-only workload
    (band/select subscriptions plus batched rows) is replayed into two
    identically configured sequential engines — once as n one-row
    batches through {!Cq_engine.Engine.insert_r}/[insert_s] (no
    staging: each event stabs the scattered index directly), once as
    one n-row batch through {!Cq_engine.Engine.ingest_batch_r}/[_s]
    (one staged, batched descent) — and the delivered result
    multisets, keyed by [(query, rid, sid)], must be identical
    (tuple-id assignment included).  A third of the batches are
    followed by a subscription, so batches stage against a query
    population churn has just changed. *)

val run_parallel : ?shards:int -> seed:int -> ops:int -> unit -> outcome
(** Parallel-vs-sequential differential run: one seeded workload
    (band/select subscriptions plus [~ops] rows of batched ingest) is
    replayed verbatim into {!Cq_engine.Parallel} at [shards = 1] and at
    [shards] (default 2), and the delivered result multisets — keyed by
    [(query, rid, sid)] — must be identical, as must the delivery
    counts.  [Parallel.check_invariants] runs on both engines before
    comparison.  Exercises the determinism argument in
    [Parallel]'s docs; deletions are out of scope (the parallel API is
    insert-only for now). *)

val replay_drift :
  Cq_engine.Parallel.t ->
  Fault.drift_op array ->
  (int -> Cq_relation.Tuple.r -> Cq_relation.Tuple.s -> unit) ->
  unit
(** [replay_drift t stream cb] applies a {!Fault.gen_drift} stream to
    [t] through {!Cq_engine.Parallel.register} / [deregister] (which
    drops the oldest live query), [ingest_batch] and [flush], then
    flushes once more.  [cb i] is the result callback of the [i]-th
    registration. *)

val run_drift : ?shards:int -> seed:int -> ops:int -> unit -> outcome
(** Hotspot-drift differential run: replays a {!Fault.gen_drift}
    walking-hotspot stream — online {!Cq_engine.Parallel.register} /
    [deregister] mid-ingest, registration mass Zipf-piled on one home
    shard, the pile walking across strips — into a 1-shard engine and
    an N-shard engine (default 4).  Asserts that the delivered
    [(query, rid, sid)] multiset and delivery counts are bit-for-bit
    independent of the shard count.  Invariants are checked on both
    engines. *)

val run_shed : ?shards:int -> ?rate:float -> seed:int -> ops:int -> unit -> outcome
(** Shed-mode differential check.  A seeded insert-only workload runs
    through a [Shed]-policy parallel engine at the forced keep-rate
    [rate] (default 0.5, [shards] default 1); the exact answer for each
    query is then computed by brute force over the full workload.
    Divergences: a query delivering more results than exist (the
    delivered set must be a subsample), the engine's per-query observed
    counter disagreeing with what the callbacks saw, or a
    Horvitz-Thompson estimate falling outside its own claimed error
    bound.  Queries never touched by a shed coin must be exact.  Both
    the shed decisions and the claimed bounds are pure functions of the
    seed, so the outcome is identical across shard counts. *)

val run_shed_adaptive : seed:int -> ops:int -> unit -> outcome
(** Mixed-rate-schedule differential check through the {e sequential}
    engine in [Shed] mode: the keep-rate moves between 1.0 and forced
    sub-unit values per batch — the shape the parallel adaptive
    controller produces, made deterministic by pinning the schedule to
    the seed.  Asserts the same contract as {!run_shed} (subsample,
    observed-counter agreement, every estimate within its claimed
    bound, untouched queries exact); in particular, results delivered
    during exact phases must fold into the estimates at p = 1, so a
    rate-1.0 phase followed by a shedding one cannot push the exact
    count outside the claimed bound. *)

val run_burst : ?shards:int -> seed:int -> ops:int -> unit -> outcome
(** Replays {!Fault.gen_burst} (quiet trickle alternating with
    64–256-row volleys) through an adaptive [Shed] engine ([shards]
    default 2).  Asserts the liveness contract — every
    [try_ingest_batch] returns [Ok], never blocking, never [Overload] —
    plus the subsample property per query, engine invariants, and that
    the minimum applied keep-rate stays in (0, 1].  The adaptive rates
    themselves are timing-dependent, but on runs where no whole chunk
    was dropped past the grace window
    ({!Cq_engine.Parallel.shed_totals}[.par_dropped_rows] = 0) the
    degraded-answer contract is asserted too: every estimate within
    its claimed bound, every unreported query exact. *)

val run_serve : ?sessions:int -> ?shards:int -> seed:int -> ops:int -> unit -> outcome
(** Served-vs-direct differential check.  One seeded workload
    ({!Cq_net.Driver.gen_workload}) is run through the network
    front-end — a real {!Cq_net.Server} on a loopback socket, one
    client per session, lockstep batch streaming — and replayed
    directly into an identically configured {!Cq_engine.Parallel} with
    session-major registration and one flush per batch.  Every
    session's result stream must match {e bit-for-bit}: same qid
    assignment, same [(r.a, r.b, s.b, s.c)] rows, same order.  The
    lockstep discipline plus the server's read/flush/write tick order
    make the served side deterministic, so equality (not multiset
    equality) is the contract.  [sessions] defaults to 4, [shards] to
    2. *)

val fuzz_all : ?shards:int -> seed:int -> ops:int -> unit -> outcome list
(** The full battery (the engine and parallel runs use [ops/10]
    operations, each one being a full event cascade; [shards] — default
    2 — feeds {!run_parallel}). *)

val audit_workload : seed:int -> n:int -> unit -> (string * Invariant.report) list
(** Build every structure from the same seeded adversarial stream and
    run each deep audit once — no differential mirror, just the
    invariant reports.  Powers [cqctl audit]. *)

(** Differential testing: every structure in the stack runs an
    adversarial {!Fault} stream next to a naive mirror (an O(n) scan
    over a hashtable multiset — too slow to ship, too simple to be
    wrong) and must agree with it on every answer.

    A run stops at the {e first} divergence and reports the seed and
    operation index, so any failure replays exactly:
    [run_index d ~seed ~ops] with the printed seed reproduces it
    bit-for-bit (the op stream, the treap priorities and the driver's
    own choices are all derived from [seed]).  Engine-level runs go
    through the one harness below ({!diff}).  Invariant audits from
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

    The three 1-D-stabbing-capable indexes behind one interface; the
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

module Itree_driver : STAB_INDEX
module Rtree_driver : STAB_INDEX
module Treap_driver : STAB_INDEX

val index_drivers : (module STAB_INDEX) list

val run_index : (module STAB_INDEX) -> seed:int -> ops:int -> outcome

(** {2 Other structures} *)

val run_sweep_store : seed:int -> ops:int -> outcome
(** {!Cq_index.Sweep_store} against a sorted-list mirror: every listing
    in order, and at every probe the windows whose copy shifted a
    quarter step left holds one of a few sorted keys around the probe
    (the cursor sweep over leaves of three keys, in order), and the
    anchored walk for anchors around the probe — finite, a missing
    left or right anchor, or the exact hit — in order. *)

val run_btree : seed:int -> ops:int -> outcome
(** B+-tree keyed on interval left endpoints: [count_range] and
    [neighbours] checked against linear scans of the mirror. *)

val run_tracker : ?alpha:float -> seed:int -> ops:int -> unit -> outcome
(** Hotspot tracker (default [alpha] 0.05 so the hub clusters actually
    promote): membership against the mirror, duplicate inserts must
    raise, (I1)–(I3) audited at checkpoints. *)

val run_lazy_partition : seed:int -> ops:int -> outcome
val run_refined_partition : seed:int -> ops:int -> outcome

(** {2 Engine-level differential harness}

    One harness checks the continuous band and equality joins end to
    end, built from three parts:

    - a {e workload}: a seeded {!Fault.workload}, whose
      {!Fault.step} array every driver replays verbatim (victims of
      [Unsub] and [Del] are resolved by the generator, so all drivers
      remove the same query or tuple);
    - a {e driver}: replays those steps into one engine and records an
      {!output};
    - a {e comparator}: turns two drivers' outputs into an {!outcome}.

    Checks that hold for every driver live in the one replay loop: a
    callback after unsubscribe, an [Error] on a valid batch or
    subscription, an accepted [Bad_row] or [Bad_sub], and a delivered
    count that differs from what the callbacks saw are divergences,
    reported at the step that caused them; invariants are audited every
    [max 50 (steps / 20)] steps and at the end.

    {b Which pairing checks what.}  Every sweep in [test_robust] and
    [test_net] is one {!diff} line:

    - [Seq_rows] vs [Seq_batch], [Same] and [Same_stream], on
      {!Fault.gen_uniform} with churn: batch ≡ per-tuple, as multisets
      and (one session) in global delivery order row by row;
    - [Par 1] vs [Par n], [Same], on {!Fault.gen_uniform} and
      {!Fault.gen_drift}: parallel ≡ sequential, including online
      subscription churn under a walking hotspot;
    - [Reference] vs [Seq_rows], [Same], on {!Fault.gen_engine}: the
      sequential engine against the brute-force mirror, with deletions,
      retractions and must-reject inputs;
    - [Reference] vs a shedding driver, [Shed_bounds]: [Par n] on
      {!Fault.gen_uniform} at a forced rate and on {!Fault.gen_burst}
      (adaptive), [Seq_rows] on the {!Fault.mixed_rates} schedule;
    - [Served] vs [Par n], [Same_stream], on {!Fault.gen_uniform}:
      served ≡ direct.

    The reference stays off the parallel, batch and drift sweeps: over
    those sweeps it takes about as long as the engines themselves
    (14.4 s against 16.4 s on a 2-core host), and pairing two engines
    already pins the contract each sweep is about. *)

type pair = {
  qi : int;  (** Query index: the number of [Sub] steps before its own. *)
  sign : int;  (** [1] for a delivery, [-1] for a retraction. *)
  at : int;  (** Step whose replay produced it; the step count if the final flush did. *)
  r : Cq_relation.Tuple.r;
  s : Cq_relation.Tuple.s;
}

type output = {
  driver : string;
  workload : string;
  seed : int;
  steps : int;  (** Workload length: the op index of end-of-run checks. *)
  sessions : int;  (** 1, or the served driver's session count. *)
  counts : int array;  (** Per query index: deliveries minus retractions. *)
  results : pair list;
      (** Every callback, newest first; the served driver lists its
          sessions' streams one after the other (session 0 last), with
          tuple ids [-1] (they do not cross the wire).  {!diff} keeps
          none for [Shed_bounds], which reads only [counts]. *)
  delivered : int;  (** The engine's own delivered count. *)
  degraded : Cq_engine.Engine.degraded list;  (** Keyed by query index. *)
  min_rate : float;  (** Minimum keep-rate applied; 1.0 when exact. *)
  dropped_rows : int;  (** Rows dropped whole at shed admission. *)
  failure : divergence option;  (** A check of the replay loop that failed. *)
  violations : Invariant.violation list;
}

type driver =
  | Reference
      (** The brute-force mirror: every completed pair credits each
          live matching query, every deletion debits each live query
          once per live matching partner. *)
  | Seq_rows
      (** The sequential engine, each row a one-row batch.  Its audits
          (as [Seq_batch]'s) also hold [|R|] and [|S|] to the live counts. *)
  | Seq_batch
      (** The sequential engine, each [Rows] step one whole batch
          through {!Cq_engine.Engine.try_ingest_batch_r}/[_s]; replays
          no [Del]. *)
  | Par of int
      (** {!Cq_engine.Parallel} at that many shards, under the
          workload's overload policy; its keep-rate is the workload's
          first [Rate].  [Unsub] goes through a flush barrier, so the
          query first receives everything it produced.  Replays no
          [Del]. *)
  | Served of { sessions : int; shards : int }
      (** {!Cq_net.Driver.run_workload}: a real server on loopback,
          one client per session.  Replays [Sub], [Rows] and [Flush]
          only; a [Sub] that follows a batch joins once that batch's
          flush barrier has passed. *)

type comparator =
  | Same
      (** The signed [(qi, rid, sid)] multisets and the delivered
          counts agree; the first difference in sorted order is
          reported. *)
  | Shed_bounds
      (** The first output is exact, the second sheds.  Each query's
          delivered count is at most the exact one, and the minimum
          applied keep-rate lies in (0, 1].  When no row was dropped
          whole, also: each degraded report's observed count equals
          what the callbacks saw, its estimate lies within its claimed
          bound, and every query no sub-unit coin touched is exact. *)
  | Same_stream
      (** The same rows, bit for bit, in the same per-session order.
          Sessions own contiguous blocks of query indices. *)

val replay_par : Cq_engine.Parallel.t -> Fault.workload -> output
(** The [Par] driver's replay into a caller-made engine, which is left
    running (so it can still be inspected, then shut down). *)

(** {2 Delivery fingerprint}

    A record of delivery order that outlives one build: the same
    seeded workload through every driver, each output reduced to its
    result count and a hash of its callbacks in delivery order.  A
    change that keeps every hash keeps every driver's order. *)

val fingerprint : seeds:int list -> output list
(** Per seed, {!Fault.gen_uniform} with churn and 20 batches (band and
    select queries, windows unbounded on one side, queries that join
    between batches) through [Seq_rows], [Seq_batch], [Par 1], [Par 2],
    [Par 3] and [Served {sessions = 2; shards = 1}], in that order.
    The served replays of all seeds run first, while the process has
    no domain, so the server still forks. *)

val stream_hash : output -> string
(** 64-bit FNV-1a over every callback, oldest first: its [qi], [sign],
    [at], tuple ids and the bits of its four attributes, as 16 hex
    digits. *)

val verdict : comparator -> output -> output -> outcome
(** A failure recorded by either replay wins; otherwise the
    comparator's first divergence, with the outputs' seed. *)

val diff : Fault.workload -> driver -> driver -> comparator -> outcome
(** Replay [w] through both drivers, then {!verdict}. *)

val fuzz_all : ?shards:int -> seed:int -> ops:int -> unit -> outcome list
(** The full battery: every structure, then the engine, batch (as
    multisets and in delivery order), parallel (at [shards], default
    2) and mixed-rate shed pairings of {!diff} on
    [max 200 (ops / 10)]-step workloads. *)

val audit_workload : seed:int -> n:int -> unit -> (string * Invariant.report) list
(** Build every structure from the same seeded adversarial stream and
    run each deep audit once — no differential mirror, just the
    invariant reports.  The stream's windows also feed a band hotspot
    processor, and every hot group's member store is audited with
    {!Invariant.sweep_store} ([band_hot_groups]).  Powers
    [cqctl audit]. *)

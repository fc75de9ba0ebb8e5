(** The scattered-query stabbing index: the augmented interval tree
    ({!Flat_interval_tree}), the paper's "external interval tree"
    option for "an index on ranges".  Its other named option, the
    priority search tree, was measured against it
    ([ablation-backend], [ablation-stab-index]; EXPERIMENTS.md) and won
    nothing beyond noise, so it was deleted.

    The select processors stab {!Instrumented_interval_tree} live, once
    per event at r.a (SJ-SelectFirst); the differential oracle and the
    invariant audit drive {!Flat_interval_tree} directly, and
    {!Interval_tree}'s [stab_batch] is timed by the end-to-end
    benchmark's per-layer replay.  Sweeping is not a stabbing
    operation: band windows are swept from their own store
    ({!Sweep_store}). *)

(** A mutable multiset of (interval, payload) entries supporting
    stabbing queries and full iteration. *)
module type S = sig
  type 'a t = 'a Flat_interval_tree.t

  val create : seed:int -> 'a t
  (** The tree is deterministic and ignores [seed]. *)

  val size : 'a t -> int

  val add : 'a t -> Cq_interval.Interval.t -> 'a -> unit
  (** Duplicates (even identical interval + payload) are kept. *)

  val remove : 'a t -> Cq_interval.Interval.t -> ('a -> bool) -> bool
  (** Remove one entry with exactly this interval and a matching
      payload; [false] if absent. *)

  val stab : 'a t -> float -> ('a -> unit) -> unit
  (** Visit the payload of every stored interval containing [x], in
      ascending (lo, hi) order, equal keys in insertion order. *)

  val stab_batch : 'a t -> keys:float array -> f:(idx:int -> 'a -> unit) -> unit
  (** One batched descent: [f ~idx p] for every key index [idx] and
      stored payload [p] whose interval contains [keys.(idx)]; for a
      fixed [idx] in the order [stab t keys.(idx)] reports them. *)

  val iter : 'a t -> ('a -> unit) -> unit
  (** Visit every stored payload exactly once. *)

  val check_invariants : 'a t -> unit
  (** @raise Failure on a broken tree. *)
end

module Interval_tree : S
(** {!Flat_interval_tree} itself: allocation-free stabs and a native
    batched descent. *)

module Instrumented_interval_tree : S
(** The same tree with per-operation monotonic timings recorded into
    the {!Cq_obs.Metrics} registry: [stab.interval_tree.stab_ns],
    [stab.interval_tree.add_ns], [stab.interval_tree.remove_ns], and
    the per-stab result fanout [stab.interval_tree.stab_hits]; the
    other operations, [stab_batch] among them, pass through untimed.
    While metrics are disabled it costs one branch per call.  It is
    the scattered-query index of every {!Hotspot_core.Processor.Make}
    instance whose class stabs it (select joins). *)

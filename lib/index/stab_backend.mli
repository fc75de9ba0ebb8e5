(** The two dynamic 1-D stabbing structures the paper names for the
    scattered-query index — the augmented interval tree and the
    treap-based priority search tree ("an index on ranges, e.g.,
    priority search tree or external interval tree") — behind one
    imperative signature, so the differential oracle and the invariant
    audits drive both through the same code.

    The stabbing processors use only {!Instrumented_interval_tree}:
    repeated [ablation-backend] and [ablation-stab-index] captures
    showed the priority search tree winning nothing beyond noise end
    to end and losing every raw column.  {!Treap} is the adapter for
    its oracle driver.  Sweeping is not a backend operation: band
    windows are swept from their own store ({!Sweep_store}). *)

(** The backend contract: a mutable multiset of (interval, payload)
    entries supporting stabbing queries and full iteration. *)
module type S = sig
  type 'a t

  val name : string
  (** Short stable identifier ("interval_tree", "priority_search_tree"). *)

  val create : seed:int -> 'a t
  (** [seed] feeds any internal randomization (treap priorities);
      deterministic backends ignore it.  Fixing the seed
      makes a run reproducible bit-for-bit. *)

  val size : 'a t -> int

  val add : 'a t -> Cq_interval.Interval.t -> 'a -> unit
  (** Duplicates (even identical interval + payload) are kept.
      @raise Invalid_argument on an empty interval. *)

  val remove : 'a t -> Cq_interval.Interval.t -> ('a -> bool) -> bool
  (** Remove one entry with exactly this interval and a matching
      payload; [false] if absent. *)

  val stab : 'a t -> float -> ('a -> unit) -> unit
  (** Visit the payload of every stored interval containing [x]. *)

  val stab_batch : 'a t -> keys:float array -> f:(idx:int -> 'a -> unit) -> unit
  (** Answer a whole batch of stabbing queries: [f ~idx p] is called
      for every pair of a key index [idx] and a stored payload [p]
      whose interval contains [keys.(idx)].  For a fixed [idx] the
      payloads arrive in exactly the order [stab t keys.(idx)] would
      report them; calls for different keys may interleave.  Backends
      with a batched descent ({!Interval_tree}) answer the whole array
      per index walk; the others fall back to a loop of scalar stabs. *)

  val iter : 'a t -> ('a -> unit) -> unit
  (** Visit every stored payload exactly once. *)

  val check_invariants : 'a t -> unit
  (** The backend's own structural invariants.  @raise Failure. *)
end

module Interval_tree : S
(** Augmented AVL interval tree in the flat arena layout
    ({!Cq_index.Flat_interval_tree}) — allocation-free stabs and a
    native batched descent; deterministic, ignores the seed.  Stabs
    report in ascending (lo, hi) order, equal keys in insertion order. *)

module Treap : S
(** Treap-based priority search tree
    ({!Cq_index.Priority_search_tree.Mutable}). *)

module Instrumented (B : S) : S
(** The same backend with per-operation monotonic timings recorded
    into the {!Cq_obs.Metrics} registry under the backend's name:
    [stab.<name>.stab_ns], [stab.<name>.stab_batch_ns],
    [stab.<name>.add_ns], [stab.<name>.remove_ns], and the per-stab
    result fanout [stab.<name>.stab_hits]; [iter] passes through
    untimed.  While metrics are disabled the wrapper
    costs one branch per call, so instrumented backends can be used
    unconditionally. *)

module Instrumented_interval_tree : S
(** [Instrumented (Interval_tree)]: the scattered-query index of every
    {!Hotspot_core.Processor.Make} instance whose class stabs it
    (select and composite joins).  Band classes sweep their scattered
    windows, which live in a {!Sweep_store} instead. *)

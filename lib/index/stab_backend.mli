(** First-class pluggable stabbing-index backends.

    The two dynamic 1-D stabbing structures in this library — the
    augmented interval tree and the treap-based priority search tree,
    the two options the paper names — are packaged here behind one
    imperative signature, so processors can be functorized over the
    index rather than hard-wiring one.  The paper itself treats the
    choice as open ("an index on ranges, e.g., priority search tree or
    external interval tree"); making it a parameter lets the ablation
    harness and the fuzz oracle drive every candidate through the same
    code. *)

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
    result fanout [stab.<name>.stab_hits].  While metrics are disabled the wrapper
    costs one branch per call, so instrumented backends can be used
    unconditionally. *)

module Instrumented_interval_tree : S
module Instrumented_treap : S
(** Pre-applied {!Instrumented} wrappers — named so functor
    instantiations over them are shared across the codebase instead of
    duplicated at each use site. *)

(** {2 Runtime selection}

    A nominal tag for configuration records and CLI flags; resolve it
    to an implementation with {!backend}. *)

type kind = Itree | Treap_pst

val all : kind list

val to_string : kind -> string
(** ["itree" | "treap"] — the [cqctl] flag spellings. *)

val of_string : string -> (kind, string) result
(** Accepts {!to_string}'s spellings and the long names
    (["interval_tree"], ["pst"], ["priority_search_tree"]). *)

val backend : kind -> (module S)

(** The refined dynamic stabbing-partition algorithm of Appendix B.

    Each group of the last reconstruction lives in a balanced tree
    (treap) ordered by interval left endpoint and augmented with the
    group's common intersection; newly inserted intervals sit as
    singleton groups.  Every insertion or deletion touches at most one
    group (Theorem 2) — the property that makes the scheme suitable for
    real-time SSI maintenance, because per-group auxiliary structures
    rarely need rebuilding.

    After [epsilon * tau0 / (epsilon + 2)] updates a reconstruction
    stage re-derives the optimal greedy partition in O(tau0 log n) by
    splitting and joining the group trees (emulating Lemma 1's greedy
    scan set-by-set instead of interval-by-interval), maintaining
    invariant (⋆): left endpoints never interleave across groups.

    The partition size is at most [(1 + epsilon) * tau(I)] at all
    times; amortised update cost is O((1 + 1/epsilon) log n).
    {!group_members} resolves a gid in O(1) plus the members listed. *)

module Make (E : Partition_intf.ELEMENT) : sig
  include Partition_intf.S with type elt = E.t

  val updates_since_reconstruction : t -> int

  val max_group_size : t -> int
  (** Members in the largest group (0 when empty).  O(1): a census of
      groups per size is kept in step with every update and recounted
      by each reconstruction in O(|P|). *)

  val groups_in_order : t -> (float * elt list) list
  (** Like [groups] but old groups first in invariant-(⋆) order,
      then the post-reconstruction singletons in insertion order. *)
end

(** Deep structural audits for every indexed structure in the stack.

    Each auditor re-derives the structure's advertised invariants from
    first principles — independently of the structure's own
    [check_invariants], which is also run and demoted from an exception
    to a recorded violation — and returns a typed report instead of
    raising.  Audits accumulate {e all} violations they can find, so a
    single corrupted structure produces a complete damage report rather
    than dying on the first inconsistency.

    Cross-checks that would be quadratic (stab counts versus a linear
    scan of every entry) are sampled at a bounded number of probe
    positions, keeping every audit near-linear in the structure size. *)

type violation = { structure : string; check : string; detail : string }
type report = (unit, violation list) result

val pp_violation : Format.formatter -> violation -> unit
val pp_report : Format.formatter -> report -> unit

val merge : report list -> report
(** Concatenate the violations of many reports; [Ok ()] iff all were. *)

(** {2 Per-structure auditors} *)

val interval_tree :
  interval:('a -> Cq_interval.Interval.t) -> 'a Cq_index.Flat_interval_tree.t -> report
(** The tree's own structural check, size/iteration agreement, and
    sampled stab queries versus a naive filter.  [interval] recovers
    each payload's stored interval (the tree iterates payloads only). *)

val rtree : 'a Cq_index.Rtree.t -> report
(** MBR containment down every path plus sampled center-point stabs. *)

val sweep_store : 'a Cq_index.Sweep_store.t -> report
(** The store's own structural check, size/listing agreement, and
    (lo, hi) order of the listing. *)

val engine : Cq_engine.Engine.t -> report
(** Wraps {!Cq_engine.Engine.check_invariants}: the four trackers'
    (I1)–(I3), aux-structure sync, and forward/mirror lockstep. *)

val parallel : Cq_engine.Parallel.t -> report
(** Wraps {!Cq_engine.Parallel.check_invariants}: every shard's engine
    audit plus query placement and delivery-count agreement. *)

val btree : 'a Cq_index.Btree.t -> report
(** Key order, leaf occupancy and size, and sampled [count_range] /
    [seek_ge] / [seek_le] consistency with the listing. *)

module Treap (E : Cq_index.Treap.ELEMENT) (T : module type of Cq_index.Treap.Make (E)) : sig
  val audit : T.t -> report
  (** Heap order on priorities, BST order on elements, and the root
      intersection augmentation recomputed from the member list. *)
end

module Partition
    (E : Hotspot_core.Partition_intf.ELEMENT)
    (P : Hotspot_core.Partition_intf.S with type elt = E.t) : sig
  val audit : ?name:string -> P.t -> report
  (** Every group's members stabbed by its point, group/size accounting,
      and sampled [group_of]/[group_members] round-trips. *)
end

module Tracker
    (E : Hotspot_core.Partition_intf.ELEMENT)
    (T : module type of Hotspot_core.Hotspot_tracker.Make (E)) : sig
  val audit : T.t -> report
  (** Hotspot membership maps, hot/scattered accounting, stabbing of
      every hot member, and the coverage fraction's domain — on top of
      the tracker's own (I1)–(I3) check. *)
end

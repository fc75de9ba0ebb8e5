(** Group processing of continuous band joins — Section 3.1.

    All strategies share one contract: given the current S table and a
    registered set of band-join queries, [process_r] receives an
    incoming R-tuple and reports every (query, S-tuple) pair the tuple
    produces, through a callback.  Worst-case costs per event
    (Theorem 3), with n queries, τ stabbing groups, m = |S|, k output:

    - {!Qouter}   (BJ-QOuter): O(n log m + k)
    - {!Douter}   (BJ-DOuter): O(m log n + k)
    - {!Merge}    (BJ-MJ):     O(m + n + k)
    - {!Ssi}      (BJ-SSI):    O(τ log m + k)
    - {!Ssi_dynamic}: BJ-SSI over a dynamically maintained
      (1+ε)-approximate stabbing partition (Appendix B, the
      configuration measured in Figure 11)
    - {!Hotspot}: BJ-SSI restricted to α-hotspots, with one sweep of
      the scattered remainder against a forward cursor over S.B
      (BJ-MJ's merge applied to the scattered windows) — the SSI +
      hotspot-tracking combination of Section 3.1's closing remark.

    {!Ssi} and {!Hotspot} are instantiations of the shared
    {!Hotspot_core.Processor.Make} core with this module's band-axis
    group walk; the engine runs {!Hotspot}. *)

type sink = Band_query.t -> Cq_relation.Tuple.s -> unit
(** Called once per new result tuple (the R side is the event itself). *)

module type STRATEGY =
  Hotspot_core.Processor.STRATEGY
    with type query := Band_query.t
     and type event := Cq_relation.Tuple.r
     and type store := Cq_relation.Table.s_table
     and type result := Cq_relation.Tuple.s

module Qouter : STRATEGY
module Douter : STRATEGY
module Merge : STRATEGY

module Ssi : sig
  include STRATEGY

  val check_invariants : t -> unit
  val num_groups : t -> int
  (** τ(I) of the current query set. *)
end

module Ssi_dynamic : sig
  include STRATEGY

  val create_eps : epsilon:float -> Cq_relation.Table.s_table -> Band_query.t array -> t
  (** Like [create] but choosing the partition slack (the paper uses
      ε = 3 in the Figure 11 maintenance experiment, the default). *)

  val num_groups : t -> int
  val reconstructions : t -> int
end

module Hotspot : sig
  include
    Hotspot_core.Processor.PROCESSOR
      with type query = Band_query.t
       and type event = Cq_relation.Tuple.r
       and type store = Cq_relation.Table.s_table
       and type result = Cq_relation.Tuple.s

  val iter_group_stores : t -> (Band_query.t Cq_index.Sweep_store.t -> unit) -> unit
  (** The sweep store of every hotspot group once, for audits. *)
end

val reference : Cq_relation.Table.s_table -> Band_query.t array -> Cq_relation.Tuple.r ->
  (int * int) list
(** Brute-force ground truth: sorted [(qid, sid)] result pairs for one
    event — the oracle the test suite holds every strategy to. *)

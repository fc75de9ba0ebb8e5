(** Group processing of continuous equality joins with local
    selections — Section 3.2.

    Worst-case costs per incoming R-tuple (Theorem 4), with n queries,
    τ stabbing groups on the rangeC projections, m = |S|, m' joining
    S-tuples, n' queries whose R.A selection the event satisfies,
    g(n) the cost of a 2-D stabbing query, k output:

    - {!Naive}:        O(log m + n log m' + k) — join, then test every query
    - {!Join_first}    (SJ-J): O(log m + m'·g(n) + k)
    - {!Select_first}  (SJ-S): O(log n + n' log m + k)
    - {!Ssi}           (SJ-SSI): O(τ (log m + g(n)) + k)
    - {!Hotspot}: SJ-SSI on α-hotspots + SJ-SelectFirst on scattered
      queries — Figure 9's HOTSPOT-BASED configuration (its
      TRADITIONAL opponent is {!Select_first}).

    {!Ssi} and {!Hotspot} are instantiations of the shared
    {!Hotspot_core.Processor.Make} core with this module's R-tree
    group probe; the engine runs {!Hotspot}. *)

type sink = Select_query.t -> Cq_relation.Tuple.s -> unit

module type STRATEGY =
  Hotspot_core.Processor.STRATEGY
    with type query := Select_query.t
     and type event := Cq_relation.Tuple.r
     and type store := Cq_relation.Table.s_table
     and type result := Cq_relation.Tuple.s

module Naive : STRATEGY
module Join_first : STRATEGY
module Select_first : STRATEGY

module Ssi : sig
  include STRATEGY

  val num_groups : t -> int
  (** τ(I) of the current query set. *)
end

module Hotspot :
  Hotspot_core.Processor.PROCESSOR
    with type query = Select_query.t
     and type event = Cq_relation.Tuple.r
     and type store = Cq_relation.Table.s_table
     and type result = Cq_relation.Tuple.s

module Adaptive : sig
  include STRATEGY

  type choice = Use_select_first | Use_ssi

  val choose : t -> Cq_relation.Tuple.r -> choice
  (** The decision the dispatcher would make for this event. *)

  val decisions : t -> int * int
  (** (events routed to SJ-S, events routed to SJ-SSI) so far. *)
end
(** Section 6's cost-based optimization sketch, made concrete: every
    incoming event is routed to SJ-SelectFirst or SJ-SSI by comparing
    the estimated number of satisfied R.A selections n' — read off an
    SSI histogram over the rangeA intervals (Section 3.3's own
    selectivity estimator) — against the stabbing-group count τ, the
    two terms that dominate Theorem 4's bounds.  "Every incoming data
    update event can potentially be processed using a different
    strategy." *)

val reference :
  Cq_relation.Table.s_table -> Select_query.t array -> Cq_relation.Tuple.r ->
  (int * int) list
(** Brute-force ground truth: sorted [(qid, sid)] pairs for one event. *)

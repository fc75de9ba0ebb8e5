(** Processing composite continuous queries (band join + local
    selections) — an implementation of Section 6's first future-work
    direction.

    Composition costs something: once a C-selection filters the
    B-consecutive result run, output-sensitivity of the SSI's STEP 2 is
    lost (a candidate query may scan part of its instantiated window
    without producing anything).  The SSI strategy here therefore
    guarantees only that {e band-unaffected} queries are never touched;
    among band-affected candidates, the R.A selection is tested in O(1)
    and the C selection during the result walk.  This is precisely the
    composition difficulty the paper flags ("it remains a challenging
    problem to develop methods for composing group-processing
    techniques").

    {!Ssi} and {!Hotspot} are instantiations of the shared
    {!Hotspot_core.Processor.Make} core — the hotspot tracker partitions
    the band windows, and scattered queries are indexed (and pruned) by
    their rangeA selections. *)

type sink = Composite_query.t -> Cq_relation.Tuple.s -> unit

module type STRATEGY =
  Hotspot_core.Processor.STRATEGY
    with type query := Composite_query.t
     and type event := Cq_relation.Tuple.r
     and type store := Cq_relation.Table.s_table
     and type result := Cq_relation.Tuple.s

module Naive : STRATEGY
(** Scan every query; O(n (log m + window)). *)

module Afirst : STRATEGY
(** Stab an interval index on the rangeA selections first (the
    SJ-SelectFirst idea transplanted), then probe per query. *)

module Ssi : STRATEGY
(** SSI over the band windows with inline selection filtering. *)

module Hotspot :
  Hotspot_core.Processor.PROCESSOR
    with type query = Composite_query.t
     and type event = Cq_relation.Tuple.r
     and type store = Cq_relation.Table.s_table
     and type result = Cq_relation.Tuple.s
(** SSI on α-hotspots of the band windows; scattered queries sit in a
    stabbing index on their rangeA selections (the {!Afirst} idea), so
    an event only ever touches scattered queries whose A-selection it
    satisfies. *)

val reference :
  Cq_relation.Table.s_table ->
  Composite_query.t array ->
  Cq_relation.Tuple.r ->
  (int * int) list
(** Brute-force oracle: sorted (qid, sid) result pairs for one event. *)

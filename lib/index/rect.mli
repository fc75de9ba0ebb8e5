(** Axis-aligned rectangles in the product space [S.C × R.A].

    A continuous equality-join query with local selections
    [σ_{A∈rangeA} R ⋈ σ_{C∈rangeC} S] is the rectangle
    [rangeC × rangeA] (Section 3.2, Figure 5).  {!Rtree} stores the
    bounds in flat columns and only takes and returns this type at its
    interface. *)

type t = { x : Cq_interval.Interval.t; y : Cq_interval.Interval.t }

val make : x:Cq_interval.Interval.t -> y:Cq_interval.Interval.t -> t

val empty : t
val is_empty : t -> bool

val contains_point : t -> x:float -> y:float -> bool

val intersects : t -> t -> bool

(** Axis-aligned rectangles in the product space [S.C × R.A].

    A continuous equality-join query with local selections
    [σ_{A∈rangeA} R ⋈ σ_{C∈rangeC} S] is the rectangle
    [rangeC × rangeA] (Section 3.2, Figure 5). *)

type t = { x : Cq_interval.Interval.t; y : Cq_interval.Interval.t }

val make : x:Cq_interval.Interval.t -> y:Cq_interval.Interval.t -> t

val empty : t
val is_empty : t -> bool

val contains_point : t -> x:float -> y:float -> bool

val contains : t -> t -> bool
(** [contains outer inner]: is [inner] a subset of [outer]?  An empty
    rectangle is contained in everything. *)

val intersects : t -> t -> bool

val union : t -> t -> t
(** Minimum bounding rectangle of both. *)

val area : t -> float

val enlargement : t -> t -> float
(** [enlargement mbr r]: area growth of [mbr] needed to absorb [r]. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

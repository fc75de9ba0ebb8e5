(** Closed intervals [\[lo, hi\]] over the reals.

    Query ranges in the paper ([rangeA], [rangeB], [rangeC]) are closed
    numeric intervals; a data value [x] {e stabs} an interval iff
    [lo <= x <= hi].  The empty interval is represented explicitly so
    that intersection is total. *)

type t = private { lo : float; hi : float }
(** Invariant: [lo <= hi] for non-empty intervals.  Use {!make}. *)

val make : float -> float -> t
(** [make lo hi] builds [\[lo, hi\]].  @raise Invalid_argument if
    [lo > hi] or either bound is NaN. *)

val of_midpoint : mid:float -> len:float -> t
(** Interval of length [max len 0] centred at [mid]. *)

val point : float -> t
(** Degenerate interval [\[x, x\]]. *)

val empty : t
(** A canonical empty interval; [is_empty empty] holds and it behaves as
    the absorbing element of {!inter}. *)

val is_empty : t -> bool
val lo : t -> float
val hi : t -> float
val length : t -> float
(** 0 for the empty interval. *)

val midpoint : t -> float

val stabs : t -> float -> bool
(** [stabs iv x] is true iff [x] is contained in [iv]. *)

val overlaps : t -> t -> bool
(** Non-empty common intersection (closed semantics: touching endpoints
    overlap). *)

val inter : t -> t -> t
(** Common intersection; {!empty} when disjoint. *)

val hull : t -> t -> t
(** Smallest interval containing both (empty is the identity). *)

val shift : t -> float -> t
(** [shift iv d] translates both endpoints by [d] — the paper's
    [rangeB_i + r.B] instantiation for band joins. *)

val contains : t -> t -> bool
(** [contains outer inner]: is [inner] a subset of [outer]?  The empty
    interval is contained in everything. *)

val compare_lo : t -> t -> int
(** Order by left endpoint, ties by right endpoint — the sort order of
    the canonical greedy algorithm (Lemma 1). *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val random : Cq_util.Rng.t -> lo:float -> hi:float -> t
(** Interval with both endpoints uniform in [\[lo, hi\]], normalised. *)

(** Guttman R-tree (quadratic split) over rectangles.

    Used as the two-dimensional point-stabbing index over query
    rectangles in SJ-JoinFirst, and as the per-group structure of the
    SSI in SJ-SSI and in the engine's select hotspot groups ("each
    group in the SSI is stored as an R-tree", Section 3.2).  Supports
    insertion, deletion with tree condensing and re-insertion, point
    stabbing and window queries.

    {b Layout.}  Each node keeps the bounds of its entries (or of its
    children's MBRs) in four flat [float array] columns, [xlo], [xhi],
    [ylo] and [yhi], of capacity M + 1, next to a payload (or child)
    array and a count.  A node's MBR is stored in its parent's columns.

    {b Cost.}  Insertion descends one root-to-leaf path — O(log n) node
    visits of O(M) unboxed float work each, plus O(M²) per quadratic
    split; deletion searches every node whose MBR contains the
    rectangle, then re-inserts the entries of the nodes it dissolves.
    Neither allocates, except the node a split or a new root creates
    (and the tree's split scratch, once).  {!stab} allocates nothing.
    Queries have no sublinear worst-case guarantee (overlapping
    bounding boxes may force multi-path descent) but are
    output-sensitive on the clustered workloads the SSI feeds them.

    {b Determinism.}  Any sequence of inserts and removes builds the
    same tree as Guttman's algorithm with these tie-breaks: seeds are
    the first pair of greatest waste, PickNext takes the first item of
    greatest preference and swap-removes it, a forced assignment takes
    the remaining items from the last, and ties go to the smaller area,
    then to the smaller group.  A removal swaps the node's last entry
    into the hole, and the entries of dissolved nodes are re-inserted
    one by one, in the order the nodes were dissolved, depth first.
    Every traversal ({!stab}, {!search}, {!iter}) visits entries in node
    order, so the order of its reports is a function of that sequence
    alone. *)

type 'a t

val create : ?max_entries:int -> unit -> 'a t
(** [max_entries] is M (default 8); minimum occupancy is M/2 rounded
    down, at least 2.  @raise Invalid_argument if [max_entries < 4]. *)

val size : 'a t -> int

val insert : 'a t -> Rect.t -> 'a -> unit
(** @raise Invalid_argument on an empty rectangle. *)

val remove : 'a t -> Rect.t -> ('a -> bool) -> bool
(** Delete the first entry (in node order) with exactly this rectangle
    whose payload satisfies the predicate; underfull nodes are
    condensed and their entries re-inserted (Guttman's CondenseTree). *)

val stab : 'a t -> x:float -> y:float -> ('a -> unit) -> unit
(** The payload of every entry whose rectangle contains the point
    (closed on all four sides). *)

val stab_count : 'a t -> x:float -> y:float -> int

val search : 'a t -> Rect.t -> ('a -> unit) -> unit
(** The payload of every entry whose rectangle intersects the window. *)

val iter : 'a t -> (Rect.t -> 'a -> unit) -> unit
(** Every entry with its rectangle, built afresh per entry. *)

val check_invariants : 'a t -> unit
(** Each stored MBR equals the bounds of its child's entries, occupancy
    bounds, uniform leaf depth and the recorded size;
    @raise Cq_util.Error.Cq_error with a [Corrupt] error. *)

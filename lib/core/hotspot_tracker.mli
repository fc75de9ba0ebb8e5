(** Hotspot tracking — Section 2.2, Theorem 1.

    Maintains a partition of the current interval set I into hotspot
    groups [I_H] and a scattered remainder [S] (itself kept as a
    near-optimal stabbing partition [I_S] by {!Refined_partition}),
    preserving the paper's three invariants:

    - (I1) [I_H] contains every α-hotspot, possibly some
      (α/2)-hotspots, and nothing smaller — hence at most 2/α groups;
    - (I2) the overall partition size is at most (1+ε)·τ(I) + 2/α;
    - (I3) the amortised number of intervals moving between S and H is
      at most 5 per update (the credit argument of Theorem 1) — checked
      live by {!moves} accounting.

    Consumers that keep auxiliary per-group structures (the SSI band
    join and select-join processors) subscribe via [on_event] and
    receive every membership change.

    An update costs O(log n) amortised (the scattered partition's
    maintainer bound) plus O(1/α) for the hot groups: an insert scans
    the at most 2/α maintained intersections for one that absorbs it,
    and every stabilisation round checks each hot group's size against
    (α/2)·n.  Each hot group caches its size, and the scattered
    partition keeps its largest group's size, so neither check walks
    members; the scattered groups are scanned only when a promotion is
    due, and that scan is paid for by the ≥ α·n moves it triggers,
    which (I3) bounds at 5 per update.  The same bound caps the
    consumer-visible event rate.  {!visits} counts this work. *)

module Make (E : Partition_intf.ELEMENT) : sig
  type t

  type event =
    | Hotspot_created of int * E.t list
        (** A scattered group reached α·|I| and was promoted; its
            members just left S. *)
    | Hotspot_destroyed of int * E.t list
        (** A hotspot fell below (α/2)·|I|; its members return to S. *)
    | Hotspot_added of int * E.t  (** New interval joined an existing hotspot. *)
    | Hotspot_removed of int * E.t  (** Interval deleted from a hotspot. *)
    | Scattered_added of E.t  (** Interval entered S (fresh insert or demotion). *)
    | Scattered_removed of E.t  (** Interval left S (deletion or promotion). *)

  val try_create :
    ?alpha:float ->
    ?epsilon:float ->
    ?seed:int ->
    ?on_event:(event -> unit) ->
    unit ->
    (t, Cq_util.Error.t) result
  (** [alpha] is the hotspot threshold (default 0.01); [epsilon] the
      scattered-partition slack (default 1.0).  [Error] unless
      [0 < alpha <= 1] and [epsilon > 0]. *)

  val create :
    ?alpha:float ->
    ?epsilon:float ->
    ?seed:int ->
    ?on_event:(event -> unit) ->
    unit ->
    t
  (** Like {!try_create}.
      @raise Cq_util.Error.Cq_error on a bad [alpha] or [epsilon]. *)

  val size : t -> int
  val insert : t -> E.t -> unit
  (** @raise Invalid_argument if already present. *)

  val delete : t -> E.t -> bool
  val mem : t -> E.t -> bool

  val num_hotspots : t -> int
  val hotspots : t -> (int * float * E.t list) list
  (** [(gid, stabbing point, members)] per hotspot group. *)

  val hotspot_of : t -> E.t -> int option
  (** Hotspot gid holding the element, if it is a hotspot interval. *)

  val hotspot_stab : t -> int -> float
  (** Stabbing point of hotspot [gid].  @raise Not_found. *)

  val scattered_count : t -> int
  val scattered : t -> E.t list
  val scattered_groups : t -> int
  (** Current size of the scattered stabbing partition |I_S|. *)

  val coverage : t -> float
  (** Fraction of intervals inside hotspots (0 when empty). *)

  val moves : t -> int
  (** Total intervals moved into or out of S by promotions/demotions
      over the whole history — the quantity bounded by (I3). *)

  val updates : t -> int
  (** Total insert/delete operations processed. *)

  val promotions : t -> int
  (** Scattered groups promoted into hotspots over the history. *)

  val demotions : t -> int
  (** Hotspot groups dissolved back into S over the history. *)

  val restructures : t -> int
  (** Every structural reorganisation performed by this instance:
      promotions + demotions + reconstructions of the scattered
      partition. *)

  val max_group_size : t -> int
  (** High-water mark of hotspot-group cardinality. *)

  val visits : t -> int
  (** Work done by every update so far: one per hot or scattered group
      scanned, one per member a promotion or demotion moves.  Theorem 1
      bounds it by O(1/α + log n) per update, amortised. *)

  val check_invariants : t -> unit
  (** Verify (I1), (I2), (I3) and structural consistency.
      @raise Failure on violation. *)

  (** Deliberate state corruption, for verifying that the invariant
      auditors actually detect broken trackers.  {b Test harnesses
      only} — never call these from application code. *)
  module Testing : sig
    val corrupt_where_hot : t -> bool
    (** Drop one hot member's reverse-lookup entry; [false] when there
        is no hotspot to corrupt. *)

    val corrupt_isect : t -> bool
    (** Widen one hot group's maintained intersection past its members'
        true common intersection. *)

    val corrupt_size : t -> bool
    (** Make one hot group's cached size stale by one; [false] when
        there is no hotspot. *)
  end
end

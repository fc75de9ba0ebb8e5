(** In-memory B+-tree keyed by a pair of floats, with doubly-linked
    leaves.

    This is the ordered index the paper assumes on S: one tree ordered
    by (B, C) serves the band joins' probes on S.B (§3.1) and the
    equality joins' probes on S(B,C) (§3.2), since order on (B, C)
    refines order on B.  Every key is a pair (primary, secondary),
    ordered lexicographically with [Float.compare] on each part, and
    every node holds its keys as two flat float columns, so no search
    boxes a key.  Equal pairs are allowed and kept in insertion order:
    an insert goes after every entry with an equal pair, and
    {!remove_first} deletes the leftmost match.

    A caller that orders by the primary alone passes a secondary of
    [neg_infinity] to a seek (the first entry with primary >= b is the
    first with key >= (b, -∞)) and [infinity] to an upper bound (every
    entry with primary <= b has key <= (b, +∞)); the secondaries
    stored must not be NaN for that to hold.

    It supports logarithmic point lookup, the "find the two adjacent
    entries surrounding a search key" operation at the heart of BJ-SSI
    and SJ-SSI (here {!seek_le} / {!seek_ge} and the fingers), and
    bidirectional leaf scans from any position (here {!cursor}s).  All
    operations are O(log n) plus output size. *)

type 'a t
(** A B+-tree mapping (primary, secondary) keys to values ['a]. *)

val create : ?order:int -> unit -> 'a t
(** [create ~order ()] makes an empty tree.  [order] is the minimum
    occupancy b (nodes hold between b and 2b entries); default 16.
    @raise Invalid_argument if [order < 2]. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val insert : 'a t -> float -> float -> 'a -> unit
(** [insert t k k2 v] adds [v] under the key (k, k2), after every
    entry with an equal key. *)

val remove_first : 'a t -> float -> float -> ('a -> bool) -> bool
(** [remove_first t k k2 pred] deletes the first (leftmost) entry whose
    key equals (k, k2) and whose value satisfies [pred]; returns
    whether an entry was deleted. *)

(** {2 Cursors}

    A cursor designates an entry and can walk the leaf chain in both
    directions.  Cursors are invalidated by updates; the algorithms
    in this repository never mutate during a scan. *)

type 'a cursor

val key : 'a cursor -> float
(** The primary key. *)

val key2 : 'a cursor -> float
(** The secondary key. *)

val value : 'a cursor -> 'a
val next : 'a cursor -> 'a cursor option
val prev : 'a cursor -> 'a cursor option

val seek_ge : 'a t -> float -> float -> 'a cursor option
(** Leftmost entry with key >= the pair. *)

val seek_le : 'a t -> float -> float -> 'a cursor option
(** Rightmost entry with key <= the pair. *)

(** {2 Fingers}

    A finger is a reusable position in one tree, for many seeks
    whose targets mostly rise, such as every scattered band window
    of one event.  It designates an entry, or the end of the tree.
    None of the finger functions allocates a closure or a cursor
    record.

    Any update to the tree ({!insert}, {!remove_first}) invalidates
    every finger on it; {!finger_reset} makes it valid again.  A
    caller that resets once per scan and does not update the tree
    during the scan never sees a stale finger. *)

type 'a finger

val finger : 'a t -> 'a finger
(** A finger on the tree, at its leftmost entry. *)

val finger_reset : 'a finger -> unit
(** Move the finger back to the leftmost entry (O(log n)). *)

val finger_seek : 'a finger -> float -> float -> unit
(** [finger_seek f k k2] moves [f] to the leftmost entry with key
    >= (k, k2), or to the end when there is none: the entry
    {!seek_ge} finds.  The result is correct for any order of
    targets.  When every entry before the finger is < the key and the
    target lies in the finger's leaf or the next one, the seek
    searches from the finger and costs O(log order); any other
    target, including one that goes backwards, re-descends from the
    root. *)

val finger_descend : 'a finger -> float -> float -> unit
(** [finger_descend f k k2] moves [f] where [finger_seek f k k2] does,
    by one descent from the root, whatever [f] designated before: a
    finger stale after an update is valid again.  It is a
    {!finger_reset} and a seek in one descent. *)

val finger_seek_shifted : 'a finger -> float array -> int -> float array -> unit
(** [finger_seek_shifted f col i shift] is
    [finger_seek f (col.(i) +. shift.(0)) neg_infinity], searching
    from the finger or from the root as that seek does, with the
    target taken as (column, slot, shift) so no float is boxed.  The
    secondaries stored must not be NaN. *)

val finger_copy : 'a finger -> from:'a finger -> unit
(** [finger_copy f ~from] moves [f] to the entry [from] designates
    (both fingers on one tree).  [from] does not move, so a caller can
    keep one position, such as the start of an event's run of equal
    primaries, and restart every later seek from it. *)

(** {3 Leaf access}

    A caller that runs its own loop over the keys — a band sweep
    walks S.B from a cache of the finger's leaf, a select STEP 1 reads
    its anchors' C — reads the leaf through these.  The key columns
    are flat float arrays, so the caller's reads box nothing.  The
    arrays are the tree's own: read them, never write them, and drop
    them at the next update. *)

val finger_keys : 'a finger -> float array
(** The primary key column of the finger's leaf; its live slots are
    [\[0, finger_count f)]. *)

val finger_keys2 : 'a finger -> float array
(** The secondary key column of the finger's leaf. *)

val finger_count : 'a finger -> int
(** The number of entries in the finger's leaf ([0] only in an empty
    tree). *)

val finger_index : 'a finger -> int
(** The finger's slot in its leaf; [finger_count f] at the end of the
    tree. *)

val finger_set_index : 'a finger -> int -> unit
(** [finger_set_index f i] moves the finger to slot [i] of its leaf,
    [0 <= i < finger_count f] (or [i = finger_count f] in the last
    leaf, the end of the tree). *)

val finger_next_leaf : 'a finger -> bool
(** Move the finger to the first slot of the next leaf and return
    [true], or return [false] and leave it where it is in the last
    leaf. *)

val finger_back_keys : 'a finger -> float array
(** The primary key column holding the entry just before the finger:
    the finger's leaf, or the leaf before it when the finger is on its
    leaf's first slot. *)

val finger_back_keys2 : 'a finger -> float array
(** The secondary key column of that same leaf. *)

val finger_back_index : 'a finger -> int
(** That entry's slot in {!finger_back_keys}, or [-1] when the finger
    is at the leftmost entry (or the tree is empty). *)

val finger_iter_le : 'a finger -> float -> float -> 'x -> ('x -> 'a -> unit) -> unit
(** [finger_iter_le f hi hi2 x g] calls [g x v] for each entry from
    the finger on, in order, while its key is <= (hi, hi2).  The
    finger does not move.  After [finger_seek f lo lo2] this visits
    exactly what [iter_range t lo lo2 hi hi2] visits. *)

val finger_iter_back_ge : 'a finger -> float -> float -> 'x -> ('x -> 'a -> unit) -> unit
(** [finger_iter_back_ge f lo lo2 x g] is the mirror of
    {!finger_iter_le}: it calls [g x v] for each entry before the
    finger, in descending order, while its key is >= (lo, lo2).  The
    finger does not move.  After [finger_seek f k k2] this visits
    exactly the entries with (lo, lo2) <= key < (k, k2), from the
    largest down. *)

(** {2 Whole-tree and range walks} *)

val iter : 'a t -> ('a -> unit) -> unit
(** In-order iteration over all values. *)

val iter_range : 'a t -> float -> float -> float -> float -> ('a -> unit) -> unit
(** [iter_range t lo lo2 hi hi2 f] calls [f] on every value whose key
    lies in [\[(lo, lo2), (hi, hi2)\]], in order. *)

val count_range : 'a t -> float -> float -> float -> float -> int
(** The number of entries [iter_range] with the same bounds visits. *)

val to_list : 'a t -> (float * float * 'a) list
(** Every entry as (primary, secondary, value), in order. *)

val of_sorted : ?order:int -> (float * float * 'a) array -> 'a t
(** Bulk-load from an array sorted by key (stable w.r.t. duplicates).
    @raise Invalid_argument if the array is not sorted. *)

val check_invariants : 'a t -> unit
(** Verify structural invariants (uniform depth, occupancy bounds,
    key order, separator consistency, leaf chaining); used by the
    test suite.  @raise Failure on violation. *)

(** The sorted window list a band event sweeps: intervals in (lo, hi)
    order, equal keys in insertion order, stored as chunked float
    columns with a max right endpoint per block of windows.

    It holds every band window the engine walks per event: the
    scattered windows of every band processor (the classes whose
    [Hotspot_core.Processor.QUERY.scattered] is [Sweep]) and the
    members of every band stabbing group ([Cq_joins.Band_join]).  A
    band event has no fixed stabbing point, so it never stabs these
    windows: it reads the scattered ones once, in order, against a
    forward cursor on S.B ({!sweep}), and each group's members in one
    anchored pass ({!walk_anchored}).  Both are linear scans of
    contiguous float columns, skipping every block whose windows all
    end too early, where a pointer-linked tree pays a dependent load
    per node.

    Windows live in chunks of at most 64; an add that finds its chunk
    full splits it in two, and a remove that leaves a chunk under 16
    merges it with a neighbour (or evens the pair out).  Within a chunk,
    [lo] and [hi] are flat float arrays and every block of 8 windows
    has its max [hi]; the chunk keeps the max over its blocks.

    Order is a contract: the windows are always the live entries
    sorted stably by (lo, hi) in insertion order — exactly
    {!Flat_interval_tree.iter}'s sequence for the same adds and for
    removes whose predicate matches one entry (a processor's removes
    match by query id) — and {!sweep}, {!walk_anchored}, {!iter} and
    {!to_list} follow it. *)

type 'a t

val create : unit -> 'a t

val size : 'a t -> int

val add : 'a t -> Cq_interval.Interval.t -> 'a -> unit
(** [add t iv p] puts the window [iv] after every stored window with
    an equal (lo, hi) key.  Duplicates (even identical interval and
    payload) are kept.  Cost: a binary search over the chunk
    directory, O(log (n / 64)), plus O(64) slot moves in one chunk; a
    split also copies the directory, O(n / 64) pointers, once per ~32
    adds to the chunk. *)

val remove : 'a t -> Cq_interval.Interval.t -> ('a -> bool) -> bool
(** [remove t iv pred] deletes the first window, in order, whose key
    equals [iv]'s (lo, hi) and whose payload satisfies [pred]; returns
    whether one was found.  The cost is that of {!add} plus the equal
    keys passed over; a merge copies the directory as a split does.
    The removed payload is released at once. *)

(** {2 The sweep against a sorted key sequence} *)

type cursor = {
  shift : float array;
      (** [\[| shift |\]]: the offset every window is moved by. *)
  mutable keys : float array;
      (** The key array of the leaf the caller's finger is on... *)
  mutable nkeys : int;  (** ...its live slots [\[0, nkeys)]... *)
  mutable idx : int;
      (** ...and the cursor's slot in it: [nkeys] only past the last
          key. *)
  mutable synced : int;
      (** The finger's slot in that leaf: set with [idx] whenever a
          leaf is loaded, so a hit calls [sync] only when the cursor
          has moved within the leaf since. *)
  hop : cursor -> bool;
      (** Load the next leaf at slot 0 and return [true], or return
          [false] in the last leaf. *)
  descend : cursor -> float array -> int -> unit;
      (** [descend c lo i] loads the leaf and slot of the first key at
          or above [lo.(i) +. c.shift.(0)], from the root. *)
  sync : cursor -> unit;
      (** Move the caller's finger to the cursor's slot. *)
}
(** A forward cursor over the caller's sorted sequence of finite keys,
    held as leaves of keys — S.B's B-tree leaves for a band event.  The
    sweep reads the keys straight from [keys] and calls back only to
    leave a leaf ([hop], [descend]) and on a hit ([sync]).  The caller
    owns the leaves and the closures, made once per scan so a sweep
    builds none; they must keep [keys]/[nkeys]/[idx] describing the
    slot they move to, with [synced = idx].  Before each sweep the
    caller sets [shift] and loads its finger's leaf at its first key
    (for S.B: [Cq_relation.Table.cursor_on] makes the cursor, and
    [Table.load_cursor] after a finger reset loads it). *)

val cursor :
  hop:(cursor -> bool) ->
  descend:(cursor -> float array -> int -> unit) ->
  sync:(cursor -> unit) ->
  cursor
(** A cursor with no leaf loaded: a sweep over it reads nothing until
    the caller loads one. *)

val sweep : 'a t -> cursor -> ('a -> unit) -> unit
(** [sweep t c hit] reports, in order, the payload of every stored
    window [\[lo, hi\]] whose shifted copy [\[lo + shift, hi + shift\]]
    (closed) holds a key of the cursor's sequence — a band event's
    scattered windows against S.B.  Windows arrive in ascending [lo],
    so their targets [lo + shift] only rise and the cursor only moves
    forward.  A window that ends below the cursor's key is passed
    over.  One whose target is above the key moves the cursor: to the
    next key when that one reaches the target, else within the leaf
    (at most 8 slots scanned, then a gallop) when the leaf's last key
    does; past the last key, by a [hop] when the next leaf reaches the
    target, else a [descend].  A window hits iff the key the cursor
    lands on is [<= hi + shift]; the sweep then calls [hit], with the
    caller's finger on the window's first key ([sync] first when
    [synced] is not [idx]).  [hit] must not move the cursor, and
    [shift] is read once per sweep.

    A block (or chunk) whose largest [hi] plus [shift] is below the
    cursor's key is skipped whole: its windows start at or after every
    key passed, so none reaches a key.  For the same reason a block
    ends as soon as a move takes the key past its largest [hi] plus
    [shift].  Once the cursor is past the last key the sweep stops: no
    later window can reach a key, not even one that ends at
    [infinity].  Bounds are read from the float columns; only a hit
    reads its payload.  The sweep allocates nothing: a window reaches
    [descend] as (column, slot), never as a boxed float, and
    [Table.cursor_on]'s [descend] passes it on to the B-tree's seek as
    it came. *)

(** {2 The anchored walk} *)

val walk_anchored : 'a t -> float array -> ('a -> unit) -> unit
(** [walk_anchored t anchors take] with [anchors = \[| a1; a2 |\]]
    calls [take], in order, on every window with [lo <= a1] (a prefix
    of the order), then on every later window with [hi >= a2].  The
    two parts are disjoint, so each window is taken at most once.  It
    stops the prefix at the first [lo > a1], skips each block or chunk
    of the rest whose largest [hi] is below [a2], and skips the rest
    whole when [a2] is NaN; a NaN [a1] takes no prefix, and
    [a1 = infinity] takes every window.  This is a band group's
    STEP 1: the members that reach the left anchor, then those that
    reach the right one ({!Cq_joins.Band_join}).  Allocation-free. *)

val iter : 'a t -> ('a -> unit) -> unit
(** Every stored payload once, in order. *)

val to_list : 'a t -> (float * float * 'a) list
(** All entries as (lo, hi, payload), in order — the differential
    testing view. *)

val check_invariants : 'a t -> unit
(** Key order within and across chunks, chunk occupancy (no empty
    chunk; every chunk of a multi-chunk store holds at least 16),
    exact block and chunk maxima, size accounting, and that no slot
    past a chunk's count pins a payload other than the chunk's first.
    @raise Cq_util.Error.Cq_error on violation. *)

(** Deliberate corruption, for showing that {!check_invariants}
    catches it.  {b Test harnesses only.} *)
module Testing : sig
  val lower_block_max : 'a t -> bool
  (** Make the first chunk's first block maximum stale;
      [false] on an empty store. *)
end

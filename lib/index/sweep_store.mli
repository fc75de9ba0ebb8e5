(** The sorted window list a band event sweeps: intervals in (lo, hi)
    order, equal keys in insertion order, stored as chunked float
    columns with a max right endpoint per block of windows.

    This is the scattered-window container of every band processor
    (the classes whose [Hotspot_core.Processor.QUERY.scattered] is
    [Sweep]), and the same sorted list BJ-MJ merges S.B against.  A
    band event has no fixed stabbing point, so it never stabs these
    windows: it reads them once, in order, against a forward finger on
    S.B ({!sweep}).  That read is a linear scan of contiguous float
    columns, skipping every block whose windows all end before the
    finger, where a pointer-linked tree pays a dependent load per node.

    Windows live in chunks of at most 64; an add that finds its chunk
    full splits it in two, and a remove that leaves a chunk under 16
    merges it with a neighbour (or evens the pair out).  Within a chunk,
    [lo] and [hi] are flat float arrays and every block of 8 windows
    has its max [hi]; the chunk keeps the max over its blocks.

    Order is a contract: the windows are always the live entries
    sorted stably by (lo, hi) in insertion order — exactly
    {!Flat_interval_tree.iter}'s sequence for the same adds and for
    removes whose predicate matches one entry (a processor's removes
    match by query id) — and {!sweep}, {!iter} and {!to_list} follow
    it. *)

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

val sweep : 'a t -> cells:float array -> seek:(unit -> unit) -> ('a -> unit) -> unit
(** [sweep t ~cells ~seek hit] reports, in order, the payload of every
    stored window [\[lo, hi\]] whose shifted copy
    [\[lo + shift, hi + shift\]] (closed) holds a key of the caller's
    sorted sequence of finite keys — a band event's scattered windows
    against S.B.  The caller owns a forward finger on that sequence and
    describes it in [cells = [| shift; at; before; key |]]: [at] is the
    key at the finger ([infinity] past the end), [before] the key just
    before it ([neg_infinity] at the start).  Start each sweep with an
    empty (before, at] ([at = neg_infinity], [before = infinity]) so
    the first window seeks.

    [seek ()] must move the finger to the first key [>= cells.(3)] and
    store that key and its predecessor in [cells.(1)] and [cells.(2)].
    The sweep calls it only for a window whose shifted [lo] lies
    outside (before, at]; windows arrive in ascending [lo], so the
    targets only rise and a forward-only finger
    ([Btree.Make.finger_advance]) serves the whole walk.  A window
    hits iff [at <= hi + shift] once the finger is on its [lo], and
    [hit] is called right then, with the finger on the window's first
    key; it must not move the finger or write [cells].

    A block (or chunk) whose largest [hi] plus [shift] is below [at] is
    skipped whole: its windows start at or after the last key sought,
    so none reaches a key.  Once a seek leaves the finger past the last
    key ([at = infinity]) the sweep stops: no later window can reach a
    key, not even one that ends at [infinity].  Bounds are read from
    the float columns; only a hit reads its payload.
    Allocation-free. *)

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

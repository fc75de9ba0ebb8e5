(** Flat (struct-of-arrays) augmented interval tree.

    An AVL tree keyed on (lo, hi) with a max-right-endpoint
    augmentation answering 1-D stabbing queries — the in-memory
    counterpart of the paper's "external interval tree" option — stored
    as an int-indexed arena: node fields live in parallel
    [float array] / [int array] columns, so a node occupies no heap
    object of its own and endpoint floats stay unboxed.  [stab]
    allocates nothing and chases no pointers beyond the payloads it
    reports.  It is every processor's scattered-query index (through
    {!Stab_backend.Instrumented_interval_tree}), the baseline joins'
    per-query stabbing index and the lazy partition's group index.

    Emission order is a contract: duplicates of an equal key coexist
    (inserted right), so the in-order sequence is always the live
    entries sorted stably by (lo, hi) in insertion order, and [stab],
    [stab_batch], [sweep], [first_overlap], [iter] and [to_list] all
    follow it.  Staged-vs-live processor walks and the lazy
    partition's group choice rely on it. *)

type 'a t

val create : unit -> 'a t

val size : 'a t -> int

val is_empty : 'a t -> bool

val add : 'a t -> Cq_interval.Interval.t -> 'a -> unit
(** O(log n) amortised; duplicates (even identical interval + payload)
    are kept.  The only per-entry allocation is the payload box. *)

val remove : 'a t -> Cq_interval.Interval.t -> ('a -> bool) -> bool
(** [remove t iv pred] deletes one entry with exactly interval [iv]
    whose payload satisfies [pred]; returns whether one was found.
    The freed slot is recycled by later [add]s and releases its
    payload reference immediately. *)

val stab : 'a t -> float -> ('a -> unit) -> unit
(** Visit the payload of every stored interval containing [x], in
    ascending (lo, hi) order.  Allocation-free. *)

val stab_count : 'a t -> float -> int

val stab_batch : 'a t -> keys:float array -> f:(idx:int -> 'a -> unit) -> unit
(** [stab_batch t ~keys ~f] answers every stabbing query in [keys]
    with a single tree descent: [f ~idx p] is called for each pair of
    a key index [idx] and a stored payload [p] whose interval contains
    [keys.(idx)].  For any fixed [idx] the payloads arrive in exactly
    the order [stab t keys.(idx)] would produce them; calls for
    different keys may interleave.  [keys] need not be sorted and is
    not modified.  Cost is one sort of the key indices plus a single
    maxhi-pruned traversal — o(k log n + output) shared work instead
    of k independent descents. *)

val sweep : 'a t -> cells:float array -> seek:(unit -> unit) -> ('a -> unit) -> unit
(** [sweep t ~cells ~seek hit] reports, in the in-order sequence, the
    payload of every stored window [\[lo, hi\]] whose shifted copy
    [\[lo + shift, hi + shift\]] (closed) holds a key of the caller's
    sorted key sequence — a band event's scattered windows against
    S.B.  The caller owns a finger on that sequence and describes it in
    [cells = [| shift; at; before; key |]]: [at] is the key at the
    finger ([infinity] past the end), [before] the key just before it
    ([neg_infinity] at the start).  Start each sweep with an empty
    (before, at] ([at = neg_infinity], [before = infinity]) so the
    first window seeks.

    [seek ()] must move the finger to the first key [>= cells.(3)] and
    store that key and its predecessor in [cells.(1)] and [cells.(2)].
    The sweep calls it only for a window whose shifted [lo] lies
    outside (before, at].  Windows arrive in ascending [lo], so the
    targets only rise and a forward finger serves the whole walk.  A window hits iff
    [at <= hi + shift] once the finger is on its [lo], and [hit] is
    called right then, with the finger on the window's first key; it
    must not move the finger or write [cells].

    A subtree whose largest [hi] plus [shift] is below [at] is skipped
    whole: its windows start at or after the last key sought, so none
    reaches a key.  Bounds are read from the arena's float columns;
    only a hit reads its payload.  Allocation-free. *)

val first_overlap : 'a t -> Cq_interval.Interval.t -> 'a option
(** [first_overlap t q] is the payload of the first entry, in the
    in-order sequence, whose interval overlaps [q] (closed endpoints);
    [None] if none does or [q] is empty.  The walk is pruned like
    [stab] and stops at the first hit. *)

val iter : 'a t -> ('a -> unit) -> unit
(** Visit every stored payload once, in ascending (lo, hi) order. *)

val to_list : 'a t -> (float * float * 'a) list
(** All entries as (lo, hi, payload), in ascending (lo, hi) order —
    the differential-testing view. *)

val check_invariants : 'a t -> unit
(** AVL shape, augmentation freshness, key order, size accounting and
    arena integrity (free list and reachable nodes partition the used
    prefix).  @raise Failure on violation. *)

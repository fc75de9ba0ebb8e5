(** Flat (struct-of-arrays) augmented interval tree.

    An AVL tree keyed on (lo, hi) with a max-right-endpoint
    augmentation answering 1-D stabbing queries — the in-memory
    counterpart of the paper's "external interval tree" option — stored
    as an int-indexed arena: node fields live in parallel
    [float array] / [int array] columns, so a node occupies no heap
    object of its own and endpoint floats stay unboxed.  [stab]
    allocates nothing and chases no pointers beyond the payloads it
    reports.  It is the select and composite processors'
    scattered-query index (through
    {!Stab_backend.Instrumented_interval_tree}), the baseline joins'
    per-query stabbing index and the lazy partition's group index.
    Band processors sweep their scattered windows instead, and keep
    them in {!Sweep_store}.

    Emission order is a contract: duplicates of an equal key coexist
    (inserted right), so the in-order sequence is always the live
    entries sorted stably by (lo, hi) in insertion order, and [stab],
    [stab_batch], [first_overlap], [iter] and [to_list] all follow
    it.  The select processors' delivery order and the lazy
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

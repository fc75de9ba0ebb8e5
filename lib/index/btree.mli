(** In-memory B+-tree with doubly-linked leaves.

    This is the ordered index the paper assumes on [S(B)] and on the
    composite key [S(B,C)]: it supports logarithmic point lookup, the
    "find the two adjacent entries surrounding a search key" operation
    at the heart of BJ-SSI and SJ-SSI (here {!seek_le} / {!seek_ge}),
    and bidirectional leaf scans from any position (here {!cursor}s).

    Duplicate keys are allowed; entries with equal keys are adjacent in
    leaf order.  All operations are O(log n) plus output size. *)

module type ORDERED = sig
  type t

  val compare : t -> t -> int

  val compare_at : t array -> int -> t -> int
  (** [compare_at a i k] must equal [compare a.(i) k].  The tree's
      descent searches read keys through this hook so a key module can
      supply a {e monomorphic} array read: for [t = float] the key
      arrays are flat float arrays and a polymorphic [a.(i)] boxes the
      element on every comparison — the dominant allocation of an
      insert-heavy workload.  Non-float keys just use the generic
      default [fun a i k -> compare a.(i) k]. *)

  val lower_bound : t array -> int -> int -> t -> int
  (** [lower_bound a from count k] is the first index [i] in
      [\[from, count)] with [compare_at a i k >= 0], or [count] when
      there is none.  The tree calls it only on a sub-range sorted by
      [compare], and there it must return exactly what this binary
      search returns:
      {[
        let lo = ref from and hi = ref count in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if compare_at a mid k < 0 then lo := mid + 1 else hi := mid
        done;
        !lo
      ]}
      Every node search of a descent and of a finger seek is one call
      to this hook or {!upper_bound}, so a key module runs the whole
      search with its own monomorphic compares instead of the tree
      calling {!compare_at} out of line once per step. *)

  val upper_bound : t array -> int -> int -> t -> int
  (** [upper_bound a from count k] is the first index [i] in
      [\[from, count)] with [compare_at a i k > 0], or [count]: the
      loop of {!lower_bound} with [<= 0] for [< 0]. *)
end

module Make (K : ORDERED) : sig
  type 'a t
  (** A B+-tree mapping keys [K.t] to values ['a]. *)

  val create : ?order:int -> unit -> 'a t
  (** [create ~order ()] makes an empty tree.  [order] is the minimum
      occupancy b (nodes hold between b and 2b entries); default 16.
      @raise Invalid_argument if [order < 2]. *)

  val length : 'a t -> int
  val is_empty : 'a t -> bool

  val insert : 'a t -> K.t -> 'a -> unit

  val remove_first : 'a t -> K.t -> ('a -> bool) -> bool
  (** [remove_first t k pred] deletes the first (leftmost) entry whose
      key equals [k] and whose value satisfies [pred]; returns whether
      an entry was deleted. *)

  val find_all : 'a t -> K.t -> 'a list
  (** All values bound to a key, in leaf order. *)

  val min_entry : 'a t -> (K.t * 'a) option
  val max_entry : 'a t -> (K.t * 'a) option

  (** {2 Cursors}

      A cursor designates an entry and can walk the leaf chain in both
      directions.  Cursors are invalidated by updates; the algorithms
      in this repository never mutate during a scan. *)

  type 'a cursor

  val key : 'a cursor -> K.t
  val value : 'a cursor -> 'a
  val next : 'a cursor -> 'a cursor option
  val prev : 'a cursor -> 'a cursor option

  val seek_ge : 'a t -> K.t -> 'a cursor option
  (** Leftmost entry with key >= the argument. *)

  val seek_le : 'a t -> K.t -> 'a cursor option
  (** Rightmost entry with key <= the argument. *)

  val neighbours : 'a t -> K.t -> (K.t * 'a) option * (K.t * 'a) option
  (** [neighbours t k] = (rightmost entry <= k, leftmost entry >= k) —
      the pair (s1, s2) of the paper's STEP 1.  When an entry equals
      [k] it appears on both sides. *)

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

  val finger_seek : 'a finger -> K.t -> unit
  (** [finger_seek f k] moves [f] to the leftmost entry with key
      >= [k], or to the end when there is none: the entry {!seek_ge}
      finds.  The result is correct for any order of targets.  When
      every entry before the finger is < [k] and the target lies in
      the finger's leaf or the next one, the seek searches from the
      finger and costs O(log order); any other target, including one
      that goes backwards, re-descends from the root. *)

  (** {3 Leaf access}

      A caller that runs its own loop over the keys — a band sweep
      walks S.B's float keys from a cache of the finger's leaf — reads
      the leaf through these.  For a float key ([K.t = float]) the key
      array is a flat float array, so the caller's reads box nothing.
      The arrays are the tree's own: read them, never write them, and
      drop them at the next update. *)

  val finger_keys : 'a finger -> K.t array
  (** The key array of the finger's leaf; its live slots are
      [\[0, finger_count f)]. *)

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

  val finger_back_keys : 'a finger -> K.t array
  (** The key array holding the entry just before the finger: the
      finger's leaf, or the leaf before it when the finger is on its
      leaf's first slot. *)

  val finger_back_index : 'a finger -> int
  (** That entry's slot in {!finger_back_keys}, or [-1] when the finger
      is at the leftmost entry (or the tree is empty). *)

  val finger_key : 'a finger -> default:K.t -> K.t
  (** The key at the finger, or [default] at the end. *)

  val finger_prev_key : 'a finger -> default:K.t -> K.t
  (** The key of the entry just before the finger, or [default] when
      the finger is at the leftmost entry (or the tree is empty). *)

  val finger_iter_le : 'a finger -> K.t -> 'x -> ('x -> 'a -> unit) -> unit
  (** [finger_iter_le f hi x g] calls [g x v] for each entry from the
      finger on, in order, while its key is <= [hi].  The finger does
      not move.  After [finger_seek f lo] this visits exactly what
      [iter_range ~lo ~hi] visits. *)

  val finger_iter_back_ge : 'a finger -> K.t -> 'x -> ('x -> 'a -> unit) -> unit
  (** [finger_iter_back_ge f lo x g] is the mirror of {!finger_iter_le}:
      it calls [g x v] for each entry before the finger, in descending
      order, while its key is >= [lo].  The finger does not move.
      After [finger_seek f k] this visits exactly the entries with
      [lo <= key < k], from the largest down. *)

  val iter : 'a t -> (K.t -> 'a -> unit) -> unit
  (** In-order iteration over all entries. *)

  val iter_range : 'a t -> lo:K.t -> hi:K.t -> (K.t -> 'a -> unit) -> unit
  (** All entries with lo <= key <= hi, in order. *)

  val count_range : 'a t -> lo:K.t -> hi:K.t -> int

  val to_list : 'a t -> (K.t * 'a) list

  val of_sorted : ?order:int -> (K.t * 'a) array -> 'a t
  (** Bulk-load from an array sorted by key (stable w.r.t. duplicates).
      @raise Invalid_argument if the array is not sorted. *)

  val check_invariants : 'a t -> unit
  (** Verify structural invariants (uniform depth, occupancy bounds,
      key order, separator consistency, leaf chaining); used by the
      test suite.  @raise Failure on violation. *)
end

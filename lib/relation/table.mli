(** The database relations, indexed as the paper assumes.

    S(B,C) is one {!Cq_index.Btree} keyed by (B, C): rows with equal B
    sit together in C order, and rows with equal (B, C) in insertion
    order.  Band joins probe it on B alone (a seek passes C = -∞, an
    upper bound C = +∞) and walk B through the leaves' primary
    column; equality joins with local selections seek (b, c) and read
    C from the secondary column.  The engine keeps R in an [s_table]
    too, as an S-shaped mirror (a row [(a, b)] stored as
    [(b, c = a)]), so S-side events walk the same index R-side events
    do.  {!r_table} is a plain R(A,B) store, keyed by (B, A). *)

module Fbt : sig
  val seek_ge : 'a Cq_index.Btree.t -> float -> 'a Cq_index.Btree.cursor option
  (** [seek_ge t b] is the first row with B >= b:
      [Btree.seek_ge t b neg_infinity]. *)
end

(** {2 Sweeping a B-tree}

    A {!Cq_index.Sweep_store.cursor} running over the primary keys of
    a tree's leaves: how a band event sweeps its scattered windows
    against S.B. *)

val cursor_on : 'a Cq_index.Btree.finger -> Cq_index.Sweep_store.cursor
(** A cursor whose [hop], [descend] and [sync] move the finger (to the
    next leaf, by a {!Cq_index.Btree.finger_seek_shifted}, to the
    cursor's slot) and reload the cursor from it.  Made once per scan;
    none of the three allocates. *)

val load_cursor : Cq_index.Sweep_store.cursor -> 'a Cq_index.Btree.finger -> unit
(** Load the finger's leaf and slot into the cursor.  Before a sweep:
    {!Cq_index.Btree.finger_reset} the finger, set the cursor's
    [shift], then load. *)

(** {2 S(B,C)} *)

type s_table

val create_s : unit -> s_table

val of_s_tuples : Tuple.s array -> s_table
(** Bulk-load; input order is free (rows with equal (B, C) keep it). *)

val of_s_batch : Batch.t -> s_table
(** Bulk-load from a flat batch ([x = b, y = c], ids as [sid]). *)

val insert_s : s_table -> Tuple.s -> unit
val delete_s : s_table -> Tuple.s -> bool
val s_size : s_table -> int

val s_by_b : s_table -> Tuple.s Cq_index.Btree.t
(** The table's one B-tree, keyed by (S.B, S.C). *)

val iter_s : s_table -> (Tuple.s -> unit) -> unit
(** In increasing (S.B, S.C) order. *)

(** {2 R(A,B)} *)

type r_table

val create_r : unit -> r_table
val of_r_tuples : Tuple.r array -> r_table
val insert_r : r_table -> Tuple.r -> unit
val delete_r : r_table -> Tuple.r -> bool
val r_size : r_table -> int

(** The database relations, indexed as the paper assumes.

    S(B,C) carries a B-tree on B (for band joins) and a composite
    B-tree on (B,C) (for equality joins with local selections).  The
    engine keeps R in an [s_table] too, as an S-shaped mirror (a row
    [(a, b)] stored as [(b, c = a)]), so S-side events walk the same
    index shapes R-side events do.  {!r_table} is a plain R(A,B) store with
    one B-tree on B. *)

module Fkey : Cq_index.Btree.ORDERED with type t = float

module Pkey : Cq_index.Btree.ORDERED with type t = float * float
(** Lexicographic order on (primary, secondary). *)

module Fbt : module type of Cq_index.Btree.Make (Fkey)
module Pbt : module type of Cq_index.Btree.Make (Pkey)

(** {2 Sweeping a B-tree}

    A {!Cq_index.Sweep_store.cursor} running over the leaves of an
    {!Fbt}: how a band event sweeps its scattered windows against
    S.B. *)

val cursor_on : 'a Fbt.finger -> Cq_index.Sweep_store.cursor
(** A cursor whose [hop], [descend] and [sync] move the finger (to the
    next leaf, by a {!Fbt.finger_seek} from the root, to the cursor's
    slot) and reload the cursor from it.  Made once per scan. *)

val load_cursor : Cq_index.Sweep_store.cursor -> 'a Fbt.finger -> unit
(** Load the finger's leaf and slot into the cursor.  Before a sweep:
    {!Fbt.finger_reset} the finger, set the cursor's [shift], then
    load. *)

(** {2 S(B,C)} *)

type s_table

val create_s : unit -> s_table

val of_s_tuples : Tuple.s array -> s_table
(** Bulk-load; input order is free. *)

val of_s_batch : Batch.t -> s_table
(** Bulk-load from a flat batch ([x = b, y = c], ids as [sid]). *)

val insert_s : s_table -> Tuple.s -> unit
val delete_s : s_table -> Tuple.s -> bool
val s_size : s_table -> int
val s_by_b : s_table -> Tuple.s Fbt.t
(** B-tree keyed on S.B. *)

val s_by_bc : s_table -> Tuple.s Pbt.t
(** B-tree keyed on (S.B, S.C). *)

val iter_s : s_table -> (Tuple.s -> unit) -> unit
(** In increasing S.B order. *)

(** {2 R(A,B)} *)

type r_table

val create_r : unit -> r_table
val of_r_tuples : Tuple.r array -> r_table
val insert_r : r_table -> Tuple.r -> unit
val delete_r : r_table -> Tuple.r -> bool
val r_size : r_table -> int

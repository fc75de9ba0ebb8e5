(** Growable arrays (OCaml 5.1 predates [Dynarray]).

    Amortised O(1) push, O(1) random access, O(1) swap-remove.  Used
    pervasively for result sinks and per-group member lists. *)

type 'a t

val create : unit -> 'a t
val make : int -> 'a t
(** [make capacity] pre-sizes the backing store. *)

val length : 'a t -> int
val is_empty : 'a t -> bool
val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit
val push : 'a t -> 'a -> unit
val pop : 'a t -> 'a
(** Remove and return the last element.  @raise Invalid_argument if empty. *)

val swap_remove : 'a t -> int -> 'a
(** O(1) removal that moves the last element into the hole; order is not
    preserved.  Returns the removed element. *)

val clear : 'a t -> unit
val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val exists : ('a -> bool) -> 'a t -> bool
val to_array : 'a t -> 'a array
val to_list : 'a t -> 'a list
val of_list : 'a list -> 'a t
val sort : ('a -> 'a -> int) -> 'a t -> unit

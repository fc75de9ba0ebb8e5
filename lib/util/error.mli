(** Shared error taxonomy for API-boundary validation.

    The library-internal data structures guard their preconditions with
    [invalid_arg]; user-facing boundaries (the engine, the fuzz
    harness) instead classify bad inputs into this taxonomy so callers
    can match on the failure rather than parse exception strings.
    Boundary modules offer [try_]-prefixed [result]-returning variants;
    their exceptional twins raise {!Cq_error} — never a bare
    [Invalid_argument]. *)

type t =
  | Invalid_parameter of { name : string; value : string; expected : string }
      (** A configuration knob outside its documented domain
          (e.g. [alpha] outside (0, 1]). *)
  | Not_finite of { name : string; value : float }
      (** NaN or infinite where a finite attribute value is required —
          admitted once, these silently corrupt ordered indexes. *)
  | Empty_range of { name : string }
      (** A query window with no points: the subscription could never
          fire and is almost certainly a caller bug. *)
  | Duplicate of { what : string }  (** Element already present. *)
  | Absent of { what : string }  (** Element not present. *)
  | Corrupt of { structure : string; detail : string }
      (** A structural invariant audit failed: [structure] names the
          offending index or partition, [detail] the broken check.
          Raised (never returned) by [check_invariants]-style audits;
          [Cq_robust.Invariant.guard] converts it into a recorded
          violation. *)
  | Overload of { shard : int; queue_depth : int; retry_after_ms : float }
      (** Admission control refused a batch: the named shard's ingest
          queue is too deep to accept it without blocking.  The caller
          should back off for roughly [retry_after_ms] milliseconds
          and retry — or switch the engine to [Shed] mode and accept
          bounded-error degraded answers instead. *)

exception Cq_error of t

val to_string : t -> string
val pp : Format.formatter -> t -> unit

val raise_ : t -> 'a
(** Raise {!Cq_error}. *)

val ok_exn : ('a, t) result -> 'a
(** [Ok v -> v]; [Error e] raises {!Cq_error}. *)

val corrupt : structure:string -> ('a, unit, string, 'b) format4 -> 'a
(** [corrupt ~structure fmt ...] raises {!Cq_error} with a {!Corrupt}
    payload — the audit-failure channel replacing bare [failwith]. *)

(** {2 Validators} *)

val in_unit_open_closed : name:string -> float -> (float, t) result
(** Require [0 < v <= 1] (the hotspot threshold's domain). *)

val positive : name:string -> float -> (float, t) result
(** Require a finite [v > 0]. *)

val at_least : name:string -> min:int -> int -> (int, t) result
(** Require an integer [v >= min] (shard counts, batch sizes, queue
    capacities). *)

val both : ('a, t) result -> ('b, t) result -> ('a * 'b, t) result
(** First error wins. *)

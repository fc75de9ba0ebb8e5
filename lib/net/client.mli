(** Blocking client for the {!Frame} protocol — the counterpart the
    tests, the loopback driver, and [cqctl client] use to talk to
    {!Server}.

    The client is synchronous: each helper sends one request frame and
    waits for its reply.  Asynchronous pushes that arrive while waiting
    ([Results] fan-out and slow-session [Overload] notices) are stashed
    and drained later with {!take_results} / {!take_overloads}, so a
    lockstep request/reply discipline loses nothing.

    Not thread-safe; one domain per client. *)

type t

type error =
  | Timeout  (** No reply within [recv_timeout]. *)
  | Closed_by_server  (** EOF on a clean frame boundary. *)
  | Protocol of Frame.proto_error  (** The server's bytes did not parse. *)
  | Server_error of { code : Frame.err_code; message : string }  (** An [Err] reply. *)
  | Unexpected of string  (** A well-formed reply of the wrong kind. *)
  | Io of string  (** Connection-level [Unix] failure. *)

val error_to_string : error -> string

val connect :
  ?recv_timeout:float -> ?max_frame:int -> addr:Unix.sockaddr -> unit -> (t, error) result
(** Connect, set [TCP_NODELAY] and a receive timeout (default 5 s),
    perform the [Hello]/[Welcome] handshake. *)

val session_id : t -> int
val close : t -> unit

(** {2 Request/reply helpers} *)

val register_band : t -> lo:float -> hi:float -> (int, error) result
(** Returns the server-assigned qid. *)

val register_select :
  t -> a_lo:float -> a_hi:float -> c_lo:float -> c_hi:float -> (int, error) result

val drop : t -> qid:int -> (unit, error) result

type batch_reply =
  | Accepted of int  (** [Batch_ok]: rows admitted. *)
  | Overloaded of { source : Frame.overload_source; dropped : int; retry_after_ms : float }

val send_batch : t -> side:Frame.side -> Cq_relation.Batch.t -> (batch_reply, error) result

val flush : t -> (int, error) result
(** Barrier: returns the number of result rows the answering flush
    enqueued to this session (they land in {!take_results}). *)

val ping : t -> token:int -> (unit, error) result

val bye : t -> (unit, error) result
(** Orderly shutdown: sends [Bye], waits for [Goodbye], closes. The
    socket is closed even on error. *)

(** {2 Raw access} — for the fuzzer and the slow-reader test. *)

val send : t -> Frame.client_frame -> (unit, error) result
(** Write one frame without waiting for anything. *)

val recv : t -> (Frame.server_frame, error) result
(** Next server frame: a stashed push if one is pending, else read. *)

(** {2 Stashed pushes} *)

val pump : t -> (unit, error) result
(** Non-blocking: drain whatever the kernel has buffered into the
    frame decoder (no frame is consumed — the next {!recv} or RPC
    still sees everything in order).  Call it from time to time on a
    client that goes quiet between RPCs: letting the kernel receive
    buffer fill invites in-window TCP segment drops on loopback, whose
    RTO-backoff retransmits stall the stream for seconds. *)

val take_results : t -> (int * (float * float * float * float) array) list
(** Drain stashed [Results] frames in arrival order as [(qid, rows)]. *)

val take_overloads : t -> (Frame.overload_source * int * float) list
(** Drain stashed [Overload] notices as [(source, dropped, retry_after_ms)]. *)

(** Per-client session state for {!Server}: the frame decoder, the
    bounded outbound buffers, and the per-flush result staging.

    Outbound frames travel through two queues with one hard bound
    between them (DESIGN.md §14):

    - {e control replies} (acks, pongs, errors) go through a FIFO
      capped at [queue_cap + 16] — its depth is bounded by the client's
      own unanswered requests, so overflowing it means the client is
      flooding and {!enqueue_ctrl} returns [false] (the server
      disconnects);
    - {e result fan-out} goes through a {!Cq_engine.Bounded_queue} of
      [queue_cap] encoded frames — a full queue {b drops} the frame
      ({!enqueue_result_frame} returns [false]), the drop is accounted
      via {!note_dropped} and later surfaced as one coalesced
      [OVERLOAD] frame.

    While the result queue is full the session reports {!throttled} and
    the server stops reading its socket, so the kernel buffer pushes
    back on the producer.  Either way a slow reader costs O(queue_cap)
    memory, never more. *)

type t

val create : sid:int -> fd:Unix.file_descr -> queue_cap:int -> max_frame:int -> t

val sid : t -> int
val fd : t -> Unix.file_descr
val decoder : t -> Frame.Decoder.t

val closing : t -> bool
(** Outbound data still draining; no further reads. *)

val closed : t -> bool
val mark_closing : t -> unit

val greeted : t -> bool
(** A [Hello] with the right version has been accepted; until then
    every other frame is a fatal protocol violation. *)

val mark_greeted : t -> unit

val frames_in : t -> int
val count_frame_in : t -> unit
val results_sent : t -> int

(** {2 Query ownership} *)

val qids : t -> int list
val add_qid : t -> int -> unit
val remove_qid : t -> int -> unit

(** {2 Outbound buffering} *)

val queue_cap : t -> int
val out_depth : t -> int
(** Occupancy of the bounded result queue. *)

val throttled : t -> bool
(** Result queue full: stop reading this session's socket. *)

val enqueue_ctrl : t -> Frame.server_frame -> bool
(** [false] means the control FIFO hit its abuse cap — disconnect. *)

val enqueue_result_frame : t -> Frame.server_frame -> bool
(** [false] means the bounded queue was full and the frame was dropped
    — account it with {!note_dropped}. *)

val note_dropped : t -> int -> unit
val dropped_rows : t -> int
(** Result rows dropped since the last OVERLOAD notice. *)

val clear_dropped : t -> unit

val wants_write : t -> bool

val write_step : t -> [ `Blocked | `Drained | `Gone ]
(** Write until the socket blocks or both queues drain; [`Gone] on a
    connection-level error (peer reset). *)

val close_fd : t -> unit

(** {2 Flush barrier bookkeeping} *)

val flush_requested : t -> bool
val request_flush : t -> unit
val clear_flush_request : t -> unit

val set_flush_ack : t -> int -> unit
(** A handled flush owes this session a [Flushed] ack for [rows]
    delivered rows (accumulates if one is already due). *)

val flush_ack_due : t -> bool

val try_send_flush_ack : t -> bool
(** Enqueue the due [Flushed] ack through the {e result} queue — it
    must follow that flush's [Results] frames on the wire, so it rides
    the same FIFO and is the client's drain barrier.  [false] if the
    queue is full; retried each tick. *)

val count_results_sent : t -> int -> unit

(** {2 Per-flush result staging} *)

val record_result : t -> qid:int -> ra:float -> rb:float -> sb:float -> sc:float -> unit
(** Called by the engine subscription callbacks during a flush, in
    merge order. *)

val take_pending : t -> (int * (float * float * float * float) array) list
(** Drain the staged rows as RESULTS-frame payloads: runs of
    consecutive same-qid rows, split at 512 rows, chronological. *)

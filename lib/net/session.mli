(** Per-client session state for {!Server}: the frame decoder, the
    bounded outbound byte FIFOs, and the in-place encoding of a flush's
    results.

    Outbound frames travel as encoded bytes through two FIFOs of whole
    frames, each bounded by a count of frames not yet wholly written
    (DESIGN.md §14):

    - {e control replies} (acks, pongs, errors) are capped at
      [queue_cap + 16] frames — their depth is bounded by the client's
      own unanswered requests, so overflowing it means the client is
      flooding and {!enqueue_ctrl} returns [false] (the server
      disconnects);
    - {e result fan-out} is capped at [queue_cap] frames.
      {!record_result} encodes each row straight into this FIFO, opening
      a RESULTS frame on a new qid or after 512 rows; a frame that
      opens on a full FIFO is {b dropped} whole, its rows accounted and
      later surfaced as one coalesced [OVERLOAD] frame.

    {!write_step} moves the control bytes first, then the result bytes
    in gathers of whole frames of at most 64 KiB, one
    [Unix.single_write] each, so a control frame waits behind at most
    one gather.  While the result FIFO is full the session reports
    {!throttled} and the server stops reading its socket, so the kernel
    buffer pushes back on the producer.  Either way a slow reader costs
    O(queue_cap) memory, never more. *)

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
(** Result frames not yet wholly written, an open one included. *)

val throttled : t -> bool
(** Result FIFO full: stop reading this session's socket. *)

val enqueue_ctrl : t -> Frame.server_frame -> bool
(** [false] means the control FIFO hit its abuse cap — disconnect. *)

val dropped_rows : t -> int
(** Result rows dropped since the last OVERLOAD notice. *)

val clear_dropped : t -> unit

val wants_write : t -> bool

val write_step : t -> [ `Blocked | `Drained | `Gone ]
(** Write until the socket blocks or both FIFOs drain, one
    [Unix.single_write] per call: the rest of the result gather in
    flight, the control bytes, then the next gather.  [`Gone] on a
    connection-level error (peer reset). *)

val frames_out : t -> int
(** Frames queued for the wire, both FIFOs. *)

val writes : t -> int
(** Write calls that moved bytes. *)

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
(** Enqueue the due [Flushed] ack through the {e result} FIFO — it
    must follow that flush's [Results] frames on the wire, so it rides
    the same FIFO and is the client's drain barrier.  [false] if the
    FIFO is full; retried each tick. *)

(** {2 Per-flush result encoding} *)

val record_result : t -> qid:int -> Cq_relation.Tuple.r -> Cq_relation.Tuple.s -> unit
(** Called by the engine subscription callbacks during a flush, in
    merge order: append the row [(r.a, r.b, s.b, s.c)] to the RESULTS
    frame of [qid], opening one when the previous row was another
    query's or the frame holds 512 rows.  The row is dropped if its
    frame opened on a full result FIFO. *)

val end_flush : t -> int
(** Close the flush's last frame and return the rows it delivered; its
    dropped rows join {!dropped_rows}.  The next flush starts a new
    frame. *)

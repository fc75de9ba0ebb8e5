(** The wire protocol of the network front-end: length-prefixed binary
    frames over a byte stream (DESIGN.md §14).

    Every frame is a 5-byte header — one tag byte, then the body length
    as an unsigned 32-bit big-endian integer — followed by the body.
    Integers are big-endian; floats are IEEE-754 binary64, big-endian.
    The two directions use disjoint tag spaces (client tags < 0x80,
    server tags >= 0x80), so a peer reading its own reflection fails
    loudly instead of mis-parsing.

    Decoding is {e incremental} and total: {!Decoder.feed} accepts
    arbitrary byte chunks, {!Decoder.next_client}/[next_server] yield
    one frame at a time, and every malformed input — unknown tag, body
    longer than the negotiated cap, a row count disagreeing with the
    body length, a stream closed mid-frame — is classified into
    {!proto_error}.  No input byte sequence makes the decoder raise or
    loop; the protocol fuzzer in [test_net] holds it to that. *)

type side = R | S
(** Which relation a tuple batch targets, as {!Cq_engine.Parallel.side}. *)

(** Frames a client sends.  A session speaks strictly in order: the
    server replies to each request frame in arrival order, interleaved
    with asynchronous {!server_frame.Results} / [Overload] pushes. *)
type client_frame =
  | Hello of { version : int }
      (** Must be the first frame, exactly once — enforced: any other
          frame before a successful handshake, or a repeated [Hello],
          draws a fatal [Err_proto].  The server answers [Welcome] (or
          a protocol error on a version mismatch). *)
  | Register_band of { lo : float; hi : float }
      (** Register a continuous band query with window [\[lo, hi\]];
          answered by [Registered] carrying the session-visible qid. *)
  | Register_select of { a_lo : float; a_hi : float; c_lo : float; c_hi : float }
      (** Register a continuous select-join query; answered by
          [Registered]. *)
  | Drop of { qid : int }  (** Drop a query this session registered. *)
  | Batch of { side : side; rows : Cq_relation.Batch.t }
      (** A tuple batch, decoded straight into the flat
          {!Cq_relation.Batch} so the zero-allocation ingest path is
          the wire-to-engine path.  Answered by [Batch_ok] or
          [Overload]. *)
  | Flush  (** Barrier: answered by [Flushed] once every result frame
               of the session's prior batches has been enqueued. *)
  | Ping of { token : int }  (** Liveness probe; answered by [Pong]. *)
  | Bye  (** Orderly close; answered by [Goodbye]. *)

(** Why an [Err] frame was sent.  [Err_proto] is fatal (the server
    closes the session after sending it); the others leave the session
    usable. *)
type err_code = Err_proto | Err_bad_request | Err_engine | Err_server_full

(** Which mechanism produced an [Overload] frame. *)
type overload_source =
  | Engine_admission
      (** {!Cq_engine.Parallel} admission control refused the batch
          (Reject policy): nothing was ingested; retry after the
          hint. *)
  | Slow_session
      (** This session's bounded output queue overflowed: [dropped]
          result {e rows} were discarded rather than buffered without
          bound.  Read faster, or re-register and resync. *)

(** Frames the server sends. *)
type server_frame =
  | Welcome of { version : int; session_id : int }
  | Registered of { qid : int }
  | Dropped of { qid : int }
  | Batch_ok of { rows : int }
  | Results of { qid : int; rows : (float * float * float * float) array }
      (** Fan-out results for one continuous query: each row is
          [(r.a, r.b, s.b, s.c)] — the joined pair's four attributes.
          Rows arrive in the engine's deterministic merge order. *)
  | Flushed of { results : int }
      (** Answer to [Flush]: [results] rows were enqueued to this
          session by the flush that answered it. *)
  | Pong of { token : int }
  | Overload of { source : overload_source; dropped : int; retry_after_ms : float }
  | Err of { code : err_code; message : string }
  | Goodbye

(** Typed decode failures.  [Truncated] is only reported by
    {!Decoder.at_eof} — mid-stream, a short buffer just means
    [Awaiting]. *)
type proto_error =
  | Unknown_tag of { tag : int }
  | Oversized of { tag : int; declared : int; limit : int }
  | Malformed of { tag : int; detail : string }
  | Truncated of { buffered : int }

val protocol_version : int

val proto_error_to_string : proto_error -> string

val err_code_to_int : err_code -> int
val overload_source_to_string : overload_source -> string

val pp_server_frame : Format.formatter -> server_frame -> unit

val encode_client : Buffer.t -> client_frame -> unit
(** Append the frame's full wire image (header + body). *)

val encode_server : Buffer.t -> server_frame -> unit

val frame_bytes : bytes -> int -> int
(** [frame_bytes b pos] is the whole wire length (header + body) of
    the frame whose header starts at [pos]. *)

(** {2 In-place RESULTS encoding}

    For a writer that encodes result rows straight into its output
    buffer: a [Results] frame of [n] rows is a
    {!results_header_bytes}-byte header followed by [n] rows of
    {!results_row_bytes} bytes, byte for byte what {!encode_server}
    writes. *)

val results_header_bytes : int
val results_row_bytes : int

val put_results_header : bytes -> int -> qid:int -> rows:int -> unit
(** Write the header of a [Results] frame of [rows] rows at [pos]. *)

val put_results_row : bytes -> int -> Cq_relation.Tuple.r -> Cq_relation.Tuple.s -> unit
(** Write one row [(r.a, r.b, s.b, s.c)] at [pos]. *)

(** Incremental frame decoder over a growable internal buffer.  One
    decoder per direction per connection; a decode failure is sticky —
    after a [Broken] answer every further [next_*] repeats it, because
    a framing error leaves no way to resynchronise the stream. *)
module Decoder : sig
  type t

  val create : ?max_frame:int -> unit -> t
  (** [max_frame] caps the {e body} length the decoder will buffer
      (default {!default_max_frame}); a declared length beyond it is an
      [Oversized] error before any body byte is read. *)

  val feed : t -> bytes -> off:int -> len:int -> unit
  (** Append received bytes.  O(len) amortised; the internal buffer
      compacts as frames are consumed. *)

  type 'a next = Frame of 'a | Awaiting | Broken of proto_error

  val next_client : t -> client_frame next
  (** Decode the next client frame if a full one is buffered. *)

  val next_server : t -> server_frame next

  val at_eof : t -> (unit, proto_error) result
  (** Call when the peer closed the stream: [Error (Truncated _)] if a
      partial frame is still buffered, [Ok ()] on a clean boundary. *)

  val buffered : t -> int
  (** Bytes fed but not yet consumed. *)
end

val default_max_frame : int
(** 1 MiB: comfortably above the largest [Results]/[Batch] frame the
    server emits, small enough that a hostile length prefix cannot
    balloon a session's memory. *)

module Metrics = Cq_obs.Metrics

let m_encode_ns = Metrics.histogram "net.frame.encode_ns"
let m_frames_out = Metrics.counter "net.frames.out"
let m_queue_depth = Metrics.histogram "net.session.queue_depth"

(* Rows per RESULTS frame: large enough to amortise the header, small
   enough that one frame never dominates the bounded queue's memory. *)
let max_rows_per_frame = 512

(* Bytes per write: [Unix.single_write] moves at most 64 KiB a call. *)
let max_gather = 65536

(* Outbound bytes: whole encoded frames, back to back, in one buffer.
   [head] starts the oldest frame not yet wholly written ([frames] of
   them remain, an open one included), [start] is the first unwritten
   byte, [stop] the end of the gather being written, [sealed] the end
   of the last closed frame and [fill] the end of the bytes:
   head <= start <= stop <= sealed <= fill.  The bytes past [sealed]
   are a frame still being encoded; no write reaches them. *)
module Fifo = struct
  type t = {
    mutable buf : Bytes.t;
    mutable head : int;
    mutable start : int;
    mutable stop : int;
    mutable sealed : int;
    mutable fill : int;
    mutable frames : int;
  }

  let initial = 4096

  (* A drained buffer larger than this goes back to [initial] bytes, so
     one burst does not pin its memory for the session's lifetime. *)
  let max_idle = 1 lsl 20

  let create () =
    { buf = Bytes.create initial; head = 0; start = 0; stop = 0; sealed = 0; fill = 0; frames = 0 }

  (* Room for [n] more bytes: slide the live bytes down to offset 0, into
     a buffer twice as large while they still do not fit. *)
  let reserve q n =
    if q.fill + n > Bytes.length q.buf then begin
      let live = q.fill - q.head in
      let len = ref (Bytes.length q.buf) in
      while live + n > !len do
        len := 2 * !len
      done;
      let dst = if !len = Bytes.length q.buf then q.buf else Bytes.create !len in
      Bytes.blit q.buf q.head dst 0 live;
      let d = q.head in
      q.buf <- dst;
      q.head <- 0;
      q.start <- q.start - d;
      q.stop <- q.stop - d;
      q.sealed <- q.sealed - d;
      q.fill <- live
    end

  (* Append one whole frame, encoded in [enc]. *)
  let push q enc =
    let n = Buffer.length enc in
    reserve q n;
    Buffer.blit enc 0 q.buf q.fill n;
    q.fill <- q.fill + n;
    q.sealed <- q.fill;
    q.frames <- q.frames + 1

  let pending q = q.start < q.sealed

  (* Once a gather is written, the next one runs over whole sealed
     frames, at least one, and at most [max_gather] bytes if more. *)
  let gather q =
    if q.start = q.stop then begin
      let p = ref (q.start + Frame.frame_bytes q.buf q.start) in
      while !p < q.sealed && !p + Frame.frame_bytes q.buf !p - q.start <= max_gather do
        p := !p + Frame.frame_bytes q.buf !p
      done;
      q.stop <- !p
    end

  (* [n] bytes went out: retire the frames they complete. *)
  let advance q n =
    q.start <- q.start + n;
    while q.head < q.sealed && q.head + Frame.frame_bytes q.buf q.head <= q.start do
      q.head <- q.head + Frame.frame_bytes q.buf q.head;
      q.frames <- q.frames - 1
    done;
    if q.start = q.fill then begin
      if Bytes.length q.buf > max_idle then q.buf <- Bytes.create initial;
      q.head <- 0;
      q.start <- 0;
      q.stop <- 0;
      q.sealed <- 0;
      q.fill <- 0
    end
end

type t = {
  sid : int;
  fd : Unix.file_descr;
  decoder : Frame.Decoder.t;
  queue_cap : int;
  (* Control replies (acks, pongs, errors), with a hard abuse cap on
     their frames: the depth is bounded by the client's own unanswered
     requests, so a client that overflows it is flooding and gets
     disconnected rather than buffered. *)
  ctrl : Fifo.t;
  ctrl_cap : int;
  (* Result fan-out: at most [queue_cap] frames.  A frame that opens on
     a full FIFO is dropped (accounted, surfaced as OVERLOAD). *)
  res : Fifo.t;
  enc : Buffer.t;
  mutable qids : int list;
  (* The current run of same-qid rows: its query and its rows so far.
     Its frame is open in [res] (bytes past [res.sealed]) unless the
     run is being dropped. *)
  mutable run_qid : int;
  mutable run_rows : int;
  mutable flush_rows : int;
  mutable flush_drops : int;
  mutable dropped_rows : int;
  mutable flush_requested : bool;
  (* A FLUSHED ack waiting for room in the result FIFO: it must follow
     that flush's RESULTS frames on the wire, so it cannot take the
     control path. *)
  mutable ack_due : bool;
  mutable ack_rows : int;
  mutable closing : bool;
  mutable closed : bool;
  mutable greeted : bool;
  mutable frames_in : int;
  mutable frames_out : int;
  mutable writes : int;
  mutable results_sent : int;
}

let create ~sid ~fd ~queue_cap ~max_frame =
  {
    sid;
    fd;
    decoder = Frame.Decoder.create ~max_frame ();
    queue_cap;
    ctrl = Fifo.create ();
    ctrl_cap = queue_cap + 16;
    res = Fifo.create ();
    enc = Buffer.create 1024;
    qids = [];
    run_qid = min_int;
    run_rows = 0;
    flush_rows = 0;
    flush_drops = 0;
    dropped_rows = 0;
    flush_requested = false;
    ack_due = false;
    ack_rows = 0;
    closing = false;
    closed = false;
    greeted = false;
    frames_in = 0;
    frames_out = 0;
    writes = 0;
    results_sent = 0;
  }

let sid t = t.sid
let fd t = t.fd
let decoder t = t.decoder
let closing t = t.closing
let closed t = t.closed
let mark_closing t = t.closing <- true
let greeted t = t.greeted
let mark_greeted t = t.greeted <- true
let frames_in t = t.frames_in
let count_frame_in t = t.frames_in <- t.frames_in + 1
let frames_out t = t.frames_out
let writes t = t.writes
let results_sent t = t.results_sent

let qids t = t.qids
let add_qid t qid = t.qids <- qid :: t.qids
let remove_qid t qid = t.qids <- List.filter (fun q -> q <> qid) t.qids

let out_depth t = t.res.frames
let queue_cap t = t.queue_cap

(* Reads are throttled while the result FIFO is full: the kernel
   socket buffer then pushes back on the peer — backpressure instead of
   buffering. *)
let throttled t = t.res.frames >= t.queue_cap

let count_frame_out t =
  t.frames_out <- t.frames_out + 1;
  Metrics.incr m_frames_out

(* Encode one frame into [enc]. *)
let encode t frame =
  Buffer.clear t.enc;
  let t0 = Metrics.stamp () in
  Frame.encode_server t.enc frame;
  Metrics.observe_since m_encode_ns t0

let enqueue_ctrl t frame =
  if t.closed then true
  else if t.ctrl.frames >= t.ctrl_cap then false
  else begin
    encode t frame;
    Fifo.push t.ctrl t.enc;
    count_frame_out t;
    true
  end

let note_result_frame t =
  count_frame_out t;
  if Metrics.enabled () then Metrics.observe m_queue_depth (float_of_int t.res.frames)

(* End the current run: patch the header of its frame, if one is open,
   so the next row opens a new frame. *)
let close_run t =
  let q = t.res in
  if q.fill > q.sealed then begin
    Frame.put_results_header q.buf q.sealed ~qid:t.run_qid
      ~rows:((q.fill - q.sealed - Frame.results_header_bytes) / Frame.results_row_bytes);
    q.sealed <- q.fill
  end;
  t.run_qid <- min_int

let record_result t ~qid r s =
  if not t.closed then begin
    if qid <> t.run_qid || t.run_rows >= max_rows_per_frame then begin
      close_run t;
      t.run_qid <- qid;
      t.run_rows <- 0;
      (* The frame is kept or dropped whole, by the room left as it opens. *)
      if t.res.frames < t.queue_cap then begin
        Fifo.reserve t.res Frame.results_header_bytes;
        t.res.fill <- t.res.fill + Frame.results_header_bytes;
        t.res.frames <- t.res.frames + 1;
        note_result_frame t
      end
    end;
    t.run_rows <- t.run_rows + 1;
    if t.res.fill > t.res.sealed then begin
      Fifo.reserve t.res Frame.results_row_bytes;
      Frame.put_results_row t.res.buf t.res.fill r s;
      t.res.fill <- t.res.fill + Frame.results_row_bytes;
      t.flush_rows <- t.flush_rows + 1
    end
    else t.flush_drops <- t.flush_drops + 1
  end

let end_flush t =
  close_run t;
  let n = t.flush_rows in
  t.results_sent <- t.results_sent + n;
  t.dropped_rows <- t.dropped_rows + t.flush_drops;
  t.flush_rows <- 0;
  t.flush_drops <- 0;
  n

let dropped_rows t = t.dropped_rows
let clear_dropped t = t.dropped_rows <- 0

let flush_requested t = t.flush_requested
let request_flush t = t.flush_requested <- true
let clear_flush_request t = t.flush_requested <- false

let set_flush_ack t rows =
  t.ack_due <- true;
  t.ack_rows <- t.ack_rows + rows

let flush_ack_due t = t.ack_due

let try_send_flush_ack t =
  if not t.ack_due then true
  else if t.closed || t.res.frames >= t.queue_cap then false
  else begin
    close_run t;
    encode t (Frame.Flushed { results = t.ack_rows });
    Fifo.push t.res t.enc;
    note_result_frame t;
    t.ack_due <- false;
    t.ack_rows <- 0;
    true
  end

let wants_write t = (not t.closed) && (Fifo.pending t.ctrl || Fifo.pending t.res)

(* Write until the socket blocks: the rest of the result gather in
   flight, then the control bytes, then the next result gather — so a
   control frame goes out at a result-frame boundary. *)
let write_step t =
  let rec go () =
    let q =
      if t.res.start < t.res.stop then t.res
      else if Fifo.pending t.ctrl then t.ctrl
      else t.res
    in
    if not (Fifo.pending q) then `Drained
    else begin
      Fifo.gather q;
      (* The session fd is non-blocking: a full socket buffer returns
         EAGAIN (handled below) instead of stalling the event loop. *)
      match (Unix.single_write t.fd q.buf q.start (q.stop - q.start) [@cq.blocking_ok]) with
      | 0 -> `Blocked
      | n ->
          t.writes <- t.writes + 1;
          Fifo.advance q n;
          go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> `Blocked
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error (_, _, _) -> `Gone
    end
  in
  go ()

let close_fd t =
  if not t.closed then begin
    t.closed <- true;
    (try Unix.close t.fd with Unix.Unix_error (_, _, _) -> ())
  end

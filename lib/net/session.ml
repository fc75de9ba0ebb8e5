module BQ = Cq_engine.Bounded_queue
module Metrics = Cq_obs.Metrics

let m_encode_ns = Metrics.histogram "net.frame.encode_ns"
let m_frames_out = Metrics.counter "net.frames.out"
let m_queue_depth = Metrics.histogram "net.session.queue_depth"

(* Rows per RESULTS frame: large enough to amortise the header, small
   enough that one frame never dominates the bounded queue's memory. *)
let max_rows_per_frame = 512

type t = {
  sid : int;
  fd : Unix.file_descr;
  decoder : Frame.Decoder.t;
  queue_cap : int;
  (* Control replies (acks, pongs, errors): a plain FIFO with a hard
     abuse cap — its depth is bounded by the client's own unanswered
     requests, so a client that overflows it is flooding and gets
     disconnected rather than buffered. *)
  ctrl : Bytes.t Queue.t;
  ctrl_cap : int;
  (* Result fan-out: the bounded buffer.  A full queue drops result
     frames (accounted, surfaced as OVERLOAD) — never grows. *)
  out : Bytes.t BQ.t;
  enc : Buffer.t;
  mutable wbuf : Bytes.t option;
  mutable woff : int;
  mutable qids : int list;
  mutable pending : (int * float * float * float * float) list;  (** Reversed. *)
  mutable dropped_rows : int;
  mutable flush_requested : bool;
  (* A FLUSHED ack waiting for room in the result queue: it must follow
     that flush's RESULTS frames on the wire (same FIFO), so it cannot
     take the control path. *)
  mutable ack_due : bool;
  mutable ack_rows : int;
  mutable closing : bool;
  mutable closed : bool;
  mutable greeted : bool;
  mutable frames_in : int;
  mutable results_sent : int;
}

let create ~sid ~fd ~queue_cap ~max_frame =
  {
    sid;
    fd;
    decoder = Frame.Decoder.create ~max_frame ();
    queue_cap;
    ctrl = Queue.create ();
    ctrl_cap = queue_cap + 16;
    out = BQ.create ~capacity:queue_cap;
    enc = Buffer.create 1024;
    wbuf = None;
    woff = 0;
    qids = [];
    pending = [];
    dropped_rows = 0;
    flush_requested = false;
    ack_due = false;
    ack_rows = 0;
    closing = false;
    closed = false;
    greeted = false;
    frames_in = 0;
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
let results_sent t = t.results_sent

let qids t = t.qids
let add_qid t qid = t.qids <- qid :: t.qids
let remove_qid t qid = t.qids <- List.filter (fun q -> q <> qid) t.qids

let out_depth t = BQ.length t.out
let queue_cap t = t.queue_cap

(* Reads are throttled while the result queue is full: the kernel
   socket buffer then pushes back on the peer — backpressure instead of
   buffering. *)
let throttled t = BQ.length t.out >= t.queue_cap

let encode t frame =
  Buffer.clear t.enc;
  if Metrics.enabled () then begin
    let t0 = Cq_util.Clock.monotonic_ns () in
    Frame.encode_server t.enc frame;
    Metrics.observe m_encode_ns (Int64.to_float (Int64.sub (Cq_util.Clock.monotonic_ns ()) t0))
  end
  else Frame.encode_server t.enc frame;
  Buffer.to_bytes t.enc

let enqueue_ctrl t frame =
  if t.closed then true
  else if Queue.length t.ctrl >= t.ctrl_cap then false
  else begin
    Queue.add (encode t frame) t.ctrl;
    Metrics.incr m_frames_out;
    true
  end

let enqueue_result_frame t frame =
  if t.closed then false
  else begin
    let ok = BQ.try_push t.out (encode t frame) in
    if ok then begin
      Metrics.incr m_frames_out;
      Metrics.observe m_queue_depth (float_of_int (BQ.length t.out))
    end;
    ok
  end

let note_dropped t n = t.dropped_rows <- t.dropped_rows + n
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
  else if enqueue_result_frame t (Frame.Flushed { results = t.ack_rows }) then begin
    t.ack_due <- false;
    t.ack_rows <- 0;
    true
  end
  else false

let record_result t ~qid ~ra ~rb ~sb ~sc =
  if not t.closed then t.pending <- (qid, ra, rb, sb, sc) :: t.pending

(* Group the chronological pending rows into per-query frames: runs of
   consecutive same-qid rows become one RESULTS frame (split at
   [max_rows_per_frame]), preserving the engine's merge order. *)
let take_pending t =
  let chron = List.rev t.pending in
  t.pending <- [];
  let frames = ref [] in
  let cur_qid = ref min_int in
  let cur = ref [] in
  let cur_n = ref 0 in
  let close_run () =
    if !cur_n > 0 then begin
      let arr = Array.of_list (List.rev !cur) in
      frames := (!cur_qid, arr) :: !frames;
      cur := [];
      cur_n := 0
    end
  in
  List.iter
    (fun (qid, ra, rb, sb, sc) ->
      if qid <> !cur_qid || !cur_n >= max_rows_per_frame then begin
        close_run ();
        cur_qid := qid
      end;
      cur := (ra, rb, sb, sc) :: !cur;
      cur_n := !cur_n + 1)
    chron;
  close_run ();
  List.rev !frames

let count_results_sent t n = t.results_sent <- t.results_sent + n

let wants_write t =
  (not t.closed)
  && (Option.is_some t.wbuf || Queue.length t.ctrl > 0 || BQ.length t.out > 0)

(* Drain as much outbound data as the socket accepts: the in-flight
   frame first, then control replies, then buffered result frames. *)
let write_step t =
  let gone = ref false in
  let blocked = ref false in
  let rec go () =
    (match t.wbuf with
    | None -> (
        match
          if Queue.length t.ctrl > 0 then Some (Queue.pop t.ctrl) else BQ.try_pop t.out
        with
        | Some b ->
            t.wbuf <- Some b;
            t.woff <- 0
        | None -> ())
    | Some _ -> ());
    match t.wbuf with
    | None -> ()
    | Some b -> (
        let len = Bytes.length b - t.woff in
        (* The session fd is non-blocking: a full socket buffer returns
           EAGAIN (handled below) instead of stalling the event loop. *)
        match (Unix.write t.fd b t.woff len [@cq.blocking_ok]) with
        | n ->
            if n = len then begin
              t.wbuf <- None;
              t.woff <- 0;
              go ()
            end
            else begin
              t.woff <- t.woff + n;
              go ()
            end
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> blocked := true
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error (_, _, _) -> gone := true)
  in
  go ();
  if !gone then `Gone else if !blocked then `Blocked else `Drained

let close_fd t =
  if not t.closed then begin
    t.closed <- true;
    (try Unix.close t.fd with Unix.Unix_error (_, _, _) -> ())
  end

module Par = Cq_engine.Parallel
module Engine = Cq_engine.Engine
module I = Cq_interval.Interval
module Error = Cq_util.Error
module Metrics = Cq_obs.Metrics

let m_accepts = Metrics.counter "net.accepts"
let m_active = Metrics.gauge "net.sessions.active"
let m_frames_in = Metrics.counter "net.frames.in"
let m_decode_ns = Metrics.histogram "net.frame.decode_ns"
let m_batches_in = Metrics.counter "net.batches.in"
let m_rows_in = Metrics.counter "net.rows.in"
let m_results_delivered = Metrics.counter "net.results.delivered"
let m_results_dropped = Metrics.counter "net.results.dropped"
let m_overloads = Metrics.counter "net.overload.frames"
let m_proto_errors = Metrics.counter "net.proto_errors"

(* Served-batch stages 8 and 9, one sample per step: closing every
   session's flush (frames, counts, OVERLOAD and FLUSHED), and the
   session writes. *)
let m_fanout_ns = Metrics.histogram "net.fanout_ns"
let m_write_ns = Metrics.histogram "net.write_ns"

(* Fixed kernel socket-buffer size (bytes) for accepted connections;
   see the rationale at the [accept_loop] call site. *)
let sock_buf_bytes = 256 * 1024

(* A peer that vanishes mid-write must surface as EPIPE on that one
   socket — handled in [Session.write_step], which closes just that
   session — not as a process-killing SIGPIPE.  Set once, process-wide:
   every write in this module relies on it. *)
let ignore_sigpipe =
  lazy
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ | Sys_error _ -> ())

(* [Unix.select] cannot watch an fd >= FD_SETSIZE (1024 on Linux) — it
   raises EINVAL, which would crash the loop exactly as the server
   approaches capacity.  Budget the watchable range: stdio, the
   listener, the stop pipe, and transient accept fds leave room for at
   most [max_sessions_limit] concurrent sessions. *)
let fd_setsize = 1024
let max_sessions_limit = fd_setsize - 24

type config = {
  engine : Engine.Config.t;
  max_sessions : int;
  session_queue : int;
  max_frame : int;
}

let default_config =
  {
    engine = Engine.Config.default;
    max_sessions = max_sessions_limit;
    session_queue = 64;
    max_frame = Frame.default_max_frame;
  }

type sub_entry = { sub : Par.subscription; owner : int }

type t = {
  cfg : config;
  par : Par.t;
  listen_fd : Unix.file_descr;
  port : int;
  stop_r : Unix.file_descr;
  stop_w : Unix.file_descr;
  mutable stopping : bool;
  mutable torn_down : bool;
  (* Live sessions in sid order: accept appends, close removes. *)
  mutable sessions : Session.t list;
  mutable next_sid : int;
  mutable next_qid : int;
  subs : (int, sub_entry) Hashtbl.t;
  mutable dirty : bool;
  rbuf : Bytes.t;
  mutable accepts : int;
  mutable results_delivered : int;
  mutable results_dropped : int;
  mutable overloads_sent : int;
  mutable proto_errors : int;
  mutable flushes : int;
  (* Write and frame counts of closed sessions; [stats] adds the live
     ones. *)
  mutable retired_writes : int;
  mutable retired_frames_out : int;
}

type stats = {
  net_accepts : int;
  net_active : int;
  net_results_delivered : int;
  net_results_dropped : int;
  net_overloads : int;
  net_proto_errors : int;
  net_flushes : int;
  net_writes : int;
  net_frames_out : int;
}

let stats t =
  let live f = List.fold_left (fun n s -> n + f s) 0 t.sessions in
  {
    net_accepts = t.accepts;
    net_active = List.length t.sessions;
    net_results_delivered = t.results_delivered;
    net_results_dropped = t.results_dropped;
    net_overloads = t.overloads_sent;
    net_proto_errors = t.proto_errors;
    net_flushes = t.flushes;
    net_writes = t.retired_writes + live Session.writes;
    net_frames_out = t.retired_frames_out + live Session.frames_out;
  }

let pp_stats fmt s =
  Format.fprintf fmt
    "@[<v>accepts              %d@,active sessions      %d@,results delivered    %d@,results \
     dropped      %d@,overload frames      %d@,protocol errors      %d@,flushes              \
     %d@,frames out           %d@,writes               %d@]"
    s.net_accepts s.net_active s.net_results_delivered s.net_results_dropped s.net_overloads
    s.net_proto_errors s.net_flushes s.net_frames_out s.net_writes

let port t = t.port
let active_sessions t = List.length t.sessions

let try_create ?(config = default_config) ~addr () =
  let ( let* ) = Result.bind in
  Lazy.force ignore_sigpipe;
  let* _ = Error.at_least ~name:"max_sessions" ~min:1 config.max_sessions in
  let* _ =
    if config.max_sessions <= max_sessions_limit then Ok config.max_sessions
    else
      Error
        (Error.Invalid_parameter
           {
             name = "max_sessions";
             value = string_of_int config.max_sessions;
             expected =
               Printf.sprintf "an integer <= %d (select's FD_SETSIZE budget)"
                 max_sessions_limit;
           })
  in
  let* _ = Error.at_least ~name:"session_queue" ~min:1 config.session_queue in
  let* _ = Error.at_least ~name:"max_frame" ~min:64 config.max_frame in
  let* par = Par.try_create_cfg config.engine in
  match
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.setsockopt fd Unix.SO_REUSEADDR true;
       Unix.bind fd addr;
       Unix.listen fd 128;
       Unix.set_nonblock fd
     with e ->
       (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
       raise e);
    fd
  with
  | exception Unix.Unix_error (err, fn, _) ->
      Par.shutdown par;
      Error
        (Error.Invalid_parameter
           {
             name = "addr";
             value = Printf.sprintf "%s: %s" fn (Unix.error_message err);
             expected = "a bindable TCP address";
           })
  | listen_fd ->
      let port =
        match Unix.getsockname listen_fd with
        | Unix.ADDR_INET (_, p) -> p
        | Unix.ADDR_UNIX _ -> 0
      in
      let stop_r, stop_w = Unix.pipe ~cloexec:true () in
      Unix.set_nonblock stop_r;
      Ok
        {
          cfg = config;
          par;
          listen_fd;
          port;
          stop_r;
          stop_w;
          stopping = false;
          torn_down = false;
          sessions = [];
          next_sid = 1;
          next_qid = 1;
          subs = Hashtbl.create 64;
          dirty = false;
          rbuf = Bytes.create 65536;
          accepts = 0;
          results_delivered = 0;
          results_dropped = 0;
          overloads_sent = 0;
          proto_errors = 0;
          flushes = 0;
          retired_writes = 0;
          retired_frames_out = 0;
        }

let create ?config ~addr () = Error.ok_exn (try_create ?config ~addr ())

(* ------------------------- session lifecycle --------------------------- *)

let retire t s =
  Session.close_fd s;
  t.retired_writes <- t.retired_writes + Session.writes s;
  t.retired_frames_out <- t.retired_frames_out + Session.frames_out s

let close_session t s =
  if not (Session.closed s) then begin
    List.iter
      (fun qid ->
        match Hashtbl.find_opt t.subs qid with
        | Some { sub; _ } ->
            ignore (Par.unsubscribe t.par sub);
            Hashtbl.remove t.subs qid
        | None -> ())
      (Session.qids s);
    retire t s;
    t.sessions <- List.filter (fun o -> o != s) t.sessions;
    Metrics.set m_active (float_of_int (List.length t.sessions))
  end

let send_ctrl t s frame =
  if not (Session.enqueue_ctrl s frame) then
    (* Control FIFO overflow: the client floods requests without
       reading replies.  Cut it loose — that is the bound. *)
    close_session t s

let maybe_notify_overload t s =
  let dropped = Session.dropped_rows s in
  if dropped > 0 then
    let notice =
      Frame.Overload { source = Frame.Slow_session; dropped; retry_after_ms = 50.0 }
    in
    if Session.enqueue_ctrl s notice then begin
      Session.clear_dropped s;
      t.overloads_sent <- t.overloads_sent + 1;
      Metrics.incr m_overloads
    end

(* ------------------------------ accept --------------------------------- *)

let accept_loop t =
  let continue = ref true in
  while !continue do
    (* The listen fd is non-blocking: accept returns EAGAIN instead of
       waiting, and the loop exits on it. *)
    match (Unix.accept ~cloexec:true t.listen_fd [@cq.blocking_ok]) with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> continue := false
    | fd, _peer ->
        t.accepts <- t.accepts + 1;
        Metrics.incr m_accepts;
        Unix.set_nonblock fd;
        (try Unix.setsockopt fd Unix.TCP_NODELAY true
         with Unix.Unix_error (_, _, _) -> ());
        (* Pin both kernel buffers.  Auto-tuned buffers are a trap for
           this traffic shape: a client that drains one result burst
           quickly gets its window auto-grown past what the kernel will
           actually allocate, and when it then idles between RPCs the
           in-window segments that no longer fit are silently dropped —
           on loopback that means retransmission timeouts with
           exponential backoff, i.e. multi-second stalls.  A fixed
           buffer keeps the advertised window honest, and a small send
           buffer keeps undelivered results in our bounded per-session
           queues — where the backpressure accounting lives — rather
           than invisibly in the kernel. *)
        (try
           Unix.setsockopt_int fd Unix.SO_SNDBUF sock_buf_bytes;
           Unix.setsockopt_int fd Unix.SO_RCVBUF sock_buf_bytes
         with Unix.Unix_error (_, _, _) -> ());
        if List.length t.sessions >= t.cfg.max_sessions then begin
          (* Best-effort refusal; the fd is non-blocking, a lost byte
             just looks like a reset to the peer. *)
          let buf = Buffer.create 64 in
          Frame.encode_server buf
            (Frame.Err { code = Frame.Err_server_full; message = "session limit reached" });
          let b = Buffer.to_bytes buf in
          (try ignore (Unix.write fd b 0 (Bytes.length b) [@cq.blocking_ok])
           (* refusal fd is fresh and non-blocking: a full socket buffer
              errors out instead of stalling the loop *)
           with Unix.Unix_error (_, _, _) -> ());
          try Unix.close fd with Unix.Unix_error (_, _, _) -> ()
        end
        else begin
          let sid = t.next_sid in
          t.next_sid <- sid + 1;
          let s =
            Session.create ~sid ~fd ~queue_cap:t.cfg.session_queue
              ~max_frame:t.cfg.max_frame
          in
          (* Sids grow, so appending keeps the list in sid order. *)
          t.sessions <- t.sessions @ [ s ];
          Metrics.set m_active (float_of_int (List.length t.sessions))
        end
  done

(* ---------------------------- frame handling --------------------------- *)

(* The engine accepts windows with infinite ends; [lo <= hi] is false
   when either end is NaN, so it also turns those away. *)
let valid_range lo hi = lo <= hi

let register t s ~subscribe =
  let qid = t.next_qid in
  t.next_qid <- qid + 1;
  match subscribe qid with
  | Ok sub ->
      Hashtbl.replace t.subs qid { sub; owner = Session.sid s };
      Session.add_qid s qid;
      send_ctrl t s (Frame.Registered { qid })
  | Error e ->
      t.next_qid <- qid;
      send_ctrl t s (Frame.Err { code = Frame.Err_engine; message = Error.to_string e })

(* A protocol violation (framing error or handshake breach) is fatal:
   one ERR {proto}, then the session drains and closes. *)
let proto_violation t s message =
  t.proto_errors <- t.proto_errors + 1;
  Metrics.incr m_proto_errors;
  send_ctrl t s (Frame.Err { code = Frame.Err_proto; message });
  Session.mark_closing s

let handle_frame t s (frame : Frame.client_frame) =
  match frame with
  | Frame.Hello { version } ->
      if Session.greeted s then
        proto_violation t s "HELLO must be the first frame of a session, exactly once"
      else if version = Frame.protocol_version then begin
        Session.mark_greeted s;
        send_ctrl t s
          (Frame.Welcome { version = Frame.protocol_version; session_id = Session.sid s })
      end
      else
        proto_violation t s
          (Printf.sprintf "protocol version %d unsupported (server speaks %d)" version
             Frame.protocol_version)
  | _ when not (Session.greeted s) ->
      (* Version negotiation cannot be skipped: no other frame means
         anything before the handshake pins what we are speaking. *)
      proto_violation t s "expected HELLO as the first frame"
  | Frame.Register_band { lo; hi } ->
      if not (valid_range lo hi) then
        send_ctrl t s
          (Frame.Err { code = Frame.Err_bad_request; message = "band range needs lo <= hi, no NaN" })
      else
        register t s ~subscribe:(fun qid ->
            Par.try_subscribe_band t.par ~range:(I.make lo hi) (Session.record_result s ~qid))
  | Frame.Register_select { a_lo; a_hi; c_lo; c_hi } ->
      if not (valid_range a_lo a_hi && valid_range c_lo c_hi) then
        send_ctrl t s
          (Frame.Err
             { code = Frame.Err_bad_request; message = "select ranges need lo <= hi, no NaN" })
      else
        register t s ~subscribe:(fun qid ->
            Par.try_subscribe_select t.par ~range_a:(I.make a_lo a_hi)
              ~range_c:(I.make c_lo c_hi) (Session.record_result s ~qid))
  | Frame.Drop { qid } -> (
      match Hashtbl.find_opt t.subs qid with
      | Some { sub; owner } when owner = Session.sid s ->
          ignore (Par.unsubscribe t.par sub);
          Hashtbl.remove t.subs qid;
          Session.remove_qid s qid;
          send_ctrl t s (Frame.Dropped { qid })
      | Some _ | None ->
          send_ctrl t s
            (Frame.Err
               { code = Frame.Err_bad_request; message = Printf.sprintf "q%d is not yours to drop" qid }))
  | Frame.Batch { side; rows } ->
      let n = Cq_relation.Batch.length rows in
      Metrics.incr m_batches_in;
      if n = 0 then send_ctrl t s (Frame.Batch_ok { rows = 0 })
      else begin
        let engine_side = match side with Frame.R -> Par.R | Frame.S -> Par.S in
        match Par.try_ingest_batch_flat t.par engine_side rows with
        | Ok () ->
            t.dirty <- true;
            Metrics.add m_rows_in n;
            send_ctrl t s (Frame.Batch_ok { rows = n })
        | Error (Error.Overload { retry_after_ms; _ }) ->
            t.overloads_sent <- t.overloads_sent + 1;
            Metrics.incr m_overloads;
            send_ctrl t s
              (Frame.Overload { source = Frame.Engine_admission; dropped = n; retry_after_ms })
        | Error e ->
            send_ctrl t s (Frame.Err { code = Frame.Err_engine; message = Error.to_string e })
      end
  | Frame.Flush -> Session.request_flush s
  | Frame.Ping { token } -> send_ctrl t s (Frame.Pong { token })
  | Frame.Bye ->
      send_ctrl t s Frame.Goodbye;
      Session.mark_closing s

let handle_proto_error t s e = proto_violation t s (Frame.proto_error_to_string e)

let handle_readable t s =
  (* Session fds are non-blocking (set at accept): read returns EAGAIN
     rather than waiting for bytes. *)
  match (Unix.read (Session.fd s) t.rbuf 0 (Bytes.length t.rbuf) [@cq.blocking_ok]) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error (_, _, _) -> close_session t s
  | 0 -> (
      match Frame.Decoder.at_eof (Session.decoder s) with
      | Ok () -> close_session t s
      | Error _ ->
          t.proto_errors <- t.proto_errors + 1;
          Metrics.incr m_proto_errors;
          close_session t s)
  | n ->
      Frame.Decoder.feed (Session.decoder s) t.rbuf ~off:0 ~len:n;
      let continue = ref true in
      while !continue && not (Session.closing s || Session.closed s) do
        let t0 = if Metrics.enabled () then Cq_util.Clock.monotonic_ns () else 0L in
        match Frame.Decoder.next_client (Session.decoder s) with
        | Frame.Decoder.Frame f ->
            if Metrics.enabled () then
              Metrics.observe m_decode_ns
                (Int64.to_float (Int64.sub (Cq_util.Clock.monotonic_ns ()) t0));
            Session.count_frame_in s;
            Metrics.incr m_frames_in;
            handle_frame t s f
        | Frame.Decoder.Awaiting -> continue := false
        | Frame.Decoder.Broken e ->
            handle_proto_error t s e;
            continue := false
      done

(* ------------------------------- flush --------------------------------- *)

(* The flush's callbacks encode each result row into its session's
   result FIFO ([Session.record_result]); closing the flush per session
   then accounts the rows and queues the OVERLOAD and FLUSHED notices. *)
let do_flush t =
  ignore (Par.flush t.par);
  t.flushes <- t.flushes + 1;
  t.dirty <- false;
  let t0 = Metrics.stamp () in
  List.iter
    (fun s ->
      if not (Session.closed s) then begin
        let before = Session.dropped_rows s in
        let delivered = Session.end_flush s in
        let dropped = Session.dropped_rows s - before in
        t.results_delivered <- t.results_delivered + delivered;
        Metrics.add m_results_delivered delivered;
        t.results_dropped <- t.results_dropped + dropped;
        Metrics.add m_results_dropped dropped;
        maybe_notify_overload t s;
        if Session.flush_requested s then begin
          Session.clear_flush_request s;
          Session.set_flush_ack s delivered
        end;
        ignore (Session.try_send_flush_ack s)
      end)
    t.sessions;
  Metrics.observe_since m_fanout_ns t0

(* ------------------------------- the tick ------------------------------ *)

let step t ~timeout =
  let sessions = t.sessions in
  let reads =
    t.stop_r
    :: (if t.stopping || List.length t.sessions >= t.cfg.max_sessions + 8 then [] else [ t.listen_fd ])
    @ List.filter_map
        (fun s ->
          if Session.closing s || Session.closed s || Session.throttled s then None
          else Some (Session.fd s))
        sessions
  in
  let writes = List.filter_map (fun s -> if Session.wants_write s then Some (Session.fd s) else None) sessions in
  let readable, _writable, _ =
    (* select is the event loop's one sanctioned wait: bounded by
       [timeout] and woken early by the stop pipe. *)
    match (Unix.select reads writes [] timeout [@cq.blocking_ok]) with
    | r -> r
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
  in
  let handled = ref 0 in
  if List.memq t.stop_r readable then begin
    let b = Bytes.create 16 in
    (try
       (* stop_r is the non-blocking read end of the stop pipe: the
          drain ends on EAGAIN, not on quiescence. *)
       while (Unix.read t.stop_r b 0 16 [@cq.blocking_ok]) > 0 do
         ()
       done
     with Unix.Unix_error (_, _, _) -> ());
    t.stopping <- true
  end;
  if List.memq t.listen_fd readable then accept_loop t;
  List.iter
    (fun s ->
      if (not (Session.closed s)) && List.memq (Session.fd s) readable then begin
        let before = Session.frames_in s in
        handle_readable t s;
        handled := !handled + (Session.frames_in s - before)
      end)
    sessions;
  if t.dirty || List.exists (fun s -> Session.flush_requested s) t.sessions then do_flush t;
  (* Opportunistic writes: sockets are non-blocking, so attempting
     every session with queued output costs at most one EWOULDBLOCK;
     the select write-set exists to wake the loop, not to gate this. *)
  let t0 = Metrics.stamp () in
  List.iter
    (fun s ->
      if not (Session.closed s) then begin
        (if Session.wants_write s then
           match Session.write_step s with
           | `Gone -> close_session t s
           | `Blocked | `Drained -> ());
        if not (Session.closed s) then begin
          ignore (Session.try_send_flush_ack s);
          maybe_notify_overload t s;
          if Session.closing s && not (Session.wants_write s) then close_session t s
        end
      end)
    t.sessions;
  Metrics.observe_since m_write_ns t0;
  !handled

let debug_dump t =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "sessions=%d dirty=%b\n" (List.length t.sessions) t.dirty);
  List.iter
    (fun s ->
      Buffer.add_string b
        (Printf.sprintf
           "  sid=%d throttled=%b out=%d wants_write=%b closing=%b flush_req=%b ack_due=%b dropped=%d results_sent=%d\n"
           (Session.sid s) (Session.throttled s) (Session.out_depth s)
           (Session.wants_write s) (Session.closing s) (Session.flush_requested s)
           (Session.flush_ack_due s) (Session.dropped_rows s) (Session.results_sent s)))
    t.sessions;
  Buffer.contents b

let stop t =
  (* One byte into the non-blocking stop pipe; a full pipe already
     guarantees a pending wakeup. *)
  try ignore (Unix.write t.stop_w (Bytes.make 1 '!') 0 1 [@cq.blocking_ok])
  with Unix.Unix_error (_, _, _) -> ()

let teardown t =
  if not t.torn_down then begin
    t.torn_down <- true;
    List.iter (retire t) t.sessions;
    t.sessions <- [];
    Hashtbl.reset t.subs;
    (try Unix.close t.listen_fd with Unix.Unix_error (_, _, _) -> ());
    (try Unix.close t.stop_r with Unix.Unix_error (_, _, _) -> ());
    (try Unix.close t.stop_w with Unix.Unix_error (_, _, _) -> ());
    Par.shutdown t.par
  end

let serve t =
  while not t.stopping do
    ignore (step t ~timeout:0.25)
  done;
  teardown t

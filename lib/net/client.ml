type t = {
  fd : Unix.file_descr;
  dec : Frame.Decoder.t;
  enc : Buffer.t;
  rbuf : Bytes.t;
  pushed : Frame.server_frame Queue.t;
  mutable session_id : int;
  mutable closed : bool;
}

type error =
  | Timeout
  | Closed_by_server
  | Protocol of Frame.proto_error
  | Server_error of { code : Frame.err_code; message : string }
  | Unexpected of string
  | Io of string

let error_to_string = function
  | Timeout -> "timeout waiting for server reply"
  | Closed_by_server -> "server closed the connection"
  | Protocol e -> Printf.sprintf "protocol error: %s" (Frame.proto_error_to_string e)
  | Server_error { code; message } ->
      Printf.sprintf "server error %d: %s" (Frame.err_code_to_int code) message
  | Unexpected what -> Printf.sprintf "unexpected reply: %s" what
  | Io msg -> Printf.sprintf "io error: %s" msg


let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error (_, _, _) -> ()
  end

let session_id t = t.session_id

let write_all fd b =
  let len = Bytes.length b in
  let off = ref 0 in
  let err = ref None in
  while !off < len && Option.is_none !err do
    match Unix.write fd b !off (len - !off) with
    | n -> off := !off + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (e, fn, _) ->
        err := Some (Io (Printf.sprintf "%s: %s" fn (Unix.error_message e)))
  done;
  match !err with Some e -> Error e | None -> Ok ()

let send t frame =
  if t.closed then Error (Io "client closed")
  else begin
    Buffer.clear t.enc;
    Frame.encode_client t.enc frame;
    write_all t.fd (Buffer.to_bytes t.enc)
  end

(* Read the next frame off the socket, ignoring the stash. *)
let rec read_frame t =
  match Frame.Decoder.next_server t.dec with
  | Frame.Decoder.Frame f -> Ok f
  | Frame.Decoder.Broken e -> Error (Protocol e)
  | Frame.Decoder.Awaiting -> (
      match Unix.read t.fd t.rbuf 0 (Bytes.length t.rbuf) with
      | 0 -> (
          match Frame.Decoder.at_eof t.dec with
          | Ok () -> Error Closed_by_server
          | Error e -> Error (Protocol e))
      | n ->
          Frame.Decoder.feed t.dec t.rbuf ~off:0 ~len:n;
          read_frame t
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> Error Timeout
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_frame t
      | exception Unix.Unix_error (e, fn, _) ->
          Error (Io (Printf.sprintf "%s: %s" fn (Unix.error_message e))))

let recv t =
  if t.closed then Error (Io "client closed")
  else
    match Queue.take_opt t.pushed with Some f -> Ok f | None -> read_frame t

(* Wait for the reply [terminal] recognises, stashing asynchronous
   pushes that arrive first. *)
let rec rpc_wait t ~terminal =
  match read_frame t with
  | Error _ as e -> e
  | Ok f -> (
      match terminal f with
      | Some r -> r
      | None -> (
          match f with
          | Frame.Results _ | Frame.Overload _ ->
              Queue.add f t.pushed;
              rpc_wait t ~terminal
          | Frame.Err { code; message } -> Error (Server_error { code; message })
          | other ->
              Error
                (Unexpected (Format.asprintf "%a" Frame.pp_server_frame other))))

let rpc t frame ~terminal =
  match send t frame with Error _ as e -> e | Ok () -> rpc_wait t ~terminal

(* Same rationale as the server's: a vanished peer must cost an EPIPE
   on this socket, not a process-killing SIGPIPE. *)
let ignore_sigpipe =
  lazy
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ | Sys_error _ -> ())

let connect ?(recv_timeout = 5.0) ?(max_frame = Frame.default_max_frame) ~addr () =
  Lazy.force ignore_sigpipe;
  match
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       (* Fixed buffers, set before connect so the negotiated window
          can never outgrow them: auto-tuning grows the receive window
          of a bursty reader past what the kernel will allocate, and
          the overflow segments are dropped — on loopback that turns
          into RTO-backoff stalls of several seconds. *)
       (try
          Unix.setsockopt_int fd Unix.SO_RCVBUF (256 * 1024);
          Unix.setsockopt_int fd Unix.SO_SNDBUF (256 * 1024)
        with Unix.Unix_error (_, _, _) -> ());
       Unix.connect fd addr;
       (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error (_, _, _) -> ());
       Unix.setsockopt_float fd Unix.SO_RCVTIMEO recv_timeout
     with e ->
       (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
       raise e);
    fd
  with
  | exception Unix.Unix_error (e, fn, _) ->
      Error (Io (Printf.sprintf "%s: %s" fn (Unix.error_message e)))
  | fd -> (
      let t =
        {
          fd;
          dec = Frame.Decoder.create ~max_frame ();
          enc = Buffer.create 1024;
          rbuf = Bytes.create 65536;
          pushed = Queue.create ();
          session_id = 0;
          closed = false;
        }
      in
      match
        rpc t
          (Frame.Hello { version = Frame.protocol_version })
          ~terminal:(function
            | Frame.Welcome { session_id; _ } -> Some (Ok session_id)
            | _ -> None)
      with
      | Ok sid ->
          t.session_id <- sid;
          Ok t
      | Error e ->
          close t;
          Error e)

let register_band t ~lo ~hi =
  rpc t
    (Frame.Register_band { lo; hi })
    ~terminal:(function Frame.Registered { qid } -> Some (Ok qid) | _ -> None)

let register_select t ~a_lo ~a_hi ~c_lo ~c_hi =
  rpc t
    (Frame.Register_select { a_lo; a_hi; c_lo; c_hi })
    ~terminal:(function Frame.Registered { qid } -> Some (Ok qid) | _ -> None)

let drop t ~qid =
  rpc t (Frame.Drop { qid })
    ~terminal:(function
      | Frame.Dropped { qid = q } when q = qid -> Some (Ok ()) | _ -> None)

type batch_reply =
  | Accepted of int
  | Overloaded of { source : Frame.overload_source; dropped : int; retry_after_ms : float }

let send_batch t ~side rows =
  rpc t
    (Frame.Batch { side; rows })
    ~terminal:(function
      | Frame.Batch_ok { rows } -> Some (Ok (Accepted rows))
      | Frame.Overload { source = Frame.Engine_admission as source; dropped; retry_after_ms }
        ->
          Some (Ok (Overloaded { source; dropped; retry_after_ms }))
      | _ -> None)

let flush t =
  rpc t Frame.Flush
    ~terminal:(function Frame.Flushed { results } -> Some (Ok results) | _ -> None)

let ping t ~token =
  rpc t (Frame.Ping { token })
    ~terminal:(function
      | Frame.Pong { token = tk } when tk = token -> Some (Ok ()) | _ -> None)

let bye t =
  let r =
    rpc t Frame.Bye ~terminal:(function Frame.Goodbye -> Some (Ok ()) | _ -> None)
  in
  close t;
  r

(* Move whatever the kernel has buffered into the decoder without
   consuming any frame: bytes wait there until the next [recv]/RPC
   reads them in order.  Keeping the kernel receive buffer drained
   matters more than it looks — an idle client that lets it fill makes
   the peer's TCP drop in-window segments once the advertised window
   outruns what the kernel will actually allocate (skb overhead), and
   the retransmit then sits out an exponentially backed-off RTO:
   multi-second stalls on an idle loopback. *)
let pump t =
  if t.closed then Error (Io "client closed")
  else begin
    let err = ref None in
    (try
       Unix.set_nonblock t.fd;
       let continue = ref true in
       while !continue do
         match Unix.read t.fd t.rbuf 0 (Bytes.length t.rbuf) with
         | 0 -> continue := false
         | n -> Frame.Decoder.feed t.dec t.rbuf ~off:0 ~len:n
         | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
             continue := false
         | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
         | exception Unix.Unix_error (e, fn, _) ->
             err := Some (Io (Printf.sprintf "%s: %s" fn (Unix.error_message e)));
             continue := false
       done
     with e ->
       (try Unix.clear_nonblock t.fd with Unix.Unix_error (_, _, _) -> ());
       raise e);
    (try Unix.clear_nonblock t.fd with Unix.Unix_error (_, _, _) -> ());
    match !err with Some e -> Error e | None -> Ok ()
  end

let take_results t =
  let acc = ref [] in
  let keep = Queue.create () in
  Queue.iter
    (fun f ->
      match f with
      | Frame.Results { qid; rows } -> acc := (qid, rows) :: !acc
      | other -> Queue.add other keep)
    t.pushed;
  Queue.clear t.pushed;
  Queue.transfer keep t.pushed;
  List.rev !acc

let take_overloads t =
  let acc = ref [] in
  let keep = Queue.create () in
  Queue.iter
    (fun f ->
      match f with
      | Frame.Overload { source; dropped; retry_after_ms } ->
          acc := (source, dropped, retry_after_ms) :: !acc
      | other -> Queue.add other keep)
    t.pushed;
  Queue.clear t.pushed;
  Queue.transfer keep t.pushed;
  List.rev !acc

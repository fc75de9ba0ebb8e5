(* Tests for the network front-end: wire-codec round-trips and decoder
   totality (property-based), the live loopback driver at 64 concurrent
   sessions, protocol fuzzing against a real server, slow-reader
   backpressure with provably bounded buffers, and the served-vs-direct
   differential oracle over a seed sweep.

   Ordering matters: the live-server tests run BEFORE the oracle suite.
   [Driver.run_workload] prefers forking the server into a child
   process, and [Unix.fork] refuses to run once this process has ever
   created a domain — which the oracle's direct replay does.  Listing
   the fork-capable tests first exercises both backends: forked here,
   domain-fallback in the oracle sweep. *)

module Frame = Cq_net.Frame
module Client = Cq_net.Client
module Server = Cq_net.Server
module Driver = Cq_net.Driver
module Session = Cq_net.Session
module Metrics = Cq_obs.Metrics
module Tuple = Cq_relation.Tuple
module Batch = Cq_relation.Batch
module Oracle = Cq_robust.Oracle
module Fault = Cq_robust.Fault
module Engine = Cq_engine.Engine
module I = Cq_interval.Interval

(* ----------------------------- frame codec ----------------------------- *)

(* Floats built from small ints round-trip binary64 exactly, so frame
   equality after decode is plain structural equality. *)
let gfloat = QCheck2.Gen.(map (fun n -> float_of_int (n - 500)) (int_bound 1000))

let grows n =
  QCheck2.Gen.(array_size (int_bound n) (pair gfloat gfloat))

let gclient_frame =
  let open QCheck2.Gen in
  oneof
    [
      map (fun v -> Frame.Hello { version = v }) (int_bound 255);
      map2 (fun lo hi -> Frame.Register_band { lo; hi }) gfloat gfloat;
      map
        (fun (((a_lo, a_hi), c_lo), c_hi) ->
          Frame.Register_select { a_lo; a_hi; c_lo; c_hi })
        (pair (pair (pair gfloat gfloat) gfloat) gfloat);
      map (fun qid -> Frame.Drop { qid }) (int_bound 10_000);
      map2
        (fun side rows ->
          Frame.Batch
            { side = (if side then Frame.R else Frame.S); rows = Batch.of_rows rows })
        bool (grows 40);
      return Frame.Flush;
      map (fun token -> Frame.Ping { token }) (int_bound 1_000_000);
      return Frame.Bye;
    ]

let gserver_frame =
  let open QCheck2.Gen in
  let g4 = map (fun ((a, b), (c, d)) -> (a, b, c, d)) (pair (pair gfloat gfloat) (pair gfloat gfloat)) in
  oneof
    [
      map2 (fun v sid -> Frame.Welcome { version = v; session_id = sid }) (int_bound 255)
        (int_bound 100_000);
      map (fun qid -> Frame.Registered { qid }) (int_bound 10_000);
      map (fun qid -> Frame.Dropped { qid }) (int_bound 10_000);
      map (fun rows -> Frame.Batch_ok { rows }) (int_bound 100_000);
      map2 (fun qid rows -> Frame.Results { qid; rows }) (int_bound 10_000)
        (array_size (int_bound 40) g4);
      map (fun results -> Frame.Flushed { results }) (int_bound 100_000);
      map (fun token -> Frame.Pong { token }) (int_bound 1_000_000);
      map2
        (fun src (dropped, retry) ->
          Frame.Overload
            {
              source = (if src then Frame.Engine_admission else Frame.Slow_session);
              dropped;
              retry_after_ms = float_of_int retry;
            })
        bool
        (pair (int_bound 100_000) (int_bound 10_000));
      map2
        (fun code msg ->
          Frame.Err
            {
              code =
                (match code mod 4 with
                | 0 -> Frame.Err_proto
                | 1 -> Frame.Err_bad_request
                | 2 -> Frame.Err_engine
                | _ -> Frame.Err_server_full);
              message = msg;
            })
        (int_bound 3) (string_size ~gen:printable (int_bound 60));
      return Frame.Goodbye;
    ]

(* Feed [b] to [dec] in pseudo-random chunks of 1..7 bytes so every
   header/body boundary is crossed mid-chunk somewhere in the run. *)
let feed_chunked dec b seed =
  let st = Random.State.make [| seed |] in
  let len = Bytes.length b in
  let off = ref 0 in
  while !off < len do
    let n = min (1 + Random.State.int st 7) (len - !off) in
    Frame.Decoder.feed dec b ~off:!off ~len:n;
    off := !off + n
  done

(* Structural equality except batches, whose representation carries
   capacity: compare their extracted rows. *)
let client_frame_eq a b =
  match (a, b) with
  | Frame.Batch { side = s1; rows = r1 }, Frame.Batch { side = s2; rows = r2 } ->
      s1 = s2 && Batch.to_rows r1 = Batch.to_rows r2
  | a, b -> a = b

let test_client_roundtrip =
  QCheck2.Test.make ~name:"frame: client frames round-trip chunked" ~count:300
    QCheck2.Gen.(pair (list_size (int_bound 8) gclient_frame) (int_bound 1000))
    (fun (frames, seed) ->
      let buf = Buffer.create 1024 in
      List.iter (Frame.encode_client buf) frames;
      let dec = Frame.Decoder.create () in
      feed_chunked dec (Buffer.to_bytes buf) seed;
      let decoded = ref [] in
      let rec drain () =
        match Frame.Decoder.next_client dec with
        | Frame.Decoder.Frame f ->
            decoded := f :: !decoded;
            drain ()
        | Frame.Decoder.Awaiting -> ()
        | Frame.Decoder.Broken e ->
            QCheck2.Test.fail_reportf "decoder broke: %s" (Frame.proto_error_to_string e)
      in
      drain ();
      (match Frame.Decoder.at_eof dec with
      | Ok () -> ()
      | Error e ->
          QCheck2.Test.fail_reportf "eof not clean: %s" (Frame.proto_error_to_string e));
      let decoded = List.rev !decoded in
      List.length decoded = List.length frames
      && List.for_all2 client_frame_eq frames decoded)

let test_server_roundtrip =
  QCheck2.Test.make ~name:"frame: server frames round-trip chunked" ~count:300
    QCheck2.Gen.(pair (list_size (int_bound 8) gserver_frame) (int_bound 1000))
    (fun (frames, seed) ->
      let buf = Buffer.create 1024 in
      List.iter (Frame.encode_server buf) frames;
      let dec = Frame.Decoder.create () in
      feed_chunked dec (Buffer.to_bytes buf) seed;
      let decoded = ref [] in
      let rec drain () =
        match Frame.Decoder.next_server dec with
        | Frame.Decoder.Frame f ->
            decoded := f :: !decoded;
            drain ()
        | Frame.Decoder.Awaiting -> ()
        | Frame.Decoder.Broken e ->
            QCheck2.Test.fail_reportf "decoder broke: %s" (Frame.proto_error_to_string e)
      in
      drain ();
      List.rev !decoded = frames)

(* Totality: no byte soup makes the decoder raise or loop; it either
   yields frames, waits, or reports a sticky typed error. *)
let test_decoder_total =
  QCheck2.Test.make ~name:"frame: decoder total on garbage" ~count:500
    QCheck2.Gen.(pair (bytes_size (int_bound 512)) (int_bound 1000))
    (fun (garbage, seed) ->
      let dec = Frame.Decoder.create ~max_frame:4096 () in
      feed_chunked dec garbage seed;
      let steps = ref 0 in
      let rec drain () =
        incr steps;
        if !steps > Bytes.length garbage + 8 then
          QCheck2.Test.fail_reportf "decoder failed to converge"
        else
          match Frame.Decoder.next_client dec with
          | Frame.Decoder.Frame _ -> drain ()
          | Frame.Decoder.Awaiting -> `Awaiting
          | Frame.Decoder.Broken e -> `Broken e
      in
      match drain () with
      | `Awaiting -> true
      | `Broken e ->
          (* Sticky: the error repeats, it does not mutate or reset. *)
          (match Frame.Decoder.next_client dec with
          | Frame.Decoder.Broken e' -> e = e'
          | _ -> QCheck2.Test.fail_reportf "broken decoder recovered"))

let test_decoder_classification () =
  (* Unknown tag: 0x7f is in the client space but unassigned. *)
  let dec = Frame.Decoder.create () in
  Frame.Decoder.feed dec (Bytes.of_string "\x7f\x00\x00\x00\x00") ~off:0 ~len:5;
  (match Frame.Decoder.next_client dec with
  | Frame.Decoder.Broken (Frame.Unknown_tag { tag = 0x7f }) -> ()
  | _ -> Alcotest.fail "expected Unknown_tag 0x7f");
  (* Server tags are invisible to the client-direction decoder. *)
  let dec = Frame.Decoder.create () in
  let buf = Buffer.create 16 in
  Frame.encode_server buf Frame.Goodbye;
  let b = Buffer.to_bytes buf in
  Frame.Decoder.feed dec b ~off:0 ~len:(Bytes.length b);
  (match Frame.Decoder.next_client dec with
  | Frame.Decoder.Broken (Frame.Unknown_tag _) -> ()
  | _ -> Alcotest.fail "server tag decoded as client frame");
  (* Hostile length prefix: rejected from the header alone, before any
     body byte is buffered. *)
  let dec = Frame.Decoder.create ~max_frame:1024 () in
  Frame.Decoder.feed dec (Bytes.of_string "\x01\x7f\xff\xff\xff") ~off:0 ~len:5;
  (match Frame.Decoder.next_client dec with
  | Frame.Decoder.Broken (Frame.Oversized { limit = 1024; _ }) -> ()
  | _ -> Alcotest.fail "expected Oversized");
  (* Truncation is only an error at EOF; mid-stream it is Awaiting. *)
  let dec = Frame.Decoder.create () in
  Frame.Decoder.feed dec (Bytes.of_string "\x07\x00\x00\x00\x08\x01\x02") ~off:0 ~len:7;
  (match Frame.Decoder.next_client dec with
  | Frame.Decoder.Awaiting -> ()
  | _ -> Alcotest.fail "partial frame should be Awaiting");
  (match Frame.Decoder.at_eof dec with
  | Error (Frame.Truncated { buffered }) ->
      Alcotest.(check bool) "buffered bytes reported" true (buffered > 0)
  | _ -> Alcotest.fail "expected Truncated at eof")

(* ------------------------------- driver -------------------------------- *)

let test_gen_workload_deterministic () =
  let mk () =
    Driver.gen_workload ~seed:9 ~sessions:5 ~queries_per_session:3 ~batches:20
      ~rows_per_batch:8
  in
  Alcotest.(check bool) "same seed, same workload" true (mk () = mk ());
  let other =
    Driver.gen_workload ~seed:10 ~sessions:5 ~queries_per_session:3 ~batches:20
      ~rows_per_batch:8
  in
  Alcotest.(check bool) "different seed differs" true (mk () <> other)

(* ----------------------------- live server ----------------------------- *)

let test_fuzz_live_server () =
  let o = Driver.fuzz ~conns:32 ~seed:7 () in
  Alcotest.(check int) "no hangs" 0 o.Driver.fz_hangs;
  Alcotest.(check int) "every connection accounted" o.Driver.fz_conns
    (o.Driver.fz_typed_errors + o.Driver.fz_clean_eofs);
  match o.Driver.fz_server with
  | None -> Alcotest.fail "server did not survive the fuzz run"
  | Some st ->
      Alcotest.(check bool) "typed protocol errors counted" true
        (st.Server.net_proto_errors > 0)

let test_sixty_four_sessions () =
  let w =
    Driver.gen_workload ~seed:42 ~sessions:64 ~queries_per_session:2 ~batches:96
      ~rows_per_batch:16
  in
  match Driver.run_workload w with
  | Error e -> Alcotest.failf "run failed: %s" (Client.error_to_string e)
  | Ok o ->
      Alcotest.(check int) "one result stream per session" 64
        (Array.length o.Driver.results);
      Alcotest.(check int) "no rows dropped at lockstep depth" 0
        o.Driver.server.Server.net_results_dropped;
      Alcotest.(check bool) "results flowed" true
        (o.Driver.server.Server.net_results_delivered > 0);
      Alcotest.(check bool) "every session got its qids" true
        (Array.for_all (fun qs -> Array.length qs = 2) o.Driver.qids);
      Alcotest.(check int) "latency sample per batch" 96
        (Array.length o.Driver.latencies_ns)

(* Lockstep drains each batch before the next is sent, so a queue that
   holds one batch's RESULTS frames never overflows, however many
   batches the run has: 2 sessions x 30 queries over 100 batches of 16
   rows stay within a 256-frame queue.  Without the per-batch drain the
   frames of several batches pile up and this drops rows, a different
   number each run. *)
let test_lockstep_never_drops () =
  let w =
    Driver.gen_workload ~seed:1 ~sessions:2 ~queries_per_session:30 ~batches:100
      ~rows_per_batch:16
  in
  let run () =
    match Driver.run_workload ~session_queue:256 w with
    | Error e -> Alcotest.failf "run failed: %s" (Client.error_to_string e)
    | Ok o ->
        Alcotest.(check int) "no overload notices" 0 (List.length o.Driver.overloads);
        Alcotest.(check int) "no overload frames" 0 o.Driver.server.Server.net_overloads;
        Alcotest.(check int) "no rows dropped" 0 o.Driver.server.Server.net_results_dropped;
        o.Driver.results
  in
  let first = run () in
  Alcotest.(check bool) "results flowed" true
    (Array.exists (fun frames -> Array.length frames > 0) first);
  Alcotest.(check bool) "identical streams over two runs" true (first = run ())

(* ------------------------- slow-reader backpressure --------------------- *)

(* Step-driven: the server runs in THIS domain via [Server.step], the
   client is a raw socket we write to and deliberately do not read.
   With a 4-frame session queue, a flush fanning out ~10k result rows
   must keep at most 4 frames (2048 rows) buffered, drop the rest, and
   say so in one coalesced Slow_session OVERLOAD — bounded memory,
   typed degradation, no hang. *)

let loopback port = Unix.ADDR_INET (Unix.inet_addr_loopback, port)

(* Send [frames] in one write. *)
let rsend_all fd frames =
  let buf = Buffer.create 256 in
  List.iter (Frame.encode_client buf) frames;
  let b = Buffer.to_bytes buf in
  let off = ref 0 in
  while !off < Bytes.length b do
    match Unix.write fd b !off (Bytes.length b - !off) with
    | n -> off := !off + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let rsend fd frame = rsend_all fd [ frame ]

(* Step the server until [pred] matches a decoded frame or the round
   budget runs out; collected frames accumulate in [got]. *)
let step_until srv fd dec got ~what pred =
  let rbuf = Bytes.create 65536 in
  let deadline = 500 in
  let rec drain_frames () =
    match Frame.Decoder.next_server dec with
    | Frame.Decoder.Frame f ->
        got := f :: !got;
        if pred f then true else drain_frames ()
    | Frame.Decoder.Awaiting -> false
    | Frame.Decoder.Broken e ->
        Alcotest.failf "client decoder broke: %s" (Frame.proto_error_to_string e)
  in
  let rec loop n =
    if n > deadline then Alcotest.failf "timed out waiting for %s" what
    else if drain_frames () then ()
    else begin
      ignore (Server.step srv ~timeout:0.01);
      (match Unix.read fd rbuf 0 (Bytes.length rbuf) with
      | 0 -> Alcotest.failf "server closed while waiting for %s" what
      | n -> Frame.Decoder.feed dec rbuf ~off:0 ~len:n
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop (n + 1)
    end
  in
  loop 0

let test_slow_reader_bounded () =
  let queue_cap = 4 in
  let config = { Server.default_config with session_queue = queue_cap } in
  let srv = Server.create ~config ~addr:(loopback 0) () in
  Fun.protect ~finally:(fun () -> Server.teardown srv) @@ fun () ->
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
  @@ fun () ->
  Unix.connect fd (loopback (Server.port srv));
  Unix.set_nonblock fd;
  let dec = Frame.Decoder.create () in
  let got = ref [] in
  rsend fd (Frame.Hello { version = Frame.protocol_version });
  step_until srv fd dec got ~what:"Welcome" (function
    | Frame.Welcome _ -> true
    | _ -> false);
  rsend fd (Frame.Register_band { lo = -1e6; hi = 1e6 });
  step_until srv fd dec got ~what:"Registered" (function
    | Frame.Registered _ -> true
    | _ -> false);
  (* 100 R rows x 100 S rows, all joining: ~10k result rows = ~20
     frames against a 4-frame queue.  Send everything and the flush
     BEFORE reading a single reply — the wire acks queue behind the
     results, so nothing here deadlocks only because every buffer
     involved is bounded and the server never blocks on one session. *)
  let rows = Array.init 100 (fun i -> (float_of_int (i mod 7), 0.0)) in
  rsend fd (Frame.Batch { side = Frame.R; rows = Batch.of_rows rows });
  rsend fd (Frame.Batch { side = Frame.S; rows = Batch.of_rows rows });
  rsend fd Frame.Flush;
  (* Let the server ingest and flush while we stay silent. *)
  for _ = 1 to 20 do
    ignore (Server.step srv ~timeout:0.01)
  done;
  let st = Server.stats srv in
  let max_rows_buffered = queue_cap * 512 in
  Alcotest.(check bool) "rows dropped at the bound" true
    (st.Server.net_results_dropped > 0);
  Alcotest.(check bool) "buffered rows bounded by the queue" true
    (st.Server.net_results_delivered <= max_rows_buffered);
  Alcotest.(check int) "every result row accounted" (100 * 100)
    (st.Server.net_results_delivered + st.Server.net_results_dropped);
  Alcotest.(check bool) "overload notice issued" true (st.Server.net_overloads > 0);
  (* The diagnostic dump agrees the session is parked, not growing. *)
  Alcotest.(check bool) "session visible in dump" true
    (String.length (Server.debug_dump srv) > 0);
  (* Now read: the coalesced Slow_session OVERLOAD must arrive with the
     full drop count, then the flush ack, and the session stays usable. *)
  step_until srv fd dec got ~what:"Flushed ack" (function
    | Frame.Flushed _ -> true
    | _ -> false);
  let overload_rows =
    List.fold_left
      (fun acc f ->
        match f with
        | Frame.Overload { source = Frame.Slow_session; dropped; _ } -> acc + dropped
        | _ -> acc)
      0 !got
  in
  Alcotest.(check int) "OVERLOAD reports every dropped row"
    st.Server.net_results_dropped overload_rows;
  let delivered_rows =
    List.fold_left
      (fun acc f ->
        match f with Frame.Results { rows; _ } -> acc + Array.length rows | _ -> acc)
      0 !got
  in
  Alcotest.(check int) "surviving rows all reach the wire"
    st.Server.net_results_delivered delivered_rows;
  rsend fd (Frame.Ping { token = 99 });
  step_until srv fd dec got ~what:"Pong" (function
    | Frame.Pong { token = 99 } -> true
    | _ -> false);
  rsend fd Frame.Bye;
  step_until srv fd dec got ~what:"Goodbye" (function
    | Frame.Goodbye -> true
    | _ -> false)

(* --------------------------- handshake gate ---------------------------- *)

(* HELLO must be the first frame of a session, exactly once: anything
   else before a successful handshake — and a repeated HELLO — draws a
   fatal ERR {proto} followed by a close, so version negotiation can
   never be bypassed. *)
let test_hello_required () =
  let srv = Server.create ~addr:(loopback 0) () in
  Fun.protect ~finally:(fun () -> Server.teardown srv) @@ fun () ->
  let violate frames ~what =
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
    @@ fun () ->
    Unix.connect fd (loopback (Server.port srv));
    Unix.set_nonblock fd;
    let dec = Frame.Decoder.create () in
    let got = ref [] in
    List.iter (rsend fd) frames;
    step_until srv fd dec got ~what (function
      | Frame.Err { code = Frame.Err_proto; _ } -> true
      | _ -> false);
    (* The violation is fatal: the session drains its error and closes. *)
    let rbuf = Bytes.create 1024 in
    let rec until_eof n =
      if n > 500 then Alcotest.failf "session survived: %s" what
      else begin
        ignore (Server.step srv ~timeout:0.01);
        match Unix.read fd rbuf 0 (Bytes.length rbuf) with
        | 0 -> ()
        | _ -> until_eof (n + 1)
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            until_eof (n + 1)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> until_eof (n + 1)
        | exception Unix.Unix_error (_, _, _) -> ()
      end
    in
    until_eof 0
  in
  violate [ Frame.Register_band { lo = 0.0; hi = 1.0 } ] ~what:"ERR for REGISTER before HELLO";
  violate [ Frame.Ping { token = 7 } ] ~what:"ERR for PING before HELLO";
  violate
    [
      Frame.Hello { version = Frame.protocol_version };
      Frame.Hello { version = Frame.protocol_version };
    ]
    ~what:"ERR for repeated HELLO";
  let st = Server.stats srv in
  Alcotest.(check bool) "handshake violations counted as protocol errors" true
    (st.Server.net_proto_errors >= 3)

(* ------------------------ fd budget / dead peers ------------------------ *)

(* select(2) cannot watch fds past FD_SETSIZE: the config validator
   must refuse session caps that could push a watched fd over it, and
   the default must sit inside the budget. *)
let test_max_sessions_fd_budget () =
  let dflt = Server.default_config in
  Alcotest.(check bool) "default max_sessions fits the select budget" true
    (dflt.Server.max_sessions <= 1000);
  match
    Server.try_create
      ~config:{ dflt with Server.max_sessions = 1024 }
      ~addr:(loopback 0) ()
  with
  | Error (Cq_util.Error.Invalid_parameter { name = "max_sessions"; _ }) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Cq_util.Error.to_string e)
  | Ok srv ->
      Server.teardown srv;
      Alcotest.fail "max_sessions past FD_SETSIZE was accepted"

(* A client that vanishes mid-stream (RST, unread fan-out in flight)
   must cost exactly its own session: server creation ignores SIGPIPE,
   so the dead socket's writes fail with EPIPE/ECONNRESET and the
   [`Gone] path reaps one session while the server keeps serving. *)
let test_abrupt_disconnect_survival () =
  let config = { Server.default_config with session_queue = 4 } in
  let srv = Server.create ~config ~addr:(loopback 0) () in
  Fun.protect ~finally:(fun () -> Server.teardown srv) @@ fun () ->
  (* The disposition itself: [Sys.signal] returns the old handler. *)
  let old = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Alcotest.(check bool) "SIGPIPE ignored after server creation" true
    (old = Sys.Signal_ignore);
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (loopback (Server.port srv));
  Unix.set_nonblock fd;
  let dec = Frame.Decoder.create () in
  let got = ref [] in
  rsend fd (Frame.Hello { version = Frame.protocol_version });
  step_until srv fd dec got ~what:"Welcome" (function
    | Frame.Welcome _ -> true
    | _ -> false);
  rsend fd (Frame.Register_band { lo = -1e6; hi = 1e6 });
  step_until srv fd dec got ~what:"Registered" (function
    | Frame.Registered _ -> true
    | _ -> false);
  (* Pile up fan-out this client will never read, then vanish with an
     RST (linger 0) while result frames are still queued/streaming. *)
  let rows = Array.init 64 (fun i -> (float_of_int (i mod 5), 0.0)) in
  rsend fd (Frame.Batch { side = Frame.R; rows = Batch.of_rows rows });
  rsend fd (Frame.Batch { side = Frame.S; rows = Batch.of_rows rows });
  rsend fd Frame.Flush;
  for _ = 1 to 5 do
    ignore (Server.step srv ~timeout:0.01)
  done;
  Unix.setsockopt_optint fd Unix.SO_LINGER (Some 0);
  Unix.close fd;
  let rec reaped n =
    if n > 500 then Alcotest.fail "dead session never reaped"
    else begin
      ignore (Server.step srv ~timeout:0.01);
      if Server.active_sessions srv > 0 then reaped (n + 1)
    end
  in
  reaped 0;
  (* Same server, fresh client: still alive and speaking. *)
  let fd2 = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd2 with Unix.Unix_error (_, _, _) -> ())
  @@ fun () ->
  Unix.connect fd2 (loopback (Server.port srv));
  Unix.set_nonblock fd2;
  let dec2 = Frame.Decoder.create () in
  let got2 = ref [] in
  rsend fd2 (Frame.Hello { version = Frame.protocol_version });
  step_until srv fd2 dec2 got2 ~what:"Welcome after abrupt peer death" (function
    | Frame.Welcome _ -> true
    | _ -> false);
  rsend fd2 (Frame.Ping { token = 5 });
  step_until srv fd2 dec2 got2 ~what:"Pong after abrupt peer death" (function
    | Frame.Pong { token = 5 } -> true
    | _ -> false)

(* --------------------------- range validation --------------------------- *)

(* The engine takes windows with infinite ends, so the server must too:
   only a NaN end or lo > hi is a bad request.  The unbounded queries
   then deliver exactly what a direct engine delivers. *)
let test_unbounded_ranges () =
  let srv = Server.create ~addr:(loopback 0) () in
  Fun.protect ~finally:(fun () -> Server.teardown srv) @@ fun () ->
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
  @@ fun () ->
  Unix.connect fd (loopback (Server.port srv));
  Unix.set_nonblock fd;
  let dec = Frame.Decoder.create () in
  let got = ref [] in
  rsend fd (Frame.Hello { version = Frame.protocol_version });
  step_until srv fd dec got ~what:"Welcome" (function
    | Frame.Welcome _ -> true
    | _ -> false);
  let register frame ~what =
    rsend fd frame;
    let qid = ref (-1) in
    step_until srv fd dec got ~what (function
      | Frame.Registered { qid = q } ->
          qid := q;
          true
      | Frame.Err { message; _ } -> Alcotest.failf "%s refused: %s" what message
      | _ -> false);
    !qid
  in
  let refused frame ~what =
    rsend fd frame;
    step_until srv fd dec got ~what (function
      | Frame.Err { code = Frame.Err_bad_request; _ } -> true
      | Frame.Registered _ -> Alcotest.failf "%s accepted" what
      | _ -> false)
  in
  let band_range = I.make 0.0 infinity
  and range_a = I.make neg_infinity 5.0
  and range_c = I.make 1.0 4.0 in
  let band = register (Frame.Register_band { lo = 0.0; hi = infinity }) ~what:"band [0, +inf]" in
  let select =
    register
      (Frame.Register_select { a_lo = neg_infinity; a_hi = 5.0; c_lo = 1.0; c_hi = 4.0 })
      ~what:"select [-inf, 5]"
  in
  refused (Frame.Register_band { lo = Float.nan; hi = 1.0 }) ~what:"NaN band";
  refused (Frame.Register_band { lo = 2.0; hi = 1.0 }) ~what:"inverted band";
  refused
    (Frame.Register_select { a_lo = 0.0; a_hi = 1.0; c_lo = 0.0; c_hi = Float.nan })
    ~what:"NaN select";
  refused
    (Frame.Register_select { a_lo = 1.0; a_hi = 0.0; c_lo = 0.0; c_hi = 1.0 })
    ~what:"inverted select";
  let r_rows = Array.init 12 (fun i -> (float_of_int (i - 3), float_of_int (i mod 4))) in
  let s_rows = Array.init 12 (fun i -> (float_of_int (i mod 5), float_of_int (i mod 6))) in
  rsend fd (Frame.Batch { side = Frame.R; rows = Batch.of_rows r_rows });
  rsend fd (Frame.Batch { side = Frame.S; rows = Batch.of_rows s_rows });
  rsend fd Frame.Flush;
  step_until srv fd dec got ~what:"Flushed ack" (function
    | Frame.Flushed _ -> true
    | _ -> false);
  let served qid =
    List.concat_map
      (function Frame.Results { qid = q; rows } when q = qid -> Array.to_list rows | _ -> [])
      !got
    |> List.sort compare
  in
  let e = Engine.create () in
  let direct = Array.make 2 [] in
  let record i (r : Cq_relation.Tuple.r) (s : Cq_relation.Tuple.s) =
    direct.(i) <- (r.a, r.b, s.b, s.c) :: direct.(i)
  in
  ignore (Engine.subscribe_band e ~range:band_range (record 0));
  ignore (Engine.subscribe_select e ~range_a ~range_c (record 1));
  ignore (Engine.ingest_batch_r e (Batch.of_rows r_rows));
  ignore (Engine.ingest_batch_s e (Batch.of_rows s_rows));
  List.iteri
    (fun i (what, qid) ->
      let want = List.sort compare direct.(i) in
      Alcotest.(check bool) (what ^ " delivers") true (want <> []);
      Alcotest.(check int) (what ^ " result count") (List.length want) (List.length (served qid));
      Alcotest.(check bool) (what ^ " rows match the direct engine") true (served qid = want))
    [ ("band", band); ("select", select) ]

(* ------------------------- session output bytes ------------------------ *)

(* A step-driven server and one raw client that registered two band
   queries, [0, 1] and [1, 2], and sent one R row at b = 0.  S rows at
   b = 0.5, 1.5, 0.5, ... then each join that row once, for alternate
   queries: a flush of n such rows fans out n single-row RESULTS
   frames.  [f] gets the server, the socket, the decoder and the frames
   received so far (emptied before the call). *)
let with_alternating ~session_queue f =
  let config = { Server.default_config with session_queue } in
  let srv = Server.create ~config ~addr:(loopback 0) () in
  Fun.protect ~finally:(fun () -> Server.teardown srv) @@ fun () ->
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
  @@ fun () ->
  Unix.connect fd (loopback (Server.port srv));
  Unix.set_nonblock fd;
  let dec = Frame.Decoder.create () in
  let got = ref [] in
  let await what pred = step_until srv fd dec got ~what pred in
  rsend fd (Frame.Hello { version = Frame.protocol_version });
  await "Welcome" (function Frame.Welcome _ -> true | _ -> false);
  List.iter
    (fun (lo, hi) ->
      rsend fd (Frame.Register_band { lo; hi });
      await "Registered" (function Frame.Registered _ -> true | _ -> false))
    [ (0.0, 1.0); (1.0, 2.0) ];
  rsend fd (Frame.Batch { side = Frame.R; rows = Batch.of_rows [| (0.0, 0.0) |] });
  rsend fd Frame.Flush;
  await "Flushed" (function Frame.Flushed _ -> true | _ -> false);
  got := [];
  f srv fd dec got

let alternating_rows n =
  Batch.of_rows (Array.init n (fun i -> (if i land 1 = 0 then 0.5 else 1.5), float_of_int i))

(* The batch and its FLUSH go out in one write, so the server reads
   them in one step and the flush that answers FLUSH is the one that
   delivers the batch. *)
let flush_alternating srv fd dec got n =
  rsend_all fd [ Frame.Batch { side = Frame.S; rows = alternating_rows n }; Frame.Flush ];
  step_until srv fd dec got ~what:"Flushed" (function Frame.Flushed _ -> true | _ -> false)

(* One flush of 240 single-row RESULTS frames to one session leaves in
   a handful of writes: one per gather of frames, not one per frame. *)
let test_coalesced_writes () =
  with_alternating ~session_queue:1024 @@ fun srv fd dec got ->
  let s0 = Server.stats srv in
  flush_alternating srv fd dec got 240;
  let s1 = Server.stats srv in
  let frames = List.rev !got in
  let results = List.filter (function Frame.Results _ -> true | _ -> false) frames in
  Alcotest.(check int) "240 RESULTS frames" 240 (List.length results);
  Alcotest.(check bool) "each holds one row" true
    (List.for_all (function Frame.Results { rows; _ } -> Array.length rows = 1 | _ -> false) results);
  Alcotest.(check bool) "at least 200 frames out" true
    (s1.Server.net_frames_out - s0.Server.net_frames_out >= 200);
  let writes = s1.Server.net_writes - s0.Server.net_writes in
  if writes > 4 then Alcotest.failf "%d writes for one flush, want <= 4" writes

(* A 2-frame queue fills in the middle of a flush: the rows of frames
   that open on a full queue are dropped, every row is either delivered
   or dropped, OVERLOAD reports each dropped row, and FLUSHED follows
   the delivered frames with their row count. *)
let test_queue_full_mid_flush () =
  with_alternating ~session_queue:2 @@ fun srv fd dec got ->
  let n = 100 in
  let s0 = Server.stats srv in
  flush_alternating srv fd dec got n;
  let s1 = Server.stats srv in
  let delivered = s1.Server.net_results_delivered - s0.Server.net_results_delivered in
  let dropped = s1.Server.net_results_dropped - s0.Server.net_results_dropped in
  Alcotest.(check int) "two frames kept" 2 delivered;
  Alcotest.(check int) "delivered + dropped = produced" n (delivered + dropped);
  (* The OVERLOAD notice may trail the FLUSHED ack: step until it is in. *)
  let overloads () =
    List.fold_left
      (fun acc f ->
        match f with
        | Frame.Overload { source = Frame.Slow_session; dropped; _ } -> acc + dropped
        | _ -> acc)
      0 !got
  in
  if overloads () < s1.Server.net_results_dropped then
    step_until srv fd dec got ~what:"OVERLOAD" (fun _ -> overloads () >= s1.Server.net_results_dropped);
  Alcotest.(check int) "OVERLOAD sums to net_results_dropped" s1.Server.net_results_dropped
    (overloads ());
  let frames = List.rev !got in
  let rec after_results seen_ack = function
    | [] -> seen_ack
    | Frame.Results _ :: _ when seen_ack -> Alcotest.fail "RESULTS after FLUSHED"
    | Frame.Flushed { results } :: rest ->
        Alcotest.(check int) "FLUSHED counts the delivered rows" delivered results;
        after_results true rest
    | _ :: rest -> after_results seen_ack rest
  in
  Alcotest.(check bool) "FLUSHED received" true (after_results false frames);
  Alcotest.(check int) "delivered rows on the wire" delivered
    (List.fold_left
       (fun acc f -> match f with Frame.Results { rows; _ } -> acc + Array.length rows | _ -> acc)
       0 frames)

(* The served stage timings record nothing while metrics are off, and
   one sample per flush or write pass while they are on. *)
let test_stage_timings_off () =
  let fanout = Metrics.histogram "net.fanout_ns" and write = Metrics.histogram "net.write_ns" in
  Metrics.set_enabled false;
  with_alternating ~session_queue:64 @@ fun srv fd dec got ->
  let f0 = Metrics.hist_count fanout and w0 = Metrics.hist_count write in
  flush_alternating srv fd dec got 8;
  Alcotest.(check int) "no fan-out sample while off" f0 (Metrics.hist_count fanout);
  Alcotest.(check int) "no write sample while off" w0 (Metrics.hist_count write);
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled false) @@ fun () ->
  flush_alternating srv fd dec got 8;
  Alcotest.(check bool) "fan-out sampled while on" true (Metrics.hist_count fanout > f0);
  Alcotest.(check bool) "write sampled while on" true (Metrics.hist_count write > w0)

(* A session writing into one end of a socketpair. *)
let session_pair ?sndbuf ~queue_cap () =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock a;
  Unix.set_nonblock b;
  Option.iter (fun n -> Unix.setsockopt_int a Unix.SO_SNDBUF n) sndbuf;
  (Session.create ~sid:1 ~fd:a ~queue_cap ~max_frame:Frame.default_max_frame, b)

let tuples (ra, rb, sb, sc) =
  ({ Tuple.rid = 0; a = ra; b = rb }, { Tuple.sid = 0; b = sb; c = sc })

(* The reference framing: one RESULTS frame per run of consecutive
   same-qid rows of a flush, split at 512 rows. *)
let reference_frames rows =
  let rec go acc = function
    | [] -> List.rev acc
    | (qid, _) :: _ as rows ->
        let rec take n run = function
          | (q, row) :: rest when q = qid && n < 512 -> take (n + 1) (row :: run) rest
          | rest -> (List.rev run, rest)
        in
        let run, rest = take 0 [] rows in
        go (Frame.Results { qid; rows = Array.of_list run } :: acc) rest
  in
  go [] rows

let gspecial =
  QCheck2.Gen.(
    frequency
      [
        (4, map (fun n -> float_of_int (n - 500) /. 8.0) (int_bound 1000));
        (1, oneofl [ infinity; neg_infinity; -0.0; 0.0; Float.nan; 1e300; -5e-324 ]);
      ])

(* Runs of one qid; some longer than a frame holds. *)
let gruns =
  let open QCheck2.Gen in
  let grow = map (fun ((a, b), (c, d)) -> (a, b, c, d)) (pair (pair gspecial gspecial) (pair gspecial gspecial)) in
  list_size (int_range 1 6)
    (pair (int_range 1 3)
       (frequency [ (8, int_range 1 5); (1, int_range 500 1100) ])
    >>= fun (qid, len) -> map (fun rows -> List.map (fun r -> (qid, r)) rows) (list_size (return len) grow))
  |> map List.concat

(* Drain [b] into [sink] while the session writes. *)
let pump s b sink =
  let rbuf = Bytes.create 65536 in
  let rec go guard =
    if guard > 100_000 then failwith "session never drained";
    let state = Session.write_step s in
    let read =
      match Unix.read b rbuf 0 (Bytes.length rbuf) with
      | n -> Buffer.add_subbytes sink rbuf 0 n; n
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> 0
    in
    if state <> `Drained || read > 0 then go (guard + 1)
  in
  go 0

let test_inplace_bytes =
  QCheck2.Test.make ~name:"session: in-place RESULTS bytes = encode_server" ~count:60
    QCheck2.Gen.(list_size (int_range 1 3) gruns)
    (fun flushes ->
      let s, b = session_pair ~queue_cap:100_000 () in
      Fun.protect ~finally:(fun () -> Session.close_fd s; Unix.close b) @@ fun () ->
      let want = Buffer.create 4096 and got = Buffer.create 4096 in
      List.iter
        (fun rows ->
          List.iter (Frame.encode_server want) (reference_frames rows);
          List.iter (fun (qid, row) -> let r, sv = tuples row in Session.record_result s ~qid r sv) rows;
          let n = Session.end_flush s in
          if n <> List.length rows then QCheck2.Test.fail_reportf "end_flush: %d rows, want %d" n (List.length rows);
          pump s b got)
        flushes;
      Buffer.contents got = Buffer.contents want)

(* Decode everything [pump]-style with reads of [chunk ()] bytes, small
   socket buffers, and a PONG queued on the control path at each of the
   first [pongs] ticks of every flush's drain. *)
let drain_with_reader ~chunk ~pongs flushes =
  let s, b = session_pair ~sndbuf:4096 ~queue_cap:100_000 () in
  Fun.protect ~finally:(fun () -> Session.close_fd s; Unix.close b) @@ fun () ->
  let dec = Frame.Decoder.create () in
  let rbuf = Bytes.create 65536 in
  let frames = ref [] in
  let token = ref 0 in
  let rec decode () =
    match Frame.Decoder.next_server dec with
    | Frame.Decoder.Frame f -> frames := f :: !frames; decode ()
    | Frame.Decoder.Awaiting -> ()
    | Frame.Decoder.Broken e -> Alcotest.failf "decoder broke: %s" (Frame.proto_error_to_string e)
  in
  List.iter
    (fun rows ->
      List.iter (fun (qid, row) -> let r, sv = tuples row in Session.record_result s ~qid r sv) rows;
      Session.set_flush_ack s (Session.end_flush s);
      if not (Session.try_send_flush_ack s) then Alcotest.fail "ack refused";
      let rec tick n =
        if n > 1_000_000 then Alcotest.fail "session never drained";
        if n < pongs then begin
          incr token;
          ignore (Session.enqueue_ctrl s (Frame.Pong { token = !token }))
        end;
        let state = Session.write_step s in
        let read =
          match Unix.read b rbuf 0 (chunk ()) with
          | k -> Frame.Decoder.feed dec rbuf ~off:0 ~len:k; k
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> 0
        in
        decode ();
        if n < pongs || state <> `Drained || read > 0 then tick (n + 1)
      in
      tick 0)
    flushes;
  List.rev !frames

(* Partial writes resume where they stopped, and control frames land
   only between whole result frames: a reader taking random small
   chunks through a small socket buffer decodes the same RESULTS and
   FLUSHED sequence, and the same PONGs in order, as a fast reader.
   Seed 0 is a 40000-row flush, past the size at which a drained
   buffer is given back, then a short one. *)
let test_partial_writes () =
  let flushes seed =
    let gen = QCheck2.Gen.(list_size (int_range 2 4) gruns) in
    let gen =
      if seed > 0 then gen
      else
        QCheck2.Gen.(
          map2 (fun big small -> big :: small)
            (list_size (return 40_000) (pair (int_range 1 2) (return (1.0, 2.0, 3.0, 4.0))))
            gen)
    in
    QCheck2.Gen.generate1 ~rand:(Random.State.make [| seed |]) gen
  in
  let split frames =
    ( List.filter (function Frame.Pong _ -> false | _ -> true) frames,
      List.filter (function Frame.Pong _ -> true | _ -> false) frames )
  in
  for seed = 0 to 8 do
    let fl = flushes seed in
    let st = Random.State.make [| seed |] in
    let slow = drain_with_reader ~chunk:(fun () -> 1 + Random.State.int st 300) ~pongs:40 fl in
    let fast = drain_with_reader ~chunk:(fun () -> 65536) ~pongs:40 fl in
    let want =
      List.concat_map
        (fun rows ->
          reference_frames rows @ [ Frame.Flushed { results = List.length rows } ])
        fl
    in
    let slow_data, slow_ctrl = split slow and fast_data, fast_ctrl = split fast in
    (* NaN rows defeat structural equality: compare the re-encoded bytes. *)
    let bytes frames =
      let b = Buffer.create 4096 in
      List.iter (Frame.encode_server b) frames;
      Buffer.contents b
    in
    Alcotest.(check bool) (Printf.sprintf "seed %d: slow reader's frames" seed) true
      (bytes slow_data = bytes want);
    Alcotest.(check bool) (Printf.sprintf "seed %d: fast reader's frames" seed) true
      (bytes fast_data = bytes want);
    Alcotest.(check bool) (Printf.sprintf "seed %d: PONGs in order" seed) true
      (slow_ctrl = fast_ctrl && List.length slow_ctrl = 40 * List.length fl)
  done

(* ------------------------------- oracle -------------------------------- *)

let test_serve_oracle_sweep () =
  (* 100+ seeds.  The first run's direct replay creates domains, after
     which [run_workload]'s fork attempt permanently fails and every
     later server runs on the domain fallback — both backends get
     covered.  Bulk of the sweep at shards=1 (this box has one core);
     the tail re-checks the multi-shard merge path.  Even seeds churn:
     their late subscriptions join the served run between batches. *)
  let failures = ref [] in
  let serve ~sessions ~shards ~n seed =
    let o =
      Oracle.diff
        (Fault.gen_uniform ~churn:(seed mod 2 = 0) ~seed ~n ())
        (Served { sessions; shards }) (Par shards) Same_stream
    in
    if not (Oracle.passed o) then failures := o :: !failures
  in
  for seed = 1 to 96 do
    serve ~sessions:(1 + (seed mod 6)) ~shards:1 ~n:60 seed
  done;
  for seed = 97 to 108 do
    serve ~sessions:(1 + (seed mod 4)) ~shards:(2 + (seed mod 2)) ~n:40 seed
  done;
  match !failures with
  | [] -> ()
  | o :: _ ->
      Alcotest.failf "serve oracle diverged (%d seeds): first %a"
        (List.length !failures) Oracle.pp_outcome o

(* ------------------------------------------------------------------ *)

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "net"
    [
      ( "frame",
        [
          qt test_client_roundtrip;
          qt test_server_roundtrip;
          qt test_decoder_total;
          Alcotest.test_case "error classification" `Quick test_decoder_classification;
        ] );
      ( "driver",
        [
          Alcotest.test_case "workload deterministic" `Quick
            test_gen_workload_deterministic;
        ] );
      ( "live",
        [
          Alcotest.test_case "fuzz: garbage never hangs the server" `Quick
            test_fuzz_live_server;
          Alcotest.test_case "64 concurrent sessions" `Quick test_sixty_four_sessions;
          Alcotest.test_case "lockstep: no drops at a 256-frame queue" `Quick
            test_lockstep_never_drops;
          Alcotest.test_case "slow reader: bounded queues + OVERLOAD" `Quick
            test_slow_reader_bounded;
          Alcotest.test_case "handshake: HELLO first, exactly once" `Quick
            test_hello_required;
          Alcotest.test_case "max_sessions capped by select fd budget" `Quick
            test_max_sessions_fd_budget;
          Alcotest.test_case "abrupt client death: one session, no SIGPIPE" `Quick
            test_abrupt_disconnect_survival;
          Alcotest.test_case "unbounded ranges served, NaN and lo > hi refused" `Quick
            test_unbounded_ranges;
          Alcotest.test_case "stage timings record nothing while off" `Quick
            test_stage_timings_off;
        ] );
      ( "writes",
        [
          Alcotest.test_case "one flush of 240 frames in <= 4 writes" `Quick
            test_coalesced_writes;
          Alcotest.test_case "queue of 2 full mid-flush: rows accounted" `Quick
            test_queue_full_mid_flush;
          qt test_inplace_bytes;
          Alcotest.test_case "partial writes resume at frame boundaries" `Quick
            test_partial_writes;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "served matches direct over 108 seeds" `Quick
            test_serve_oracle_sweep;
        ] );
    ]

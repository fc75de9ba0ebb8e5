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
module Batch = Cq_relation.Batch
module Oracle = Cq_robust.Oracle
module Fault = Cq_robust.Fault
module Engine = Cq_engine.Engine

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

(* ------------------------- slow-reader backpressure --------------------- *)

(* Step-driven: the server runs in THIS domain via [Server.step], the
   client is a raw socket we write to and deliberately do not read.
   With a 4-frame session queue, a flush fanning out ~10k result rows
   must keep at most 4 frames (2048 rows) buffered, drop the rest, and
   say so in one coalesced Slow_session OVERLOAD — bounded memory,
   typed degradation, no hang. *)

let loopback port = Unix.ADDR_INET (Unix.inet_addr_loopback, port)

let rsend fd frame =
  let buf = Buffer.create 256 in
  Frame.encode_client buf frame;
  let b = Buffer.to_bytes buf in
  let off = ref 0 in
  while !off < Bytes.length b do
    match Unix.write fd b !off (Bytes.length b - !off) with
    | n -> off := !off + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

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

(* ------------------------------- oracle -------------------------------- *)

let test_serve_oracle_sweep () =
  (* 100+ seeds.  The first run's direct replay creates domains, after
     which [run_workload]'s fork attempt permanently fails and every
     later server runs on the domain fallback — both backends get
     covered.  Bulk of the sweep at shards=1 (this box has one core);
     the tail re-checks the multi-shard merge path. *)
  let failures = ref [] in
  let serve ~sessions ~shards ~n seed =
    let o =
      Oracle.diff (Fault.gen_uniform ~seed ~n ()) (Served { sessions; shards }) (Par shards)
        Same_stream
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
          Alcotest.test_case "slow reader: bounded queues + OVERLOAD" `Quick
            test_slow_reader_bounded;
          Alcotest.test_case "handshake: HELLO first, exactly once" `Quick
            test_hello_required;
          Alcotest.test_case "max_sessions capped by select fd budget" `Quick
            test_max_sessions_fd_budget;
          Alcotest.test_case "abrupt client death: one session, no SIGPIPE" `Quick
            test_abrupt_disconnect_survival;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "served matches direct over 108 seeds" `Quick
            test_serve_oracle_sweep;
        ] );
    ]

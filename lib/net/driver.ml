module Rng = Cq_util.Rng
module Clock = Cq_util.Clock
module Engine = Cq_engine.Engine
module Batch = Cq_relation.Batch
module Metrics = Cq_obs.Metrics

let m_rtt = Metrics.histogram "net.batch.rtt_ns"

type query_spec =
  | Band of { lo : float; hi : float }
  | Select of { a_lo : float; a_hi : float; c_lo : float; c_hi : float }

type batch_spec = {
  owner : int;
  side : Frame.side;
  rows : (float * float) array;
  joins : (int * query_spec) list;
}

type workload = {
  seed : int;
  sessions : int;
  queries : query_spec array array;
  batches : batch_spec array;
}

let gen_window rng =
  let lo = Rng.float rng *. 800.0 in
  let width = 10.0 +. (Rng.float rng *. 190.0) in
  (lo, lo +. width)

let gen_workload ~seed ~sessions ~queries_per_session ~batches ~rows_per_batch =
  let rng = Rng.create seed in
  let queries =
    Array.init sessions (fun _ ->
        Array.init queries_per_session (fun _ ->
            if Rng.bool rng then
              let lo, hi = gen_window rng in
              Band { lo; hi }
            else
              let a_lo, a_hi = gen_window rng in
              let c_lo, c_hi = gen_window rng in
              Select { a_lo; a_hi; c_lo; c_hi }))
  in
  let batches =
    Array.init batches (fun _ ->
        let owner = Rng.int rng sessions in
        let side = if Rng.bool rng then Frame.R else Frame.S in
        let rows =
          Array.init rows_per_batch (fun _ ->
              (Rng.float rng *. 1000.0, Rng.float rng *. 1000.0))
        in
        { owner; side; rows; joins = [] })
  in
  { seed; sessions; queries; batches }

let batch_of_rows rows =
  let b = Batch.create ~capacity:(max 1 (Array.length rows)) () in
  Array.iter (fun (x, y) -> Batch.push b ~x ~y) rows;
  b

type outcome = {
  results : (int * (float * float * float * float) array) array array;
  qids : int array array;
  latencies_ns : float array;
  overloads : (Frame.overload_source * int * float) list;
  server : Server.stats;
}

exception Bail of Client.error

let ok_or_bail = function Ok v -> v | Error e -> raise (Bail e)

let loopback port = Unix.ADDR_INET (Unix.inet_addr_loopback, port)

(* The server runs in a forked child, not a domain: two busy domains in
   one process interact badly with the stop-the-world GC handshake when
   cores are scarce (a domain parked in select stalls the other's minor
   collections for the full select timeout), and a separate process is
   the honest deployment shape anyway.  The child ships its ephemeral
   port up front and its final stats at shutdown over a pipe. *)
type server_handle = { pid : int; ic : in_channel }

let fork_server config =
  let r, w = Unix.pipe ~cloexec:false () in
  match Unix.fork () with
  | 0 -> (
      Unix.close r;
      let oc = Unix.out_channel_of_descr w in
      match Server.try_create ~config ~addr:(loopback 0) () with
      | Error e ->
          Marshal.to_channel oc (Error (Cq_util.Error.to_string e) : (int, string) result) [];
          flush oc;
          Unix._exit 1
      | Ok srv ->
          ignore (Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> Server.stop srv)));
          Marshal.to_channel oc (Ok (Server.port srv) : (int, string) result) [];
          flush oc;
          Server.serve srv;
          Marshal.to_channel oc (Server.stats srv) [];
          flush oc;
          Unix._exit 0)
  | pid -> (
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      match (Marshal.from_channel ic : (int, string) result) with
      | Ok port -> Ok (port, { pid; ic })
      | Error msg ->
          close_in ic;
          ignore (Unix.waitpid [] pid);
          Error msg
      | exception (End_of_file | Failure _ | Sys_error _) ->
          (* Truncated handshake = the child died before writing its
             port; other exceptions are ours and must propagate. *)
          close_in ic;
          ignore (Unix.waitpid [] pid);
          Error "server child died before reporting its port")

(* [Unix.fork] refuses to run in a process that has ever created a
   domain, so callers that already spun up a parallel engine (the
   oracle's direct replay, earlier bench experiments) fall back to
   serving from a domain — slower on starved machines, identical
   behaviour. *)
type server_backend =
  | Forked of server_handle
  | Domained of Server.t * Server.stats Domain.t

let spawn_server config =
  match fork_server config with
  | Ok (port, h) -> Ok (port, Forked h)
  | Error _ as e -> e
  | exception Failure _ -> (
      match Server.try_create ~config ~addr:(loopback 0) () with
      | Error e -> Error (Cq_util.Error.to_string e)
      | Ok srv ->
          let d =
            Domain.spawn (fun () ->
                Server.serve srv;
                Server.stats srv)
          in
          Ok (Server.port srv, Domained (srv, d)))

(* Stop the child and collect its stats; [None] means the child
   crashed instead of shutting down. *)
let stop_server h =
  (try Unix.kill h.pid Sys.sigterm with Unix.Unix_error (_, _, _) -> ());
  let fd = Unix.descr_of_in_channel h.ic in
  let readable =
    match Unix.select [ fd ] [] [] 10.0 with
    | [], _, _ -> false
    | _ -> true
    | exception Unix.Unix_error (_, _, _) -> false
  in
  let stats =
    if not readable then None
    else
      (* A crashed child yields a truncated stream: [End_of_file] or a
         [Failure] from Marshal, or [Sys_error] if the pipe was torn
         down under us.  Anything else (e.g. a real [Unix_error]) is a
         driver bug and must propagate, not read as "child crashed". *)
      match (Marshal.from_channel h.ic : Server.stats) with
      | st -> Some st
      | exception (End_of_file | Failure _ | Sys_error _) -> None
  in
  if not readable then (try Unix.kill h.pid Sys.sigkill with Unix.Unix_error (_, _, _) -> ());
  close_in h.ic;
  (try ignore (Unix.waitpid [] h.pid) with Unix.Unix_error (_, _, _) -> ());
  stats

let stop_backend = function
  | Forked h -> stop_server h
  | Domained (srv, d) ->
      Server.stop srv;
      Some (Domain.join d)

let register c = function
  | Band { lo; hi } -> ok_or_bail (Client.register_band c ~lo ~hi)
  | Select { a_lo; a_hi; c_lo; c_hi } -> ok_or_bail (Client.register_select c ~a_lo ~a_hi ~c_lo ~c_hi)

let run_workload ?(engine = Engine.Config.default) ?(session_queue = 4096) (w : workload) =
  let config = { Server.default_config with engine; session_queue } in
  match spawn_server config with
  | Error msg -> Error (Client.Io msg)
  | Ok (port, h) -> (
      let addr = loopback port in
      let clients = ref [] in
      let run () =
        let cs =
          Array.init w.sessions (fun _ ->
              let c = ok_or_bail (Client.connect ~recv_timeout:30.0 ~addr ()) in
              clients := c :: !clients;
              c)
        in
        let qids = Array.mapi (fun i specs -> Array.map (register cs.(i)) specs) w.queries in
        let joined = Array.make w.sessions [] in
        let latencies = Array.make (Array.length w.batches) 0.0 in
        let overloads = ref [] in
        Array.iteri
          (fun i b ->
            let c = cs.(b.owner) in
            let t0 = Clock.monotonic_ns () in
            (match ok_or_bail (Client.send_batch c ~side:b.side (batch_of_rows b.rows)) with
            | Client.Accepted _ -> ()
            | Client.Overloaded { source; dropped; retry_after_ms } ->
                overloads := (source, dropped, retry_after_ms) :: !overloads);
            let dt = Int64.to_float (Int64.sub (Clock.monotonic_ns ()) t0) in
            latencies.(i) <- dt;
            Metrics.observe m_rtt dt;
            (* FLUSHED rides the result FIFO, so it is the drain
               barrier: once every session's arrives, each RESULTS
               frame of this batch has been stashed and the session
               queues are empty before the next batch is sent. *)
            Array.iter (fun c -> ignore (ok_or_bail (Client.flush c))) cs;
            List.iter (fun (s, spec) -> joined.(s) <- register cs.(s) spec :: joined.(s)) b.joins)
          w.batches;
        let qids = Array.mapi (fun i q -> Array.append q (Array.of_list (List.rev joined.(i)))) qids in
        let results = Array.map (fun c -> Array.of_list (Client.take_results c)) cs in
        Array.iter
          (fun c ->
            List.iter (fun o -> overloads := o :: !overloads) (Client.take_overloads c);
            ignore (Client.bye c))
          cs;
        (results, qids, latencies, List.rev !overloads)
      in
      match run () with
      | results, qids, latencies_ns, overloads -> (
          match stop_backend h with
          | Some server -> Ok { results; qids; latencies_ns; overloads; server }
          | None -> Error (Client.Io "server child crashed before reporting stats"))
      | exception Bail e ->
          List.iter Client.close !clients;
          ignore (stop_backend h);
          Error e)

(* ------------------------------ fuzzing -------------------------------- *)

type fuzz_outcome = {
  fz_conns : int;
  fz_typed_errors : int;
  fz_clean_eofs : int;
  fz_hangs : int;
  fz_server : Server.stats option;
}

let gen_garbage rng =
  let buf = Buffer.create 128 in
  (match Rng.int rng 6 with
  | 0 ->
      (* Pure noise. *)
      let len = 1 + Rng.int rng 64 in
      for _ = 1 to len do
        Buffer.add_uint8 buf (Rng.int rng 256)
      done
  | 1 ->
      (* A polite hello, then noise. *)
      Frame.encode_client buf (Frame.Hello { version = Frame.protocol_version });
      let len = 1 + Rng.int rng 64 in
      for _ = 1 to len do
        Buffer.add_uint8 buf (Rng.int rng 256)
      done
  | 2 ->
      (* Hostile length prefix on a real tag. *)
      Buffer.add_uint8 buf 0x05;
      Buffer.add_int32_be buf 0x7FFFFFFFl
  | 3 ->
      (* A valid frame cut off mid-body (EOF follows). *)
      let whole = Buffer.create 32 in
      Frame.encode_client whole (Frame.Register_band { lo = 1.0; hi = 2.0 });
      let img = Buffer.to_bytes whole in
      let keep = 1 + Rng.int rng (Bytes.length img - 1) in
      Buffer.add_subbytes buf img 0 keep
  | 4 ->
      (* Unknown tag with a plausible length. *)
      Buffer.add_uint8 buf (0x20 + Rng.int rng 0x60);
      let len = Rng.int rng 16 in
      Buffer.add_int32_be buf (Int32.of_int len);
      for _ = 1 to len do
        Buffer.add_uint8 buf (Rng.int rng 256)
      done
  | _ ->
      (* BATCH whose row count disagrees with its body length. *)
      Buffer.add_uint8 buf 0x05;
      Buffer.add_int32_be buf 13l;
      Buffer.add_uint8 buf 0;
      Buffer.add_int32_be buf 1000l;
      Buffer.add_int32_be buf 0l;
      Buffer.add_int32_be buf 0l);
  Buffer.to_bytes buf

let drive_garbage_conn rng addr =
  match
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.connect fd addr;
       Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0
     with e ->
       (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
       raise e);
    fd
  with
  | exception Unix.Unix_error (_, _, _) -> `Hang
  | fd ->
      let payload = gen_garbage rng in
      let verdict =
        match
          let off = ref 0 in
          while !off < Bytes.length payload do
            off := !off + Unix.write fd payload !off (Bytes.length payload - !off)
          done
        with
        | exception Unix.Unix_error (_, _, _) ->
            (* Server already slammed the door — that is a clean refusal. *)
            `Eof
        | () -> (
            (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error (_, _, _) -> ());
            let dec = Frame.Decoder.create () in
            let rbuf = Bytes.create 4096 in
            let rec read_replies saw_err =
              match Frame.Decoder.next_server dec with
              | Frame.Decoder.Frame (Frame.Err _) -> read_replies true
              | Frame.Decoder.Frame _ -> read_replies saw_err
              | Frame.Decoder.Broken _ -> `Hang
              | Frame.Decoder.Awaiting -> (
                  match Unix.read fd rbuf 0 (Bytes.length rbuf) with
                  | 0 -> if saw_err then `Typed else `Eof
                  | n ->
                      Frame.Decoder.feed dec rbuf ~off:0 ~len:n;
                      read_replies saw_err
                  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                      `Hang
                  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_replies saw_err
                  | exception Unix.Unix_error (_, _, _) ->
                      if saw_err then `Typed else `Eof)
            in
            read_replies false)
      in
      (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
      verdict

let fuzz ?(conns = 64) ~seed () =
  let rng = Rng.create seed in
  match spawn_server Server.default_config with
  | Error msg ->
      Cq_util.Error.raise_
        (Cq_util.Error.Invalid_parameter
           { name = "fuzz server"; value = msg; expected = "a running loopback server" })
  | Ok (port, h) ->
      let addr = loopback port in
      let typed = ref 0 in
      let eofs = ref 0 in
      let hangs = ref 0 in
      for _ = 1 to conns do
        match drive_garbage_conn rng addr with
        | `Typed -> incr typed
        | `Eof -> incr eofs
        | `Hang -> incr hangs
      done;
      (* The server must still answer a healthy client after the abuse. *)
      (match Client.connect ~addr () with
      | Error _ -> incr hangs
      | Ok c -> (
          match Client.ping c ~token:42 with
          | Ok () -> ignore (Client.bye c)
          | Error _ ->
              Client.close c;
              incr hangs));
      let fz_server = stop_backend h in
      {
        fz_conns = conns;
        fz_typed_errors = !typed;
        fz_clean_eofs = !eofs;
        fz_hangs = !hangs;
        fz_server;
      }

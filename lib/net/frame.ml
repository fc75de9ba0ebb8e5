type side = R | S

type client_frame =
  | Hello of { version : int }
  | Register_band of { lo : float; hi : float }
  | Register_select of { a_lo : float; a_hi : float; c_lo : float; c_hi : float }
  | Drop of { qid : int }
  | Batch of { side : side; rows : Cq_relation.Batch.t }
  | Flush
  | Ping of { token : int }
  | Bye

type err_code = Err_proto | Err_bad_request | Err_engine | Err_server_full

type overload_source = Engine_admission | Slow_session

type server_frame =
  | Welcome of { version : int; session_id : int }
  | Registered of { qid : int }
  | Dropped of { qid : int }
  | Batch_ok of { rows : int }
  | Results of { qid : int; rows : (float * float * float * float) array }
  | Flushed of { results : int }
  | Pong of { token : int }
  | Overload of { source : overload_source; dropped : int; retry_after_ms : float }
  | Err of { code : err_code; message : string }
  | Goodbye

type proto_error =
  | Unknown_tag of { tag : int }
  | Oversized of { tag : int; declared : int; limit : int }
  | Malformed of { tag : int; detail : string }
  | Truncated of { buffered : int }

let protocol_version = 1
let default_max_frame = 1 lsl 20

let proto_error_to_string = function
  | Unknown_tag { tag } -> Printf.sprintf "unknown frame tag 0x%02x" tag
  | Oversized { tag; declared; limit } ->
      Printf.sprintf "frame 0x%02x declares %d body bytes (limit %d)" tag declared limit
  | Malformed { tag; detail } -> Printf.sprintf "malformed frame 0x%02x: %s" tag detail
  | Truncated { buffered } ->
      Printf.sprintf "stream closed mid-frame (%d bytes buffered)" buffered


let err_code_to_int = function
  | Err_proto -> 1
  | Err_bad_request -> 2
  | Err_engine -> 3
  | Err_server_full -> 4

let err_code_of_int = function
  | 1 -> Some Err_proto
  | 2 -> Some Err_bad_request
  | 3 -> Some Err_engine
  | 4 -> Some Err_server_full
  | _ -> None

let overload_source_to_string = function
  | Engine_admission -> "engine"
  | Slow_session -> "session"

let pp_server_frame fmt = function
  | Welcome { version; session_id } -> Format.fprintf fmt "WELCOME v%d sid=%d" version session_id
  | Registered { qid } -> Format.fprintf fmt "REGISTERED q%d" qid
  | Dropped { qid } -> Format.fprintf fmt "DROPPED q%d" qid
  | Batch_ok { rows } -> Format.fprintf fmt "BATCH_OK %d" rows
  | Results { qid; rows } -> Format.fprintf fmt "RESULTS q%d %d rows" qid (Array.length rows)
  | Flushed { results } -> Format.fprintf fmt "FLUSHED %d" results
  | Pong { token } -> Format.fprintf fmt "PONG %d" token
  | Overload { source; dropped; retry_after_ms } ->
      Format.fprintf fmt "OVERLOAD %s dropped=%d retry_after=%.1fms"
        (overload_source_to_string source) dropped retry_after_ms
  | Err { code; message } -> Format.fprintf fmt "ERR %d %s" (err_code_to_int code) message
  | Goodbye -> Format.pp_print_string fmt "GOODBYE"

(* ------------------------------ encoding ------------------------------- *)

(* Tag spaces are disjoint per direction so a peer that reads its own
   reflection fails with Unknown_tag instead of mis-parsing. *)
let tag_hello = 0x01
let tag_register_band = 0x02
let tag_register_select = 0x03
let tag_drop = 0x04
let tag_batch = 0x05
let tag_flush = 0x06
let tag_ping = 0x07
let tag_bye = 0x08
let tag_welcome = 0x81
let tag_registered = 0x82
let tag_dropped = 0x83
let tag_batch_ok = 0x84
let tag_results = 0x85
let tag_flushed = 0x86
let tag_pong = 0x87
let tag_overload = 0x88
let tag_err = 0x89
let tag_goodbye = 0x8A

let add_header buf tag body_len =
  Buffer.add_uint8 buf tag;
  Buffer.add_int32_be buf (Int32.of_int body_len)

let add_f64 buf v = Buffer.add_int64_be buf (Int64.bits_of_float v)
let add_u32 buf v = Buffer.add_int32_be buf (Int32.of_int v)

let encode_client buf = function
  | Hello { version } ->
      add_header buf tag_hello 4;
      add_u32 buf version
  | Register_band { lo; hi } ->
      add_header buf tag_register_band 16;
      add_f64 buf lo;
      add_f64 buf hi
  | Register_select { a_lo; a_hi; c_lo; c_hi } ->
      add_header buf tag_register_select 32;
      add_f64 buf a_lo;
      add_f64 buf a_hi;
      add_f64 buf c_lo;
      add_f64 buf c_hi
  | Drop { qid } ->
      add_header buf tag_drop 4;
      add_u32 buf qid
  | Batch { side; rows } ->
      let n = Cq_relation.Batch.length rows in
      add_header buf tag_batch (5 + (16 * n));
      Buffer.add_uint8 buf (match side with R -> 0 | S -> 1);
      add_u32 buf n;
      for i = 0 to n - 1 do
        add_f64 buf (Cq_relation.Batch.x rows i);
        add_f64 buf (Cq_relation.Batch.y rows i)
      done
  | Flush -> add_header buf tag_flush 0
  | Ping { token } ->
      add_header buf tag_ping 4;
      add_u32 buf token
  | Bye -> add_header buf tag_bye 0

let encode_server buf = function
  | Welcome { version; session_id } ->
      add_header buf tag_welcome 8;
      add_u32 buf version;
      add_u32 buf session_id
  | Registered { qid } ->
      add_header buf tag_registered 4;
      add_u32 buf qid
  | Dropped { qid } ->
      add_header buf tag_dropped 4;
      add_u32 buf qid
  | Batch_ok { rows } ->
      add_header buf tag_batch_ok 4;
      add_u32 buf rows
  | Results { qid; rows } ->
      let n = Array.length rows in
      add_header buf tag_results (8 + (32 * n));
      add_u32 buf qid;
      add_u32 buf n;
      Array.iter
        (fun (ra, rb, sb, sc) ->
          add_f64 buf ra;
          add_f64 buf rb;
          add_f64 buf sb;
          add_f64 buf sc)
        rows
  | Flushed { results } ->
      add_header buf tag_flushed 4;
      add_u32 buf results
  | Pong { token } ->
      add_header buf tag_pong 4;
      add_u32 buf token
  | Overload { source; dropped; retry_after_ms } ->
      add_header buf tag_overload 13;
      Buffer.add_uint8 buf (match source with Engine_admission -> 0 | Slow_session -> 1);
      add_u32 buf dropped;
      add_f64 buf retry_after_ms
  | Err { code; message } ->
      let msg =
        if String.length message > 0xFFFF then String.sub message 0 0xFFFF else message
      in
      add_header buf tag_err (4 + String.length msg);
      Buffer.add_uint16_be buf (err_code_to_int code);
      Buffer.add_uint16_be buf (String.length msg);
      Buffer.add_string buf msg
  | Goodbye -> add_header buf tag_goodbye 0

let frame_bytes buf pos = 5 + Int32.to_int (Bytes.get_int32_be buf (pos + 1))

(* In-place RESULTS encoding: the same bytes [encode_server] writes. *)
let results_header_bytes = 13
let results_row_bytes = 32

let put_results_header buf pos ~qid ~rows =
  Bytes.set_uint8 buf pos tag_results;
  Bytes.set_int32_be buf (pos + 1) (Int32.of_int (8 + (results_row_bytes * rows)));
  Bytes.set_int32_be buf (pos + 5) (Int32.of_int qid);
  Bytes.set_int32_be buf (pos + 9) (Int32.of_int rows)

let put_results_row buf pos (r : Cq_relation.Tuple.r) (s : Cq_relation.Tuple.s) =
  Bytes.set_int64_be buf pos (Int64.bits_of_float r.a);
  Bytes.set_int64_be buf (pos + 8) (Int64.bits_of_float r.b);
  Bytes.set_int64_be buf (pos + 16) (Int64.bits_of_float s.b);
  Bytes.set_int64_be buf (pos + 24) (Int64.bits_of_float s.c)

(* ------------------------------ decoding ------------------------------- *)

module Decoder = struct
  type t = {
    max_frame : int;
    mutable buf : Bytes.t;
    mutable start : int;  (** First unconsumed byte. *)
    mutable fill : int;  (** One past the last valid byte. *)
    mutable broken : proto_error option;
  }

  let create ?(max_frame = default_max_frame) () =
    { max_frame; buf = Bytes.create 4096; start = 0; fill = 0; broken = None }

  let buffered t = t.fill - t.start

  let feed t src ~off ~len =
    if len > 0 && Option.is_none t.broken then begin
      let live = buffered t in
      (* Compact (shift live bytes down) before growing. *)
      if t.start > 0 && t.fill + len > Bytes.length t.buf then begin
        Bytes.blit t.buf t.start t.buf 0 live;
        t.start <- 0;
        t.fill <- live
      end;
      if t.fill + len > Bytes.length t.buf then begin
        let cap = ref (2 * Bytes.length t.buf) in
        while t.fill + len > !cap do
          cap := 2 * !cap
        done;
        let nbuf = Bytes.create !cap in
        Bytes.blit t.buf 0 nbuf 0 t.fill;
        t.buf <- nbuf
      end;
      Bytes.blit src off t.buf t.fill len;
      t.fill <- t.fill + len
    end

  type 'a next = Frame of 'a | Awaiting | Broken of proto_error

  let fail t e =
    t.broken <- Some e;
    Broken e

  let f64 t pos = Int64.float_of_bits (Bytes.get_int64_be t.buf pos)
  let u32 t pos = Int32.to_int (Bytes.get_int32_be t.buf pos)

  (* The per-direction body parsers run only once the whole declared
     body is buffered; [pos] is the body's first byte.  They check the
     exact body length themselves so a length/shape mismatch is a typed
     Malformed, never an out-of-bounds read. *)

  let parse_client t tag pos body_len : client_frame next =
    let mal detail = fail t (Malformed { tag; detail }) in
    let want n k = if body_len = n then k () else mal (Printf.sprintf "body %d, want %d" body_len n) in
    if tag = tag_hello then want 4 (fun () -> Frame (Hello { version = u32 t pos }))
    else if tag = tag_register_band then
      want 16 (fun () -> Frame (Register_band { lo = f64 t pos; hi = f64 t (pos + 8) }))
    else if tag = tag_register_select then
      want 32 (fun () ->
          Frame
            (Register_select
               {
                 a_lo = f64 t pos;
                 a_hi = f64 t (pos + 8);
                 c_lo = f64 t (pos + 16);
                 c_hi = f64 t (pos + 24);
               }))
    else if tag = tag_drop then want 4 (fun () -> Frame (Drop { qid = u32 t pos }))
    else if tag = tag_batch then begin
      if body_len < 5 then mal "batch body shorter than its fixed part"
      else
        let side_byte = Bytes.get_uint8 t.buf pos in
        let n = u32 t (pos + 1) in
        if side_byte > 1 then mal (Printf.sprintf "bad side byte %d" side_byte)
        else if n < 0 || body_len <> 5 + (16 * n) then
          mal (Printf.sprintf "row count %d disagrees with body %d" n body_len)
        else begin
          let rows = Cq_relation.Batch.create ~capacity:n () in
          for i = 0 to n - 1 do
            let base = pos + 5 + (16 * i) in
            Cq_relation.Batch.push rows ~x:(f64 t base) ~y:(f64 t (base + 8))
          done;
          Frame (Batch { side = (if side_byte = 0 then R else S); rows })
        end
    end
    else if tag = tag_flush then want 0 (fun () -> Frame Flush)
    else if tag = tag_ping then want 4 (fun () -> Frame (Ping { token = u32 t pos }))
    else if tag = tag_bye then want 0 (fun () -> Frame Bye)
    else fail t (Unknown_tag { tag })

  let parse_server t tag pos body_len : server_frame next =
    let mal detail = fail t (Malformed { tag; detail }) in
    let want n k = if body_len = n then k () else mal (Printf.sprintf "body %d, want %d" body_len n) in
    if tag = tag_welcome then
      want 8 (fun () -> Frame (Welcome { version = u32 t pos; session_id = u32 t (pos + 4) }))
    else if tag = tag_registered then want 4 (fun () -> Frame (Registered { qid = u32 t pos }))
    else if tag = tag_dropped then want 4 (fun () -> Frame (Dropped { qid = u32 t pos }))
    else if tag = tag_batch_ok then want 4 (fun () -> Frame (Batch_ok { rows = u32 t pos }))
    else if tag = tag_results then begin
      if body_len < 8 then mal "results body shorter than its fixed part"
      else
        let qid = u32 t pos in
        let n = u32 t (pos + 4) in
        if n < 0 || body_len <> 8 + (32 * n) then
          mal (Printf.sprintf "row count %d disagrees with body %d" n body_len)
        else
          let rows =
            Array.init n (fun i ->
                let base = pos + 8 + (32 * i) in
                (f64 t base, f64 t (base + 8), f64 t (base + 16), f64 t (base + 24)))
          in
          Frame (Results { qid; rows })
    end
    else if tag = tag_flushed then want 4 (fun () -> Frame (Flushed { results = u32 t pos }))
    else if tag = tag_pong then want 4 (fun () -> Frame (Pong { token = u32 t pos }))
    else if tag = tag_overload then
      want 13 (fun () ->
          let source_byte = Bytes.get_uint8 t.buf pos in
          if source_byte > 1 then mal (Printf.sprintf "bad overload source %d" source_byte)
          else
            Frame
              (Overload
                 {
                   source = (if source_byte = 0 then Engine_admission else Slow_session);
                   dropped = u32 t (pos + 1);
                   retry_after_ms = f64 t (pos + 5);
                 }))
    else if tag = tag_err then begin
      if body_len < 4 then mal "err body shorter than its fixed part"
      else
        let code_int = Bytes.get_uint16_be t.buf pos in
        let msg_len = Bytes.get_uint16_be t.buf (pos + 2) in
        match err_code_of_int code_int with
        | None -> mal (Printf.sprintf "bad error code %d" code_int)
        | Some code ->
            if body_len <> 4 + msg_len then
              mal (Printf.sprintf "message length %d disagrees with body %d" msg_len body_len)
            else Frame (Err { code; message = Bytes.sub_string t.buf (pos + 4) msg_len })
    end
    else if tag = tag_goodbye then want 0 (fun () -> Frame Goodbye)
    else fail t (Unknown_tag { tag })

  let known_client tag = tag >= tag_hello && tag <= tag_bye
  let known_server tag = tag >= tag_welcome && tag <= tag_goodbye

  let next t ~known ~parse =
    match t.broken with
    | Some e -> Broken e
    | None ->
        if buffered t < 5 then Awaiting
        else begin
          let tag = Bytes.get_uint8 t.buf t.start in
          let body_len = u32 t (t.start + 1) in
          (* Reject bad tags and hostile lengths before waiting for a
             body that will never (or should never) arrive. *)
          if not (known tag) then fail t (Unknown_tag { tag })
          else if body_len < 0 || body_len > t.max_frame then
            fail t (Oversized { tag; declared = body_len; limit = t.max_frame })
          else if buffered t < 5 + body_len then Awaiting
          else begin
            let pos = t.start + 5 in
            let r = parse t tag pos body_len in
            (match r with
            | Frame _ ->
                t.start <- t.start + 5 + body_len;
                if t.start = t.fill then begin
                  t.start <- 0;
                  t.fill <- 0
                end
            | Awaiting | Broken _ -> ());
            r
          end
        end

  let next_client t = next t ~known:known_client ~parse:parse_client
  let next_server t = next t ~known:known_server ~parse:parse_server

  let at_eof t =
    match t.broken with
    | Some e -> Error e
    | None -> if buffered t = 0 then Ok () else Error (Truncated { buffered = buffered t })
end

module E = Engine
module I = Cq_interval.Interval
module Tuple = Cq_relation.Tuple
module Batch = Cq_relation.Batch
module Err = Cq_util.Error
module Metrics = Cq_obs.Metrics
module P = Hotspot_core.Processor

let log_src = Logs.Src.create "cq.parallel" ~doc:"sharded continuous-query engine"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Coordinator-side observability: merge latency per flush, batch
   fan-out count, and the load-balance ratio (1.0 = perfectly even).
   Per-shard queue-depth gauges are interned per engine in [create]
   (before any worker domain exists — the registry's interning table is
   shared). *)
let m_merge_ns = Metrics.histogram "parallel.merge_ns"
let m_batches = Metrics.counter "parallel.batches"
let m_imbalance = Metrics.gauge "parallel.shard_imbalance"

(* Overload-management observability: admission-control rejections
   (Reject policy), whole chunks dropped because a queue stayed full
   past the shed-mode grace window, the effective keep-rate of the most
   recent shed-mode chunk, and flush latency while degraded. *)
let m_rejected = Metrics.counter "parallel.overload.rejected_batches"
let m_dropped = Metrics.counter "parallel.overload.dropped_chunks"
let m_shed_rate = Metrics.gauge "parallel.overload.shed_rate"
let m_degraded_flush_ns = Metrics.histogram "parallel.overload.degraded_flush_ns"

type side = R | S

(* One shard's undelivered results as columns: [seq] is the global
   event sequence number stamped by the coordinator.  A shard runs its
   commands in FIFO order and seqs rise, so appending keeps a run in
   (seq, delivery index) order. *)
type run = {
  mutable len : int;
  mutable seqs : int array;
  mutable qids : int array;
  mutable rs : Tuple.r array;
  mutable ss : Tuple.s array;
}

let push run seq qid r s =
  let n = run.len in
  if n = Array.length run.seqs then begin
    let grow a x =
      let b = Array.make (max 64 (2 * n)) x in
      Array.blit a 0 b 0 n;
      b
    in
    run.seqs <- grow run.seqs 0;
    run.qids <- grow run.qids 0;
    run.rs <- grow run.rs r;
    run.ss <- grow run.ss s
  end;
  run.seqs.(n) <- seq;
  run.qids.(n) <- qid;
  run.rs.(n) <- r;
  run.ss.(n) <- s;
  run.len <- n + 1

(* The coordinator keeps every query's full definition: its
   partition-axis strip names the owning shard. *)
type spec =
  | Band of { range : I.t }
  | Select of { range_a : I.t; range_c : I.t }

type subscription = { sub_qid : int }

(* The callback slot of a qid that has none. *)
let no_cb : Tuple.r -> Tuple.s -> unit = fun _ _ -> ()

(* What a shard reports at every barrier: the stats/snapshot block,
   captured on the shard's own domain so the coordinator never touches
   a live engine. *)
type ack = {
  a_stats : E.stats;
  a_band : P.snapshot;
  a_select : P.snapshot;
  a_degraded : E.degraded list;
  a_shed : E.shed_totals;
}

type cmd =
  | Ingest of { iside : side; batch : Batch.t; base_seq : int; rate : float }
      (* [batch] is a zero-copy slice view of the caller's root batch
         (sealed until the next flush barrier), so fanning a chunk out
         to every shard ships one immutable view instead of copying
         rows.  [rate] is the keep-probability the coordinator decided
         for this chunk at admission time; every shard applies it so
         shed decisions are a pure function of the command stream. *)
  | Sub_band of { qid : int; range : I.t }
  | Sub_select of { qid : int; range_a : I.t; range_c : I.t }
  | Unsub of { qid : int }
  | Flush
  | Check
  | Stop

type shard_state = {
  sid : int;
  queue : cmd Bounded_queue.t;
  lock : Mutex.t;
  cond : Condition.t;
  mutable ack : ack option;  (* [None] until the shard acks the barrier *)
  mutable worker_error : exn option;
  depth_gauge : Metrics.gauge;
  (* Per-shard load gauges, refreshed from the shard's barrier ack on
     the coordinator's domain: live queries, stabbing-group count
     (hotspot groups across both processors), the largest group, and
     cumulative deliveries. *)
  queries_gauge : Metrics.gauge;
  groups_gauge : Metrics.gauge;
  max_group_gauge : Metrics.gauge;
  delivered_gauge : Metrics.gauge;
}

type par = { shard_states : shard_state array; doms : unit Domain.t array }

type shed_totals = {
  par_kept : int;
  par_dropped : int;
  par_min_rate : float;
  par_dropped_chunks : int;
  par_dropped_rows : int;
}

(* One engine plus the run its callbacks append to: the body of every
   shard worker, and the whole of a one-shard engine.  [cur_seq] is the
   seq of the event being processed; [subs] maps global qids to the
   engine's handles. *)
type shard_eng = {
  eng : E.t;
  run : run;
  mutable cur_seq : int;
  subs : (int, E.subscription) Hashtbl.t;
}

type impl = Seq of shard_eng | Par of par

type t = {
  cfg : E.Config.t;
  impl : impl;
  (* Shard i's run.  The coordinator empties a run only between the
     shard's barrier ack and its next queue push, which the queue's
     mutex orders after the shard's appends. *)
  runs : run array;
  delivered : int array;  (* per shard, running totals *)
  regs : (int, spec) Hashtbl.t;  (* qid -> full query definition *)
  (* qid -> callback, [no_cb] once unsubscribed: delivery looks results
     up here without allocating. *)
  mutable cbs : (Tuple.r -> Tuple.s -> unit) array;
  mutable next_qid : int;
  mutable next_seq : int;
  (* Chunks (and their rows) dropped whole because a queue stayed full
     past the shed grace window.  Dropped rows never reach any shard —
     no table stores them, no coin is flipped for them — so they are
     invisible to the per-query estimators: the claimed error bounds
     in [shed_info] are only valid while [dropped_rows] is 0, and
     [shed_totals] surfaces both counters so callers can check. *)
  mutable dropped_chunks : int;
  mutable dropped_rows : int;
  (* Root batches sealed by the coordinator while zero-copy chunk
     views of them sit in shard queues; unsealed at the next flush
     barrier, after every shard has consumed its copy of the views. *)
  mutable inflight : Batch.t list;
  mutable stopped : bool;
}

(* ------------------------------ worker --------------------------------- *)

let set_error st exn =
  Mutex.lock st.lock;
  if Option.is_none st.worker_error then st.worker_error <- Some exn;
  Mutex.unlock st.lock

let has_error st =
  Mutex.lock st.lock;
  let e = Option.is_some st.worker_error in
  Mutex.unlock st.lock;
  e

let shard_eng run eng = { eng; run; cur_seq = 0; subs = Hashtbl.create 64 }
let record se qid r s = push se.run se.cur_seq qid r s

let apply se = function
  | Ingest { iside; batch; base_seq; rate } ->
      E.set_shed_rate se.eng rate;
      (* Results take their seq while their event processes, so it
         must be positioned before each event: set it for event 0 here,
         and let the engine's post-event hook pre-position it for event
         [i + 1]. *)
      se.cur_seq <- base_seq;
      let bump i = se.cur_seq <- base_seq + i + 1 in
      ignore
        (match iside with
        | R -> E.ingest_batch_r se.eng ~on_event:bump batch
        | S -> E.ingest_batch_s se.eng ~on_event:bump batch)
  | Sub_band { qid; range } ->
      Hashtbl.replace se.subs qid (E.subscribe_band se.eng ~qid ~range (record se qid))
  | Sub_select { qid; range_a; range_c } ->
      Hashtbl.replace se.subs qid
        (E.subscribe_select se.eng ~qid ~range_a ~range_c (record se qid))
  | Unsub { qid } -> (
      match Hashtbl.find_opt se.subs qid with
      | Some sub ->
          ignore (E.unsubscribe se.eng sub);
          Hashtbl.remove se.subs qid
      | None -> ())
  | Check -> E.check_invariants se.eng
  | Flush | Stop -> ()

(* A barrier ack, with the stats block captured on the engine's own
   domain. *)
let take_ack se =
  {
    a_stats = E.stats se.eng;
    a_band = E.band_snapshot se.eng;
    a_select = E.select_snapshot se.eng;
    a_degraded = E.shed_info se.eng;
    a_shed = E.shed_totals se.eng;
  }

(* The shard body: one shard engine fed from the SPSC queue.  A failing
   command poisons the shard — the exception is stored for the
   coordinator and subsequent commands are skipped, but barrier acks
   keep flowing so a poisoned shard can never deadlock a flush. *)
let worker se (st : shard_state) () =
  let running = ref true in
  while !running do
    match Bounded_queue.pop st.queue with
    | Stop -> running := false
    | (Flush | Check) as cmd ->
        (if not (has_error st) then try apply se cmd with exn -> set_error st exn);
        let ack = take_ack se in
        Mutex.lock st.lock;
        st.ack <- Some ack;
        Condition.signal st.cond;
        Mutex.unlock st.lock
    | cmd -> if not (has_error st) then ( try apply se cmd with exn -> set_error st exn)
  done

(* ---------------------------- construction ------------------------------ *)

let queue_capacity = 64

let try_create_cfg (cfg : E.Config.t) =
  match E.Config.validate cfg with
  | Error e -> Error e
  | Ok cfg ->
      let runs =
        Array.init cfg.shards (fun _ -> { len = 0; seqs = [||]; qids = [||]; rs = [||]; ss = [||] })
      in
      let impl =
        if cfg.shards = 1 then Seq (shard_eng runs.(0) (E.create_cfg cfg))
        else begin
          let shard_states =
            Array.init cfg.shards (fun sid ->
                {
                  sid;
                  queue = Bounded_queue.create ~capacity:queue_capacity;
                  lock = Mutex.create ();
                  cond = Condition.create ();
                  ack = None;
                  worker_error = None;
                  depth_gauge =
                    Metrics.gauge (Printf.sprintf "parallel.shard%d.queue_depth" sid);
                  queries_gauge =
                    Metrics.gauge (Printf.sprintf "parallel.shard%d.queries" sid);
                  groups_gauge =
                    Metrics.gauge (Printf.sprintf "parallel.shard%d.groups" sid);
                  max_group_gauge =
                    Metrics.gauge (Printf.sprintf "parallel.shard%d.max_group" sid);
                  delivered_gauge =
                    Metrics.gauge (Printf.sprintf "parallel.shard%d.delivered" sid);
                })
          in
          (* Shard engines are built here on the coordinator — metric
             interning and processor construction are not domain-safe —
             then handed over wholly to their worker domain.  Distinct
             derived seeds keep the shards' treap priority streams
             independent. *)
          let doms =
            Array.map
              (fun st ->
                let eng =
                  E.create_cfg { cfg with shards = 1; seed = cfg.seed + (7919 * (st.sid + 1)) }
                in
                (* Structural seeds differ per shard, but the shed coin
                   must not: re-key every shard to the coordinator's
                   seed so coin flips agree across shard counts. *)
                E.set_shed_seed eng cfg.seed;
                Domain.spawn (worker (shard_eng runs.(st.sid) eng) st))
              shard_states
          in
          Par { shard_states; doms }
        end
      in
      Ok
        {
          cfg;
          impl;
          runs;
          delivered = Array.make cfg.shards 0;
          regs = Hashtbl.create 64;
          cbs = [||];
          next_qid = 0;
          next_seq = 0;
          dropped_chunks = 0;
          dropped_rows = 0;
          inflight = [];
          stopped = false;
        }

let try_create ?alpha ?epsilon ?seed ?shards ?batch_size ?overload ?shed_rate () =
  let d = E.Config.default in
  try_create_cfg
    {
      alpha = Option.value alpha ~default:d.alpha;
      epsilon = Option.value epsilon ~default:d.epsilon;
      seed = Option.value seed ~default:d.seed;
      shards = Option.value shards ~default:d.shards;
      batch_size = Option.value batch_size ~default:d.batch_size;
      overload = Option.value overload ~default:d.overload;
      shed_rate = Option.value shed_rate ~default:d.shed_rate;
    }

let create ?alpha ?epsilon ?seed ?shards ?batch_size ?overload ?shed_rate () =
  Err.ok_exn (try_create ?alpha ?epsilon ?seed ?shards ?batch_size ?overload ?shed_rate ())

let shards t = t.cfg.shards

let stopped_error =
  Err.Invalid_parameter
    { name = "engine"; value = "shut down"; expected = "a live parallel engine" }

(* try_* entry points return this as [Error]; plain entry points raise
   it via [ensure_live]. *)
let live t = if t.stopped then Error stopped_error else Ok ()
let ensure_live t = if t.stopped then Err.raise_ stopped_error

(* --------------------------- query routing ----------------------------- *)

(* Range partitioning with striping: the partition axis is cut into
   fixed-width strips and strips are dealt round-robin to shards, so a
   cluster of overlapping queries (a future hotspot) stays mostly
   within one shard while distinct clusters spread across shards.  A
   query's shard is a pure function of its definition and the shard
   count: it never moves. *)
let strip_width = 128.0

let strip_of iv =
  let mid = I.lo iv +. ((I.hi iv -. I.lo iv) /. 2.0) in
  if not (Float.is_finite mid) then 0
  else int_of_float (Float.floor (mid /. strip_width))

(* The partition axis the strips cut: [range] for band queries,
   [range_c] for selects, mirroring the sequential engine's processor
   split. *)
let spec_axis = function
  | Band { range } -> range
  | Select { range_c; _ } -> range_c

let shard_of t spec =
  let n = t.cfg.shards in
  ((strip_of (spec_axis spec) mod n) + n) mod n

let validate_spec = function
  | Band { range } ->
      if I.is_empty range then Error (Err.Empty_range { name = "range" }) else Ok ()
  | Select { range_a; range_c } ->
      if I.is_empty range_a then Error (Err.Empty_range { name = "range_a" })
      else if I.is_empty range_c then Error (Err.Empty_range { name = "range_c" })
      else Ok ()

let sub_cmd qid = function
  | Band { range } -> Sub_band { qid; range }
  | Select { range_a; range_c } -> Sub_select { qid; range_a; range_c }

let fresh_qid t =
  let q = t.next_qid in
  t.next_qid <- q + 1;
  q

(* Hand a query command to the shard its strip deals to: applied
   inline on a one-shard engine, queued otherwise. *)
let send t spec cmd =
  match t.impl with
  | Seq se -> apply se cmd
  | Par p -> Bounded_queue.push p.shard_states.(shard_of t spec).queue cmd

(* Install one query: record its definition and subscribe it on its
   strip's shard.  O(1) beyond the engine's own subscribe. *)
let add_query t spec cb =
  let qid = fresh_qid t in
  Hashtbl.replace t.regs qid spec;
  if qid >= Array.length t.cbs then begin
    let grown = Array.make (2 * (qid + 1)) no_cb in
    Array.blit t.cbs 0 grown 0 (Array.length t.cbs);
    t.cbs <- grown
  end;
  t.cbs.(qid) <- cb;
  send t spec (sub_cmd qid spec);
  { sub_qid = qid }

let remove_query t qid =
  match Hashtbl.find_opt t.regs qid with
  | None -> false
  | Some spec ->
      Hashtbl.remove t.regs qid;
      t.cbs.(qid) <- no_cb;
      send t spec (Unsub { qid });
      true

let try_subscribe_band t ~range cb =
  match live t with
  | Error e -> Error e
  | Ok () -> (
      let spec = Band { range } in
      match validate_spec spec with Error e -> Error e | Ok () -> Ok (add_query t spec cb))

let subscribe_band t ~range cb = Err.ok_exn (try_subscribe_band t ~range cb)

let try_subscribe_select t ~range_a ~range_c cb =
  match live t with
  | Error e -> Error e
  | Ok () -> (
      let spec = Select { range_a; range_c } in
      match validate_spec spec with Error e -> Error e | Ok () -> Ok (add_query t spec cb))

let subscribe_select t ~range_a ~range_c cb =
  Err.ok_exn (try_subscribe_select t ~range_a ~range_c cb)

let unsubscribe t sub =
  ensure_live t;
  remove_query t sub.sub_qid

(* ------------------------------ ingest --------------------------------- *)

(* Crude service-time hint for rejected producers: roughly half a
   millisecond per command ahead of the one that didn't fit. *)
let retry_after_ms ~depth ~needed = 0.5 *. float_of_int (depth + needed)

(* Shed-mode keep-rate from instantaneous queue pressure: exact below
   half capacity, then degrading linearly to a floor of 0.1 as the
   deepest queue approaches full. *)
let adaptive_rate p =
  let half = queue_capacity / 2 in
  let maxd =
    Array.fold_left (fun acc st -> Int.max acc (Bounded_queue.length st.queue)) 0 p.shard_states
  in
  if maxd <= half then 1.0
  else
    Float.max 0.1 (1.0 -. (0.9 *. (float_of_int (maxd - half) /. float_of_int half)))

(* Shed mode never blocks indefinitely: a chunk waits at most this long
   for every queue to have a free slot, then is dropped whole (no shard
   receives it, so shards never disagree about the event stream). *)
let shed_grace_ns = 5_000_000L (* 5 ms *)

(* The coordinator is the only producer, so once a free slot is
   observed it cannot disappear before our push. *)
let wait_all_space p ~deadline =
  Array.for_all
    (fun st ->
      let rec loop () =
        if Bounded_queue.length st.queue < queue_capacity then true
        else if Cq_util.Clock.monotonic_ns () >= deadline then false
        else begin
          Domain.cpu_relax ();
          loop ()
        end
      in
      loop ())
    p.shard_states

let try_ingest_batch_flat t side batch =
  let x_name, y_name = match side with R -> ("a", "b") | S -> ("b", "c") in
  match Result.bind (live t) (fun () -> E.validate_batch ~x_name ~y_name batch) with
  | Error e -> Error e
  | Ok () -> (
      let bs = t.cfg.batch_size in
      let n = Batch.length batch in
      let needed = (n + bs - 1) / bs in
      (* Reject-mode admission check happens before any chunk is
         published: the whole batch is accepted or refused atomically,
         so a rejected call leaves no partial state behind.  A batch
         needing more chunks than the queue can hold at all is refused
         with a distinct, non-retriable error — an [Overload] with its
         backoff hint would send the producer into a retry loop that
         can never succeed, even against idle queues. *)
      let admission =
        match (t.cfg.overload, t.impl) with
        | E.Config.Reject, Par _ when needed > queue_capacity ->
            Error
              (Err.Invalid_parameter
                 {
                   name = "rows";
                   value = Printf.sprintf "%d rows (%d chunks of %d)" n needed bs;
                   expected =
                     Printf.sprintf
                       "at most queue_capacity * batch_size = %d rows per batch under \
                        the Reject policy; split the batch"
                       (queue_capacity * bs);
                 })
        | E.Config.Reject, Par p ->
            Array.fold_left
              (fun acc st ->
                match acc with
                | Error _ -> acc
                | Ok () ->
                    let depth = Bounded_queue.length st.queue in
                    if depth + needed > queue_capacity then begin
                      Metrics.incr m_rejected;
                      Error
                        (Err.Overload
                           {
                             shard = st.sid;
                             queue_depth = depth;
                             retry_after_ms = retry_after_ms ~depth ~needed;
                           })
                    end
                    else Ok ())
              (Ok ()) p.shard_states
        | _ -> Ok ()
      in
      match admission with
      | Error _ as e -> e
      | Ok () ->
          (match t.impl with
          | Seq se ->
              (* Single engine: the whole batch is one command. *)
              let base_seq = t.next_seq in
              t.next_seq <- base_seq + n;
              apply se (Ingest { iside = side; batch; base_seq; rate = t.cfg.shed_rate })
          | Par p ->
              (* Chunks are zero-copy slice views of the caller's
                 batch: freeze the root while any view sits in a shard
                 queue, releasing it at the next flush barrier.  An
                 already-sealed root stays the caller's to unseal. *)
              if n > 0 && (not (Batch.is_view batch)) && not (Batch.sealed batch) then begin
                Batch.seal batch;
                t.inflight <- batch :: t.inflight
              end;
              let off = ref 0 in
              while !off < n do
                let len = min bs (n - !off) in
                let chunk = Batch.slice batch ~pos:!off ~len in
                let base_seq = t.next_seq in
                t.next_seq <- base_seq + len;
                (* Per-chunk keep-rate: a forced shed_rate < 1.0 is the
                   deterministic-replay configuration; otherwise Shed
                   adapts to the deepest queue and Block/Reject stay at
                   the configured (normally exact) rate. *)
                let rate =
                  match t.cfg.overload with
                  | E.Config.Shed ->
                      if t.cfg.shed_rate < 1.0 then t.cfg.shed_rate else adaptive_rate p
                  | E.Config.Block | E.Config.Reject -> t.cfg.shed_rate
                in
                let admit =
                  match t.cfg.overload with
                  | E.Config.Shed ->
                      Metrics.set m_shed_rate rate;
                      let deadline =
                        Int64.add (Cq_util.Clock.monotonic_ns ()) shed_grace_ns
                      in
                      wait_all_space p ~deadline
                  | E.Config.Block | E.Config.Reject -> true
                in
                if admit then begin
                  Metrics.incr m_batches;
                  (* The view is immutable once published: every shard
                     reads the same sealed columns. *)
                  Array.iter
                    (fun st ->
                      Bounded_queue.push st.queue
                        (Ingest { iside = side; batch = chunk; base_seq; rate });
                      Metrics.set st.depth_gauge
                        (float_of_int (Bounded_queue.length st.queue)))
                    p.shard_states
                end
                else begin
                  t.dropped_chunks <- t.dropped_chunks + 1;
                  t.dropped_rows <- t.dropped_rows + len;
                  Metrics.incr m_dropped;
                  Log.warn (fun m ->
                      m "shed mode dropped a %d-row chunk: queues full past grace window" len)
                end;
                off := !off + len
              done);
          Ok ())

(* Legacy row-array ingest: copy once into a fresh root batch and ship
   it down the flat path. *)
let try_ingest_batch t side rows = try_ingest_batch_flat t side (Batch.of_rows rows)
let ingest_batch t side rows = Err.ok_exn (try_ingest_batch t side rows)

(* ------------------------- barrier and merge --------------------------- *)

(* A misbehaving subscriber must not break delivery for everyone else. *)
let protected cb r s =
  try cb r s
  with exn ->
    Log.warn (fun m -> m "subscriber callback raised %s" (Printexc.to_string exn))

(* Merge the runs by ascending seq, shard by shard within a seq: the
   (seq, shard, delivery index) order, in O(results × shards), with a
   straight walk for one shard.  Then empty the runs.  Results of a
   query unsubscribed since its shard produced them are discarded
   here, before anything counts them as delivered. *)
let deliver t =
  let runs = t.runs in
  let k = Array.length runs in
  let pos = Array.make k 0 in
  let n = ref 0 and seq = ref 0 in
  while !seq < max_int do
    seq := max_int;
    for i = 0 to k - 1 do
      let r = runs.(i) in
      if pos.(i) < r.len && r.seqs.(pos.(i)) < !seq then seq := r.seqs.(pos.(i))
    done;
    for i = 0 to k - 1 do
      let r = runs.(i) in
      let j = ref pos.(i) in
      while !j < r.len && r.seqs.(!j) = !seq do
        let cb = t.cbs.(r.qids.(!j)) in
        if cb != no_cb then begin
          protected cb r.rs.(!j) r.ss.(!j);
          t.delivered.(i) <- t.delivered.(i) + 1;
          incr n
        end;
        incr j
      done;
      pos.(i) <- !j
    done
  done;
  Array.iter (fun r -> r.len <- 0) runs;
  !n

(* Run one barrier command (Flush or Check) through every shard and
   wait for all acks before looking at any error — a poisoned shard
   still acks, so the barrier cannot deadlock, and the first stored
   worker exception is re-raised here on the coordinator. *)
let barrier p cmd =
  Array.iter
    (fun st ->
      Mutex.lock st.lock;
      st.ack <- None;
      Mutex.unlock st.lock;
      Bounded_queue.push st.queue cmd)
    p.shard_states;
  let rec await st =
    match st.ack with
    | Some ack -> ack
    | None ->
        Condition.wait st.cond st.lock;
        await st
  in
  let acks =
    Array.map
      (fun st ->
        Mutex.lock st.lock;
        let ack = await st and err = st.worker_error in
        Mutex.unlock st.lock;
        Metrics.set st.depth_gauge (float_of_int (Bounded_queue.length st.queue));
        (ack, err))
      p.shard_states
  in
  Array.iter (fun (_, err) -> Option.iter raise err) acks;
  Array.map fst acks

let queries a = a.a_band.P.snap_queries + a.a_select.P.snap_queries
let groups a = a.a_stats.E.band_hotspots + a.a_stats.E.select_hotspots

(* Drain every shard through a [cmd] barrier (a [Check] also audits
   each shard's engine), deliver the merged results, and return the
   acks (each also carries its shard's stats/snapshot block). *)
let sync ?(cmd = Flush) t =
  match t.impl with
  | Seq se ->
      apply se cmd;
      ([ take_ack se ], deliver t)
  | Par p ->
      let acks = barrier p cmd in
      (* Every shard has drained its queue past our Ingest commands
         (the barrier ack follows them in FIFO order), so no chunk
         view is live any more: release the frozen roots. *)
      List.iter (fun b -> if Batch.sealed b then Batch.unseal b) t.inflight;
      t.inflight <- [];
      let n = deliver t in
      (* Refresh the per-shard load gauges from the acks, on the
         coordinator's domain — worker-side recording would race the
         registry's lock-free cells. *)
      Array.iter2
        (fun st a ->
          Metrics.set st.queries_gauge (float_of_int (queries a));
          Metrics.set st.groups_gauge (float_of_int (groups a));
          Metrics.set st.max_group_gauge (float_of_int a.a_stats.E.max_group_size);
          Metrics.set st.delivered_gauge (float_of_int t.delivered.(st.sid)))
        p.shard_states acks;
      let total = Array.fold_left ( + ) 0 t.delivered in
      if total > 0 then begin
        let mx = Array.fold_left Int.max 0 t.delivered in
        Metrics.set m_imbalance (float_of_int (mx * t.cfg.shards) /. float_of_int total)
      end;
      (Array.to_list acks, n)

(* A one-shard flush skips the barrier ack: nothing reads its stats. *)
let flush t =
  ensure_live t;
  let t0 = Metrics.stamp () in
  let n = match t.impl with Seq _ -> deliver t | Par _ -> snd (sync t) in
  Metrics.observe_since m_merge_ns t0;
  if t.cfg.overload = E.Config.Shed then Metrics.observe_since m_degraded_flush_ns t0;
  n

let results_delivered t = Array.fold_left ( + ) 0 t.delivered

(* ---------------------------- introspection ----------------------------- *)

type shard_load = {
  sl_shard : int;
  sl_queries : int;
  sl_groups : int;
  sl_max_group : int;
  sl_delivered : int;
}

let shard_loads t =
  ensure_live t;
  let acks, _ = sync t in
  Array.of_list
    (List.mapi
       (fun i a ->
         {
           sl_shard = i;
           sl_queries = queries a;
           sl_groups = groups a;
           sl_max_group = a.a_stats.E.max_group_size;
           sl_delivered = t.delivered.(i);
         })
       acks)

let merged_stats (acks : ack list) =
  let band = List.fold_left (fun acc a -> P.merge_snapshot acc a.a_band) P.empty_snapshot acks in
  let select =
    List.fold_left (fun acc a -> P.merge_snapshot acc a.a_select) P.empty_snapshot acks
  in
  let mx f = List.fold_left (fun acc a -> Int.max acc (f a.a_stats)) 0 acks in
  let sum f = List.fold_left (fun acc a -> acc + f a.a_stats) 0 acks in
  {
    E.r_size = mx (fun (s : E.stats) -> s.r_size);
    s_size = mx (fun s -> s.s_size);
    events_processed = mx (fun s -> s.events_processed);
    results_delivered = sum (fun s -> s.results_delivered);
    band_hotspots = band.P.snap_hotspots;
    band_coverage = band.P.snap_coverage;
    select_hotspots = select.P.snap_hotspots;
    select_coverage = select.P.snap_coverage;
    restructures = sum (fun s -> s.restructures);
    groups_split = sum (fun s -> s.groups_split);
    groups_merged = sum (fun s -> s.groups_merged);
    max_group_size = mx (fun s -> s.max_group_size);
  }

let stats t =
  ensure_live t;
  let acks, _ = sync t in
  merged_stats acks

(* Queries live on exactly one shard, so the per-shard degraded lists
   are disjoint and their union is the global report. *)
let shed_info t =
  ensure_live t;
  let acks, _ = sync t in
  List.concat_map (fun a -> a.a_degraded) acks
  |> List.sort (fun (a : E.degraded) b -> Int.compare a.deg_qid b.deg_qid)

let shed_totals t =
  ensure_live t;
  let acks, _ = sync t in
  let coins =
    List.fold_left
      (fun (acc : E.shed_totals) a ->
        {
          E.tot_kept = acc.tot_kept + a.a_shed.E.tot_kept;
          tot_dropped = acc.tot_dropped + a.a_shed.E.tot_dropped;
          tot_min_rate = Float.min acc.tot_min_rate a.a_shed.E.tot_min_rate;
        })
      { E.tot_kept = 0; tot_dropped = 0; tot_min_rate = 1.0 }
      acks
  in
  {
    par_kept = coins.E.tot_kept;
    par_dropped = coins.E.tot_dropped;
    par_min_rate = coins.E.tot_min_rate;
    par_dropped_chunks = t.dropped_chunks;
    par_dropped_rows = t.dropped_rows;
  }

let shard_result_counts t = Array.copy t.delivered

let check_invariants t =
  ensure_live t;
  let fail fmt = Err.corrupt ~structure:"parallel" fmt in
  (* One barrier drains every shard and audits its engine. *)
  let acks, _ = sync ~cmd:Check t in
  (* Each shard hosts exactly the registered queries whose strips deal
     to it. *)
  let expected = Array.make t.cfg.shards 0 in
  Hashtbl.iter
    (fun _ spec ->
      let sh = shard_of t spec in
      expected.(sh) <- expected.(sh) + 1)
    t.regs;
  List.iteri
    (fun sh a ->
      if queries a <> expected.(sh) then
        fail "parallel: shard %d hosts %d queries, its strips hold %d" sh (queries a) expected.(sh))
    acks

(* ------------------------------ shutdown ------------------------------- *)

(* Bounded-wait Stop delivery: a wedged or poisoned shard whose queue
   stays full must not deadlock teardown.  A shard whose Stop could not
   be enqueued is abandoned (leaked domain) rather than joined forever
   — and the leak is logged. *)
let stop_shards p =
  let stop_ok =
    Array.map
      (fun st -> Bounded_queue.push_timeout st.queue Stop ~timeout_ns:200_000_000L)
      p.shard_states
  in
  Array.iteri
    (fun i ok ->
      if ok then Domain.join p.doms.(i)
      else Log.err (fun m -> m "shard %d did not accept Stop within 200ms; abandoning its domain" i))
    stop_ok

let shutdown t =
  if not t.stopped then
    Fun.protect
      ~finally:(fun () ->
        t.stopped <- true;
        match t.impl with Seq _ -> () | Par p -> stop_shards p)
      (fun () -> ignore (sync t))

let with_engine cfg f =
  let t = Err.ok_exn (try_create_cfg cfg) in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

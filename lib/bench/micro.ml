(* Bechamel micro-benchmarks over the core operations: one Test.make
   per operation, all collected into a single run — plus the ingest
   allocation/latency measurements (Gc.minor_words deltas and p99
   per-event latency over the engine ingest spine). *)

open Bechamel
module I = Cq_interval.Interval
module BQ = Cq_joins.Band_query
module Bt = Cq_index.Btree
module Itree = Cq_index.Flat_interval_tree
module P = Hotspot_core.Refined_partition.Make (BQ.Elem)
module T = Hotspot_core.Hotspot_tracker.Make (BQ.Elem)

let ranges n seed =
  let rng = Cq_util.Rng.create seed in
  Cq_relation.Workload.gen_clustered_ranges rng ~n ~n_clusters:30 ~clustered_frac:0.8
    ~domain:(0.0, 10_000.0) ~cluster_halfwidth:80.0 ~len_mu:400.0 ~len_sigma:150.0

let tests () =
  let n = 10_000 in
  let rs = ranges n 1 in
  let queries = Array.mapi (fun qid range -> BQ.make ~qid ~range) rs in
  (* Pre-built structures probed by the benchmarks. *)
  let bt = Bt.create () in
  Array.iteri (fun i r -> Bt.insert bt (I.midpoint r) 0.0 i) rs;
  let it = Itree.create () in
  Array.iteri (fun i r -> Itree.add it r i) rs;
  let part = P.create ~epsilon:1.0 () in
  Array.iter (fun q -> P.insert part q) queries;
  let tracker = T.create ~alpha:0.005 () in
  Array.iter (fun q -> T.insert tracker q) (Array.sub queries 0 (n / 2));
  let rng = Cq_util.Rng.create 99 in
  let probe () = Cq_util.Dist.uniform rng ~lo:0.0 ~hi:10_000.0 in
  let counter = ref n in
  let rt = Cq_index.Rtree.create ~max_entries:8 () in
  Array.iteri
    (fun i r ->
      Cq_index.Rtree.insert rt
        (Cq_index.Rect.make ~x:r ~y:(I.of_midpoint ~mid:(I.midpoint r) ~len:(I.length r)))
        i)
    rs;
  (* The scattered band path's sweep: the 10k windows in their sweep
     store, shifted by a random offset, against a cursor on 64 sparse S
     keys. *)
  let srng = Cq_util.Rng.create 98 in
  let sprobe () = Cq_util.Dist.uniform srng ~lo:0.0 ~hi:10_000.0 in
  let sb = Bt.create () in
  for i = 0 to 63 do
    Bt.insert sb (sprobe ()) 0.0 i
  done;
  let module Store = Cq_index.Sweep_store in
  let store = Store.create () in
  Array.iteri (fun i r -> Store.add store r i) rs;
  let finger = Bt.finger sb in
  let cursor = Cq_relation.Table.cursor_on finger in
  let hits = ref 0 in
  let hit _ = incr hits in
  let sweep () =
    Bt.finger_reset finger;
    cursor.shift.(0) <- sprobe () -. 5_000.0;
    Cq_relation.Table.load_cursor cursor finger;
    Store.sweep store cursor hit
  in
  [
    Test.make ~name:"rtree.point_stab"
      (Staged.stage (fun () ->
           ignore (Cq_index.Rtree.stab_count rt ~x:(probe ()) ~y:(probe ()))));
    Test.make ~name:"btree.seek_ge" (Staged.stage (fun () -> ignore (Bt.seek_ge bt (probe ()) 0.0)));
    Test.make ~name:"btree.insert+delete"
      (Staged.stage (fun () ->
           let k = probe () in
           Bt.insert bt k 0.0 (-1);
           ignore (Bt.remove_first bt k 0.0 (fun v -> v = -1))));
    Test.make ~name:"interval_tree.stab"
      (Staged.stage (fun () -> ignore (Itree.stab_count it (probe ()))));
    Test.make ~name:"sweep_store.cursor_sweep" (Staged.stage sweep);
    Test.make ~name:"interval_tree.add+remove"
      (Staged.stage (fun () ->
           let iv = I.of_midpoint ~mid:(probe ()) ~len:300.0 in
           Itree.add it iv (-1);
           ignore (Itree.remove it iv (fun v -> v = -1))));
    Test.make ~name:"canonical_partition.build(1k)"
      (Staged.stage
         (let sub = Array.sub queries 0 1000 in
          fun () -> ignore (Hotspot_core.Stabbing.canonical BQ.Elem.interval sub)));
    Test.make ~name:"refined_partition.insert+delete"
      (Staged.stage (fun () ->
           incr counter;
           let q = BQ.make ~qid:!counter ~range:(I.of_midpoint ~mid:(probe ()) ~len:400.0) in
           P.insert part q;
           ignore (P.delete part q)));
    Test.make ~name:"hotspot_tracker.insert+delete"
      (Staged.stage (fun () ->
           incr counter;
           let q = BQ.make ~qid:!counter ~range:(I.of_midpoint ~mid:(probe ()) ~len:400.0) in
           T.insert tracker q;
           ignore (T.delete tracker q)));
  ]

(* ------------------------------------------------------------------ *)
(* Ingest-path allocation and latency                                  *)
(*                                                                     *)
(* Engine-level, deterministic workload; allocations are measured as   *)
(* Gc minor/promoted word deltas per ingested tuple, latency as p50/   *)
(* p99 over per-event monotonic-clock timings.  Two scenarios:         *)
(*   spine   — no subscriptions; the pure relation->engine storage     *)
(*             path (the headline allocs/op number)                    *)
(*   queried — a live band+select query population, so per-event work  *)
(*             includes group walks and result delivery.               *)
(* The seed capture of these numbers (out/BENCH_micro_seed.json) is    *)
(* the frozen baseline the batch path is compared against.             *)
(* ------------------------------------------------------------------ *)

module E = Cq_engine.Engine
module W = Cq_relation.Workload
module Batch = Cq_relation.Batch
module Stats = Cq_util.Stats

(* Frozen per-tuple baseline from the seed capture
   (out/BENCH_micro_seed.json, commit before the flat-batch refactor):
   minor words per ingested tuple on the spine / queried scenarios.
   The batch path's reduction_vs_seed metrics divide against these. *)
let seed_spine_allocs_per_op = 317.48
let seed_queried_allocs_per_op = 31525.28

type ingest_measure = {
  mi_allocs : float;  (* minor words / op *)
  mi_promoted : float;  (* promoted words / op *)
  mi_p50_ns : float;
  mi_p99_ns : float;
}

let ingest_rows ~n ~seed =
  let c = W.default in
  let s_rows =
    Array.map
      (fun (s : Cq_relation.Tuple.s) -> (s.b, s.c))
      (W.gen_s_tuples c (Cq_util.Rng.create seed) ~n)
  in
  let r_rows =
    Array.map
      (fun (r : Cq_relation.Tuple.r) -> (r.a, r.b))
      (W.gen_r_tuples c (Cq_util.Rng.create (seed + 1)) ~n)
  in
  (s_rows, r_rows)

(* Band offsets cluster near zero (the realistic band-join shape, as in
   the cqctl demo workload) so per-event work is dominated by group
   walks, not result fan-out; select queries follow Table 1. *)
let subscribe_queries eng ~seed ~n_band ~n_select =
  let rng = Cq_util.Rng.create seed in
  Array.iter
    (fun range -> ignore (E.subscribe_band eng ~range (fun _ _ -> ())))
    (W.gen_clustered_ranges ~scattered_len:(10.0, 4.0) rng ~n:n_band ~n_clusters:8
       ~clustered_frac:0.9 ~domain:(-500.0, 500.0) ~cluster_halfwidth:15.0 ~len_mu:40.0
       ~len_sigma:10.0);
  for _ = 1 to n_select do
    let mid_a = Cq_util.Dist.normal rng ~mu:5000.0 ~sigma:1500.0 in
    let mid_c = Cq_util.Dist.uniform rng ~lo:0.0 ~hi:10_000.0 in
    ignore
      (E.subscribe_select eng
         ~range_a:(I.of_midpoint ~mid:mid_a ~len:1000.0)
         ~range_c:(I.of_midpoint ~mid:mid_c ~len:300.0)
         (fun _ _ -> ()))
  done

(* One alternating S/R ingest step; [i] indexes into pre-generated row
   arrays so the allocation pass itself builds nothing. *)
let ingest_step eng s_rows r_rows i =
  if i land 1 = 0 then begin
    let b, c = s_rows.(i lsr 1) in
    ignore (E.insert_s eng ~b ~c)
  end
  else begin
    let a, b = r_rows.(i lsr 1) in
    ignore (E.insert_r eng ~a ~b)
  end

let measure_per_tuple ~queried ~n =
  let warmup = n / 4 in
  (* Enough rows for warmup + alloc pass + latency pass. *)
  let total = warmup + (2 * n) in
  let s_rows, r_rows = ingest_rows ~n:((total / 2) + 1) ~seed:42 in
  let eng = E.create ~seed:42 () in
  if queried then subscribe_queries eng ~seed:7 ~n_band:300 ~n_select:150;
  for i = 0 to warmup - 1 do
    ingest_step eng s_rows r_rows i
  done;
  Gc.minor ();
  let st0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  for i = warmup to warmup + n - 1 do
    ingest_step eng s_rows r_rows i
  done;
  let w1 = Gc.minor_words () in
  let st1 = Gc.quick_stat () in
  let fn = float_of_int n in
  let lat = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let j = warmup + n + i in
    let t0 = Cq_util.Clock.monotonic () in
    ingest_step eng s_rows r_rows j;
    lat.(i) <- (Cq_util.Clock.monotonic () -. t0) *. 1e9
  done;
  {
    mi_allocs = (w1 -. w0) /. fn;
    mi_promoted = (st1.Gc.promoted_words -. st0.Gc.promoted_words) /. fn;
    mi_p50_ns = Stats.percentile lat 50.0;
    mi_p99_ns = Stats.percentile lat 99.0;
  }

(* The flat-batch path over the same row streams: rows are pre-chunked
   into batches before measurement (construction is the producer's
   cost, not the ingest path's), then S and R batches alternate. *)
let batch_chunk = 512

let build_batches rows ~chunk =
  let n = Array.length rows in
  let nb = (n + chunk - 1) / chunk in
  Array.init nb (fun bi ->
      let off = bi * chunk in
      let len = min chunk (n - off) in
      let b = Batch.create ~capacity:len () in
      for i = 0 to len - 1 do
        let x, y = rows.(off + i) in
        Batch.push b ~x ~y
      done;
      b)

let measure_batch ~queried ~n =
  let chunk = batch_chunk in
  let warmup = n / 4 in
  let per_side = ((warmup + (2 * n)) / 2) + (2 * chunk) in
  let s_rows, r_rows = ingest_rows ~n:per_side ~seed:42 in
  let s_batches = build_batches s_rows ~chunk in
  let r_batches = build_batches r_rows ~chunk in
  let eng = E.create ~seed:42 () in
  if queried then subscribe_queries eng ~seed:7 ~n_band:300 ~n_select:150;
  let si = ref 0 and ri = ref 0 and toggle = ref false in
  let ingest_one ?on_event () =
    let len =
      if !toggle then begin
        let b = r_batches.(!ri) in
        incr ri;
        ignore (E.ingest_batch_r eng ?on_event b);
        Batch.length b
      end
      else begin
        let b = s_batches.(!si) in
        incr si;
        ignore (E.ingest_batch_s eng ?on_event b);
        Batch.length b
      end
    in
    toggle := not !toggle;
    len
  in
  let warmed = ref 0 in
  while !warmed < warmup do
    warmed := !warmed + ingest_one ()
  done;
  Gc.minor ();
  let st0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  let cnt = ref 0 in
  while !cnt < n do
    cnt := !cnt + ingest_one ()
  done;
  let w1 = Gc.minor_words () in
  let st1 = Gc.quick_stat () in
  let fn = float_of_int !cnt in
  (* Per-event latency from the post-event hook: the gap between
     consecutive hook firings is one event's processing time. *)
  let lat = Array.make (n + chunk) 0.0 in
  let li = ref 0 in
  let lcnt = ref 0 in
  while !lcnt < n do
    let prev = ref (Cq_util.Clock.monotonic ()) in
    let on_event _ =
      let now = Cq_util.Clock.monotonic () in
      if !li < Array.length lat then begin
        lat.(!li) <- (now -. !prev) *. 1e9;
        incr li
      end;
      prev := now
    in
    lcnt := !lcnt + ingest_one ~on_event ()
  done;
  let lat = Array.sub lat 0 !li in
  {
    mi_allocs = (w1 -. w0) /. fn;
    mi_promoted = (st1.Gc.promoted_words -. st0.Gc.promoted_words) /. fn;
    mi_p50_ns = Stats.percentile lat 50.0;
    mi_p99_ns = Stats.percentile lat 99.0;
  }

let ingest_row ~scenario ~path (m : ingest_measure) =
  Report.record_metric
    (Printf.sprintf "ingest_%s_%s_allocs_per_op" scenario path)
    m.mi_allocs "minor_words_per_op";
  Report.record_metric
    (Printf.sprintf "ingest_%s_%s_promoted_per_op" scenario path)
    m.mi_promoted "words_per_op";
  Report.record_metric
    (Printf.sprintf "ingest_%s_%s_p99_ns" scenario path)
    m.mi_p99_ns "ns";
  [
    scenario;
    path;
    Report.fmt_f m.mi_allocs;
    Report.fmt_f m.mi_promoted;
    Report.fmt_ns m.mi_p50_ns;
    Report.fmt_ns m.mi_p99_ns;
  ]

let ingest_run () =
  let spine = measure_per_tuple ~queried:false ~n:20_000 in
  let queried = measure_per_tuple ~queried:true ~n:4_000 in
  let spine_b = measure_batch ~queried:false ~n:20_000 in
  let queried_b = measure_batch ~queried:true ~n:4_000 in
  let rows =
    [
      ingest_row ~scenario:"spine" ~path:"per_tuple" spine;
      ingest_row ~scenario:"spine" ~path:"batch" spine_b;
      ingest_row ~scenario:"queried" ~path:"per_tuple" queried;
      ingest_row ~scenario:"queried" ~path:"batch" queried_b;
    ]
  in
  (* Headline acceptance metric: allocs-per-tuple reduction of the
     batch path against the frozen seed per-tuple capture. *)
  let reduction seed got = seed /. Float.max got 1e-9 in
  let spine_red = reduction seed_spine_allocs_per_op spine_b.mi_allocs in
  let queried_red = reduction seed_queried_allocs_per_op queried_b.mi_allocs in
  Report.record_metric "ingest_spine_batch_reduction_vs_seed" spine_red "x";
  Report.record_metric "ingest_queried_batch_reduction_vs_seed" queried_red "x";
  Report.note "seed per-tuple baseline: spine %.1f w/op, queried %.1f w/op"
    seed_spine_allocs_per_op seed_queried_allocs_per_op;
  Report.note "batch-path alloc reduction vs seed: spine %.1fx, queried %.1fx" spine_red
    queried_red;
  Report.table
    ~header:[ "scenario"; "path"; "minor w/op"; "promoted w/op"; "p50"; "p99" ]
    ~rows

(* ------------------------------------------------------------------ *)
(* Served fan-out allocation                                           *)
(*                                                                     *)
(* Minor words per result row for a session's output path: encoding    *)
(* rows in place ([record_result]), closing the flush ([end_flush])    *)
(* and writing ([write_step]) into a socketpair that is drained        *)
(* between rounds, outside the measurement.  Runs of 1-3 rows per qid  *)
(* give the served workload's short RESULTS frames.                    *)
(* ------------------------------------------------------------------ *)

module Session = Cq_net.Session

let fanout_rows = 1024

let serve_fanout_allocs_per_result () =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
  @@ fun () ->
  Unix.set_nonblock a;
  Unix.set_nonblock b;
  let s = Session.create ~sid:1 ~fd:a ~queue_cap:4096 ~max_frame:Cq_net.Frame.default_max_frame in
  let rng = Cq_util.Rng.create 5 in
  let qids = Array.make fanout_rows 0 in
  let i = ref 0 and q = ref 0 in
  while !i < fanout_rows do
    let run = 1 + Cq_util.Rng.int rng 3 in
    for j = !i to min fanout_rows (!i + run) - 1 do
      qids.(j) <- !q
    done;
    i := !i + run;
    q := (!q + 1) mod 64
  done;
  let rs = Array.init fanout_rows (fun i -> { Cq_relation.Tuple.rid = i; a = float_of_int i; b = 0.5 }) in
  let ss = Array.init fanout_rows (fun i -> { Cq_relation.Tuple.sid = i; b = 1.5; c = float_of_int (-i) }) in
  let rbuf = Bytes.create 65536 in
  let rec drain () =
    match Unix.read b rbuf 0 (Bytes.length rbuf) with
    | 0 -> ()
    | _ -> drain ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  let words = ref 0.0 in
  let round ~measure =
    let w0 = Gc.minor_words () in
    for i = 0 to fanout_rows - 1 do
      Session.record_result s ~qid:qids.(i) rs.(i) ss.(i)
    done;
    ignore (Session.end_flush s);
    ignore (Session.write_step s);
    if measure then words := !words +. (Gc.minor_words () -. w0);
    while Session.wants_write s do
      drain ();
      ignore (Session.write_step s)
    done;
    drain ()
  in
  for _ = 1 to 8 do
    round ~measure:false
  done;
  let rounds = 64 in
  for _ = 1 to rounds do
    round ~measure:true
  done;
  !words /. float_of_int (rounds * fanout_rows)

let fanout_run () =
  let w = serve_fanout_allocs_per_result () in
  Report.record_metric "serve_fanout_allocs_per_result" w "minor_words_per_result";
  Report.note "served fan-out (record_result + end_flush + write_step): %.3f minor words/result" w

(* Minor words per delivered result of a one-shard [Parallel] engine:
   each round ingests 16 R rows that join all 64 stored S rows for each
   of 16 wide band queries (1024 results per row), then flushes into a
   callback that only counts. *)
let parallel_delivery_allocs_per_result () =
  let module Par = Cq_engine.Parallel in
  Par.with_engine { E.Config.default with seed = 3 } @@ fun t ->
  let rng = Cq_util.Rng.create 11 in
  let row _ = (Cq_util.Rng.float rng *. 1000.0, Cq_util.Rng.float rng *. 1000.0) in
  let rows n = Batch.of_rows (Array.init n row) in
  let hits = ref 0 in
  for _ = 1 to 16 do
    ignore (Par.subscribe_band t ~range:(I.make (-1000.0) 1000.0) (fun _ _ -> incr hits))
  done;
  Cq_util.Error.ok_exn (Par.try_ingest_batch_flat t Par.S (rows 64));
  let words = ref 0.0 and results = ref 0 in
  for round = -8 to 31 do
    let b = rows 16 in
    let w0 = Gc.minor_words () in
    Cq_util.Error.ok_exn (Par.try_ingest_batch_flat t Par.R b);
    let n = Par.flush t in
    (* Rounds below zero warm up. *)
    if round >= 0 then begin
      words := !words +. (Gc.minor_words () -. w0);
      results := !results + n
    end
  done;
  !words /. float_of_int !results

(* Minor words per R-tree update and per point stab at M = 8, on the
   1k clustered rectangles of a select group's shape (rangeC from the
   clustered ranges, rangeA a same-length range around its midpoint).
   An update removes one seeded entry and inserts it again; the stabs
   land uniformly on the domain.  Rectangles, removal predicates and
   the stab callback are made before counting starts. *)
let rtree_allocs () =
  let module R = Cq_index.Rtree in
  let n = 1_000 and rounds = 20_000 in
  let rects =
    Array.map
      (fun r -> Cq_index.Rect.make ~x:r ~y:(I.of_midpoint ~mid:(I.midpoint r) ~len:(I.length r)))
      (ranges n 2)
  in
  let t = R.create ~max_entries:8 () in
  Array.iteri (fun i r -> R.insert t r i) rects;
  let owner = Array.init n (fun i p -> p = i) in
  let rng = Cq_util.Rng.create 7 in
  let picks = Array.init rounds (fun _ -> Cq_util.Rng.int rng n) in
  let coord () = Cq_util.Dist.uniform rng ~lo:0.0 ~hi:10_000.0 in
  (* Boxed once here, so a stab call boxes nothing. *)
  let points = Array.init rounds (fun _ -> (coord (), coord ())) in
  let hits = ref 0 in
  let hit _ = incr hits in
  let update k =
    let i = picks.(k) in
    ignore (R.remove t rects.(i) owner.(i));
    R.insert t rects.(i) i
  in
  (* The first half warms up (the split scratch, the vectors). *)
  for k = 0 to (rounds / 2) - 1 do
    update k
  done;
  let w0 = Gc.minor_words () in
  for k = rounds / 2 to rounds - 1 do
    update k
  done;
  let w1 = Gc.minor_words () in
  for k = 0 to rounds - 1 do
    let x, y = points.(k) in
    R.stab t ~x ~y hit
  done;
  let w2 = Gc.minor_words () in
  ((w1 -. w0) /. float_of_int (rounds / 2), (w2 -. w1) /. float_of_int rounds)

(* The scattered band path's sweep at scattered-band's shape: 9,500
   windows of length ~0.02 at uniform offsets in [-1500, 1500], and
   2,000 keys a side, S.B Normal(5000, 1000) and R.B uniform on
   [0, 10000].  Events alternate as the engine's do: an R event sweeps
   the windows against S.B shifted by its B, an S event the mirrored
   windows [-hi, -lo] against R.B shifted by its B.  Stores, cursors and
   shifts are made before counting starts, and the hit only counts.
   Neither the store's loop nor the cursor's descents (most events
   descend once, to their first window's target) allocate, so the
   words counted are 0.
   Returns minor words per event, and ns per stored window of each of
   [sweep_passes] timed passes over the same events, R and S events
   interleaved in each. *)
let sweep_events = 1_000
let sweep_passes = 7

let sweep_bench () =
  let module Store = Cq_index.Sweep_store in
  let rng = Cq_util.Rng.create 13 in
  let n = 9_500 in
  let fwd = Store.create () and bwd = Store.create () in
  for i = 0 to n - 1 do
    let mid = Cq_util.Dist.uniform rng ~lo:(-1500.0) ~hi:1500.0 in
    let w = I.of_midpoint ~mid ~len:(Float.max 0.005 (Cq_util.Dist.normal rng ~mu:0.02 ~sigma:0.005)) in
    Store.add fwd w i;
    Store.add bwd (I.make (-.I.hi w) (-.I.lo w)) i
  done;
  let s_b () = Cq_util.Dist.normal_clamped rng ~mu:5000.0 ~sigma:1000.0 ~lo:0.0 ~hi:10_000.0 in
  let r_b () = Cq_util.Dist.uniform rng ~lo:0.0 ~hi:10_000.0 in
  let finger draw =
    let t = Bt.create () in
    for i = 0 to 1_999 do
      Bt.insert t (draw ()) 0.0 i
    done;
    Bt.finger t
  in
  (* Index 0 is an R event's side, 1 an S event's. *)
  let stores = [| fwd; bwd |] and fingers = [| finger s_b; finger r_b |] in
  let cursors = Array.map Cq_relation.Table.cursor_on fingers in
  let shifts = Array.init sweep_events (fun e -> if e land 1 = 0 then r_b () else s_b ()) in
  let hits = ref 0 in
  let hit _ = incr hits in
  let pass () =
    for e = 0 to sweep_events - 1 do
      let side = e land 1 in
      let cursor = cursors.(side) in
      Bt.finger_reset fingers.(side);
      cursor.shift.(0) <- shifts.(e);
      Cq_relation.Table.load_cursor cursor fingers.(side);
      Store.sweep stores.(side) cursor hit
    done
  in
  pass ();
  let w0 = Gc.minor_words () in
  pass ();
  let words = (Gc.minor_words () -. w0) /. float_of_int sweep_events in
  let ns =
    Array.init sweep_passes (fun _ ->
        let t0 = Cq_util.Clock.monotonic () in
        pass ();
        (Cq_util.Clock.monotonic () -. t0) *. 1e9 /. float_of_int (sweep_events * n))
  in
  (words, ns, !hits / ((2 + sweep_passes) * sweep_events))

let run () =
  Report.section "micro" "Bechamel micro-benchmarks (ns per op, OLS on monotonic clock)";
  ingest_run ();
  fanout_run ();
  let w = parallel_delivery_allocs_per_result () in
  Report.record_metric "parallel_delivery_allocs_per_result" w "minor_words_per_result";
  Report.note "one-shard parallel delivery (ingest + flush): %.3f minor words/result" w;
  let update, stab = rtree_allocs () in
  Report.record_metric "rtree_update_allocs_per_op" update "minor_words_per_op";
  Report.record_metric "rtree_stab_allocs_per_op" stab "minor_words_per_op";
  Report.note "rtree (1k clustered, M = 8): %.2f minor words/update (remove + insert), %.2f/stab"
    update stab;
  let words, ns, hits = sweep_bench () in
  let q1 = Stats.percentile ns 25.0 and med = Stats.median ns and q3 = Stats.percentile ns 75.0 in
  Report.record_metric "sweep_allocs_per_event" words "minor_words_per_event";
  Report.record_metric "sweep_ns_per_window" med "ns";
  Report.note
    "sweep (9.5k windows, 2k keys a side, %d hits/event): %.2f minor words/event, %.2f ns per \
     stored window (median of %d passes, quartiles %.2f-%.2f, spread %.3f)"
    hits words med sweep_passes q1 q3 ((q3 -. q1) /. med);
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let rows =
    List.map
      (fun test ->
        let results = Benchmark.all cfg [ instance ] test in
        let analyzed = Analyze.all ols instance results in
        Hashtbl.fold
          (fun name ols_result acc ->
            let est =
              match Analyze.OLS.estimates ols_result with
              | Some [ e ] -> Report.fmt_ns e
              | _ -> "n/a"
            in
            [ name; est ] :: acc)
          analyzed [])
      (tests ())
    |> List.concat
    |> List.sort (List.compare String.compare)
  in
  Report.table ~header:[ "operation"; "time/op" ] ~rows

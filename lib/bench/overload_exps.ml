(* Overload management: degraded-answer accuracy at forced shed rates
   (claimed error bound vs observed error against an exact mirror) and
   the Block/Reject/Shed policy comparison under seeded ingest bursts. *)

module Par = Cq_engine.Parallel
module E = Cq_engine.Engine
module I = Cq_interval.Interval
module Rng = Cq_util.Rng

let p99 = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      a.(min (Array.length a - 1) (Array.length a * 99 / 100))

let fmax = List.fold_left Float.max 0.0

(* The forced-rate workload, generated exactly like the shed oracle's:
   small enough that the exact answer is computable by brute force. *)
let gen_workload ~seed ~n_rows ~n_q =
  let rng = Rng.create seed in
  let mk_iv () =
    let lo = (Rng.float rng *. 1000.0) -. 200.0 in
    I.make lo (lo +. 1.0 +. (Rng.float rng *. 150.0))
  in
  let queries =
    Array.init n_q (fun _ ->
        if Rng.bool rng then `Band (mk_iv ()) else `Select (mk_iv (), mk_iv ()))
  in
  let batches = ref [] and left = ref n_rows in
  while !left > 0 do
    let len = min !left (1 + Rng.int rng 50) in
    left := !left - len;
    let side = if Rng.bool rng then Par.R else Par.S in
    let rows =
      Array.init len (fun _ -> (Rng.float rng *. 1000.0, Rng.float rng *. 1000.0))
    in
    batches := (side, rows) :: !batches
  done;
  (queries, List.rev !batches)

(* One forced-rate accuracy run; returns (worst observed error, claimed
   bound at that query, total observed, total exact). *)
let accuracy ~seed ~rate ~n_rows ~n_q =
  let queries, batches = gen_workload ~seed ~n_rows ~n_q in
  let t =
    Par.create ~alpha:0.1 ~seed ~shards:2 ~batch_size:32 ~overload:E.Config.Shed
      ~shed_rate:rate ()
  in
  let observed = Array.make n_q 0 in
  Array.iteri
    (fun qi q ->
      let cb _ _ = observed.(qi) <- observed.(qi) + 1 in
      match q with
      | `Band range -> ignore (Par.subscribe_band t ~range cb)
      | `Select (range_a, range_c) -> ignore (Par.subscribe_select t ~range_a ~range_c cb))
    queries;
  (* Periodic flushes keep queue depths far from the shed grace window
     so no whole chunk is ever dropped: the claimed bounds this part
     checks are only valid with zero dropped rows. *)
  List.iteri
    (fun i (side, rows) ->
      Par.ingest_batch t side rows;
      if i mod 4 = 3 then ignore (Par.flush t))
    batches;
  ignore (Par.flush t);
  let info = Par.shed_info t in
  let totals = Par.shed_totals t in
  Par.shutdown t;
  if totals.Par.par_dropped_rows > 0 then
    Cq_util.Error.corrupt ~structure:"bench.overload"
      "accuracy run dropped %d rows whole — claimed bounds would be invalid; rerun on a \
       less loaded machine"
      totals.Par.par_dropped_rows;
  let rs = ref [] and ss = ref [] in
  List.iter
    (fun (side, rows) ->
      match side with
      | Par.R -> Array.iter (fun row -> rs := row :: !rs) rows
      | Par.S -> Array.iter (fun row -> ss := row :: !ss) rows)
    batches;
  let exact qi =
    let n = ref 0 in
    List.iter
      (fun (ra, rb) ->
        List.iter
          (fun (sb, sc) ->
            let hit =
              match queries.(qi) with
              | `Band w -> I.stabs w (sb -. rb)
              | `Select (wa, wc) -> rb = sb && I.stabs wa ra && I.stabs wc sc
            in
            if hit then incr n)
          !ss)
      !rs;
    !n
  in
  let worst_err = ref 0.0 and worst_claim = ref 0.0 in
  let tot_obs = ref 0 and tot_exact = ref 0 in
  List.iter
    (fun (d : E.degraded) ->
      let n = exact d.deg_qid in
      tot_obs := !tot_obs + d.deg_observed;
      tot_exact := !tot_exact + n;
      let err = Float.abs (d.deg_estimate -. float_of_int n) in
      if err > !worst_err then begin
        worst_err := err;
        worst_claim := d.deg_claimed_error
      end)
    info;
  (!worst_err, !worst_claim, !tot_obs, !tot_exact)

(* One burst replay under a policy; returns latency/counter summary. *)
let burst_run ~seed ~n_ops policy =
  let t = Par.create ~alpha:0.1 ~seed ~shards:2 ~batch_size:8 ~overload:policy () in
  let rng = Rng.create (seed + 0xb17) in
  for _ = 1 to 12 do
    let lo = (Rng.float rng *. 30.0) -. 15.0 in
    let range = I.make lo (lo +. 1.0 +. (Rng.float rng *. 5.0)) in
    ignore (Par.subscribe_band t ~range (fun _ _ -> ()))
  done;
  let ingest_ns = ref [] and flush_ns = ref [] and rejected = ref 0 in
  let timed cell f =
    let r, dt = Cq_util.Clock.time_ns f in
    cell := Int64.to_float dt :: !cell;
    r
  in
  let ingest side rows =
    match timed ingest_ns (fun () -> Par.try_ingest_batch t side rows) with
    | Ok () -> ()
    | Error _ -> incr rejected
  in
  (* The burst workload's rows and flushes; its queries are replaced
     by the twelve bands above. *)
  Array.iter
    (function
      | Cq_robust.Fault.Rows (side, rows) -> ingest side rows
      | Cq_robust.Fault.Flush -> ignore (timed flush_ns (fun () -> Par.flush t))
      | _ -> ())
    (Cq_robust.Fault.gen_burst ~seed ~n:n_ops).steps;
  ignore (timed flush_ns (fun () -> Par.flush t));
  let totals = Par.shed_totals t in
  Par.shutdown t;
  ( p99 !ingest_ns,
    fmax !ingest_ns,
    p99 !flush_ns,
    !rejected,
    totals.Par.par_kept,
    totals.Par.par_dropped,
    totals.Par.par_dropped_rows )

let overload (scale : Setup.scale) =
  Report.section "overload" "Overload management: admission control and load shedding";
  Report.note "Part A (accuracy): a seeded workload runs through the Shed policy at";
  Report.note "forced keep-rates; per-query Horvitz-Thompson estimates must land";
  Report.note "inside their claimed error bounds (checked here against an exact";
  Report.note "brute-force mirror; fuzzed across seeds by the Shed_bounds oracle).";
  Report.note "Part B (latency): the same seeded burst stream (ingest outrunning";
  Report.note "drain) replays under each overload policy; Shed must keep ingest";
  Report.note "calls non-blocking where Block absorbs the queue wait.";
  let seed = 11 in
  let n_rows = max 400 scale.Setup.events in
  let n_q = 16 in
  let canonical_rate = 0.5 in
  let acc_rows =
    List.map
      (fun rate ->
        let err, claim, obs, exact = accuracy ~seed ~rate ~n_rows ~n_q in
        if rate = canonical_rate then begin
          Report.json_param "shed_rate" (Printf.sprintf "%.2f" rate);
          Report.json_param "observed_error" (Printf.sprintf "%.3f" err);
          Report.json_param "claimed_error" (Printf.sprintf "%.3f" claim)
        end;
        [
          Printf.sprintf "%.2f" rate;
          string_of_int obs;
          string_of_int exact;
          Printf.sprintf "%.1f" err;
          Printf.sprintf "%.1f" claim;
        ])
      [ 0.25; 0.5; 0.75 ]
  in
  Report.table
    ~header:[ "keep-rate"; "delivered"; "exact"; "worst |est-N|"; "claimed bound" ]
    ~rows:acc_rows;
  Report.note "Shed's per-query bounds cover coin drops only: whole chunks dropped";
  Report.note "past the grace window (dropped-rows column) reach no shard and are";
  Report.note "outside the bounds — nonzero dropped rows invalidates them.";
  let n_ops = max 60 (scale.Setup.events / 2) in
  let pol_rows =
    List.map
      (fun policy ->
        let ing99, ingmax, fl99, rejected, kept, dropped, dropped_rows =
          burst_run ~seed ~n_ops policy
        in
        let name = E.Config.overload_to_string policy in
        Report.json_param (name ^ "_p99_ingest_ns") (Printf.sprintf "%.0f" ing99);
        Report.json_param (name ^ "_p99_flush_ns") (Printf.sprintf "%.0f" fl99);
        if policy = E.Config.Shed then
          Report.json_param "shed_dropped_rows" (string_of_int dropped_rows);
        [
          name;
          Report.fmt_ns ing99;
          Report.fmt_ns ingmax;
          Report.fmt_ns fl99;
          string_of_int rejected;
          string_of_int kept;
          string_of_int dropped;
          string_of_int dropped_rows;
        ])
      [ E.Config.Block; E.Config.Reject; E.Config.Shed ]
  in
  Report.table
    ~header:
      [
        "policy";
        "ingest p99";
        "ingest max";
        "flush p99";
        "rejected";
        "kept";
        "dropped";
        "dropped rows";
      ]
    ~rows:pol_rows

(* Tests for the robustness layer: the fault-stream generator's
   determinism, the differential oracle passing on every structure, the
   invariant auditors catching deliberately injected corruption, and
   the engine's input-validation taxonomy. *)

module I = Cq_interval.Interval
module Err = Cq_util.Error
module Oracle = Cq_robust.Oracle
module Invariant = Cq_robust.Invariant
module Fault = Cq_robust.Fault
module Engine = Cq_engine.Engine

let fuzz_ops = 3_000

(* ------------------------- determinism -------------------------------- *)

let dump (w : Fault.workload) =
  String.concat "; " (Array.to_list (Array.map (Format.asprintf "%a" Fault.pp_step) w.steps))

let test_fault_gen_deterministic () =
  let a = Fault.gen ~seed:5 ~n:500 and b = Fault.gen ~seed:5 ~n:500 in
  Alcotest.(check bool) "same seed, same stream" true (a = b);
  let c = Fault.gen ~seed:6 ~n:500 in
  Alcotest.(check bool) "different seed, different stream" true (a <> c);
  (* Compare printed forms: Bad_row steps carry NaN attributes, and
     NaN <> NaN under structural equality. *)
  Alcotest.(check string) "engine stream deterministic"
    (dump (Fault.gen_engine ~seed:5 ~n:500))
    (dump (Fault.gen_engine ~seed:5 ~n:500))

let test_fuzz_replay_deterministic () =
  let treap () =
    List.find (fun (s : Oracle.structure) -> s.name = "treap") (Oracle.structures ~seed:11)
  in
  let o1 = Oracle.run_structure (treap ()) ~seed:11 ~ops:1_000 in
  let o2 = Oracle.run_structure (treap ()) ~seed:11 ~ops:1_000 in
  Alcotest.(check int) "same final size" o1.Oracle.final_size o2.Oracle.final_size;
  Alcotest.(check bool) "same verdict" (Oracle.passed o1) (Oracle.passed o2)

(* --------------------- oracle agreement ------------------------------- *)

let check_outcome o =
  if not (Oracle.passed o) then Alcotest.fail (Format.asprintf "@[<v>%a@]" Oracle.pp_outcome o)

(* Each oracle test runs its own named slice of [Oracle.structures]; the
   slices are pinned against the full battery, so no structure drops out
   unnoticed. *)
let battery_groups =
  [
    ("stab indexes", [ "interval_tree"; "rtree"; "treap" ]);
    ("stores", [ "sweep_store"; "band_hot_groups" ]);
    ("btree", [ "btree" ]);
    ("tracker", [ "hotspot_tracker" ]);
    ("partitions", [ "lazy_partition"; "refined_partition" ]);
  ]

let test_fuzz_battery () =
  Alcotest.(check (list string)) "the battery"
    (List.concat_map snd battery_groups)
    (List.map (fun (s : Oracle.structure) -> s.name) (Oracle.structures ~seed:3))

let fuzz_group group () =
  let names = List.assoc group battery_groups in
  let structures = Oracle.structures ~seed:3 in
  List.iter
    (fun name ->
      match List.find_opt (fun (s : Oracle.structure) -> s.name = name) structures with
      | Some s -> check_outcome (Oracle.run_structure s ~seed:3 ~ops:fuzz_ops)
      | None -> Alcotest.failf "no structure named %s in the battery" name)
    names

let seeds n = List.init n (fun i -> i + 1)

let test_fuzz_engine () =
  check_outcome (Oracle.diff (Fault.gen_engine ~seed:3 ~n:400) Reference Seq_rows Same)

let test_fuzz_batch () =
  (* Whole batches against one-row batches over 100+ seeds: the same
     multisets and delivered counts, and with one session [Same_stream]
     also holds the global delivery order row by row. *)
  List.iter
    (fun seed ->
      let w = Fault.gen_uniform ~churn:true ~seed ~n:200 () in
      check_outcome (Oracle.diff w Seq_rows Seq_batch Same);
      check_outcome (Oracle.diff w Seq_rows Seq_batch Same_stream))
    (seeds 110)

let test_fuzz_parallel () =
  (* Both interesting shard counts: 2 = minimal fan-out, 4 = more
     strips than the striping period wraps around. *)
  List.iter
    (fun seed ->
      List.iter
        (fun shards ->
          check_outcome
            (Oracle.diff (Fault.gen_uniform ~seed ~n:300 ()) (Par 1) (Par shards) Same))
        [ 2; 4 ])
    (seeds 10)

let test_fuzz_drift () =
  (* The elastic-registration sweep: 110 seeds of the walking-hotspot
     stream, online subscribe/unsubscribe piled on one home shard, each
     run bit-for-bit multiset-identical to the 1-shard run.  A smaller
     shards = 2 sweep covers the minimal fan-out. *)
  let drift shards seed =
    check_outcome
      (Oracle.diff (Fault.gen_drift ~shards ~seed ~n:240 ()) (Par 1) (Par shards) Same)
  in
  List.iter (drift 4) (seeds 110);
  List.iter (drift 2) (seeds 10)

let test_drift_gen_deterministic () =
  Alcotest.(check string) "same seed, same drift stream"
    (dump (Fault.gen_drift ~shards:4 ~seed:5 ~n:200 ()))
    (dump (Fault.gen_drift ~shards:4 ~seed:5 ~n:200 ()));
  Alcotest.(check bool) "different seed, different drift stream" true
    (dump (Fault.gen_drift ~shards:4 ~seed:5 ~n:200 ())
    <> dump (Fault.gen_drift ~shards:4 ~seed:6 ~n:200 ()))

let test_burst_gen_deterministic () =
  Alcotest.(check string) "same seed, same burst stream"
    (dump (Fault.gen_burst ~seed:5 ~n:300))
    (dump (Fault.gen_burst ~seed:5 ~n:300));
  Alcotest.(check bool) "different seed, different burst stream" true
    (dump (Fault.gen_burst ~seed:5 ~n:300) <> dump (Fault.gen_burst ~seed:6 ~n:300))

let test_fuzz_shed () =
  (* The degraded answers' claimed error bounds must always contain
     the true cardinality.  shards = 1 covers the estimator math
     cheaply; a smaller shards = 4 sweep covers the cross-shard merge. *)
  let shed shards rate seed =
    check_outcome
      (Oracle.diff (Fault.gen_uniform ~rates:[| rate |] ~seed ~n:150 ()) Reference (Par shards)
         Shed_bounds)
  in
  List.iter (shed 1 0.5) (seeds 100);
  List.iter (fun seed -> shed 4 0.25 seed; shed 4 0.75 seed) (seeds 10)

let test_fuzz_shed_adaptive () =
  (* Exact phases at 1.0 interleaved with forced sub-unit phases:
     results delivered during exact phases must fold into the estimates
     at p = 1, so the claimed bounds cover the whole stream. *)
  List.iter
    (fun seed ->
      check_outcome
        (Oracle.diff (Fault.gen_uniform ~rates:Fault.mixed_rates ~seed ~n:150 ()) Reference Seq_rows
           Shed_bounds))
    (seeds 100)

let test_fuzz_burst () =
  (* Burst replay through adaptive Shed admission: ingest must never
     block or error, and the degraded answers must stay within their
     claimed bounds. *)
  List.iter
    (fun seed ->
      check_outcome (Oracle.diff (Fault.gen_burst ~seed ~n:40) Reference (Par 2) Shed_bounds))
    (seeds 5)

(* ------------------- comparators catch divergences -------------------- *)

(* Hand-made outputs: a comparator must name the seed and the step of
   the first divergence. *)
let pair ?(sign = 1) ~at qi rid sid =
  {
    Oracle.qi;
    sign;
    at;
    r = { Cq_relation.Tuple.rid; a = float_of_int rid; b = 0.0 };
    s = { Cq_relation.Tuple.sid; b = 0.0; c = float_of_int sid };
  }

let output ?(degraded = []) ?(min_rate = 1.0) ?(sessions = 1) ~queries results =
  let counts = Array.make queries 0 in
  List.iter (fun (x : Oracle.pair) -> counts.(x.qi) <- counts.(x.qi) + x.sign) results;
  {
    Oracle.driver = "hand";
    workload = "hand";
    seed = 42;
    steps = 9;
    sessions;
    counts;
    results;
    delivered = List.length (List.filter (fun (x : Oracle.pair) -> x.sign > 0) results);
    degraded;
    min_rate;
    dropped_rows = 0;
    failure = None;
    violations = [];
  }

let expect_divergence what ~op_index cmp a b =
  match (Oracle.verdict cmp a b).divergence with
  | None -> Alcotest.failf "%s went undetected" what
  | Some d ->
      Alcotest.(check int) (what ^ ": seed") 42 d.seed;
      Alcotest.(check int) (what ^ ": op index") op_index d.op_index

let expect_pass what cmp a b =
  let o = Oracle.verdict cmp a b in
  if not (Oracle.passed o) then
    Alcotest.failf "%s: %s" what (Format.asprintf "@[<v>%a@]" Oracle.pp_outcome o)

let test_same_catches () =
  let base = [ pair ~at:2 0 0 0; pair ~at:5 1 0 1; pair ~at:7 0 1 1; pair ~sign:(-1) ~at:8 0 1 1 ] in
  let a = output ~queries:2 base in
  expect_pass "identical multisets" Same a (output ~queries:2 (List.rev base));
  expect_divergence "one dropped result" ~op_index:5 Same a
    (output ~queries:2 (List.filter (fun (x : Oracle.pair) -> x.at <> 5) base));
  expect_divergence "one extra result" ~op_index:6 Same a
    (output ~queries:2 (base @ [ pair ~at:6 1 1 1 ]));
  expect_divergence "a wrong delivered count" ~op_index:9 Same a { a with delivered = 4 }

let degraded qi ~observed ~estimate ~claimed =
  {
    Cq_engine.Engine.deg_qid = qi;
    deg_observed = observed;
    deg_estimate = estimate;
    deg_claimed_error = claimed;
    deg_rate = 0.5;
  }

let test_shed_bounds_catch () =
  let exact = output ~queries:2 (List.init 10 (fun i -> pair ~at:i 0 i 0) @ [ pair ~at:3 1 0 1 ]) in
  let shed ~estimate ~q1 =
    output ~queries:2 ~min_rate:0.5
      ~degraded:[ degraded 0 ~observed:5 ~estimate ~claimed:2.0 ]
      (List.init 5 (fun i -> pair ~at:i 0 (2 * i) 0) @ List.init q1 (fun _ -> pair ~at:3 1 0 1))
  in
  expect_pass "estimate on its claimed bound" Shed_bounds exact (shed ~estimate:12.0 ~q1:1);
  expect_divergence "an estimate one past its claimed bound" ~op_index:9 Shed_bounds exact
    (shed ~estimate:13.0 ~q1:1);
  expect_divergence "a shed-untouched query short by one" ~op_index:9 Shed_bounds exact
    (shed ~estimate:12.0 ~q1:0)

let test_same_stream_catches () =
  (* Two sessions: q0 belongs to session 0, q1 to session 1. *)
  let served = output ~sessions:2 ~queries:2 [ pair ~at:9 0 1 1; pair ~at:9 0 2 2; pair ~at:9 1 3 3 ] in
  let direct rows = output ~queries:2 rows in
  expect_pass "sessions interleaved in global order" Same_stream served
    (direct [ pair ~at:2 0 1 1; pair ~at:3 1 3 3; pair ~at:4 0 2 2 ]);
  expect_divergence "two served rows swapped" ~op_index:9 Same_stream served
    (direct [ pair ~at:2 0 2 2; pair ~at:3 1 3 3; pair ~at:4 0 1 1 ])

let test_audit_workload_clean () =
  List.iter
    (fun (name, report) ->
      match report with
      | Ok () -> ()
      | Error vs -> Alcotest.failf "%s: %d violations" name (List.length vs))
    (Oracle.audit_workload ~seed:9 ~n:2_000 ())

(* --------------------- corruption detection --------------------------- *)

module E = struct
  type t = int * I.t

  let compare (i1, v1) (i2, v2) =
    match Float.compare (I.lo v1) (I.lo v2) with 0 -> Int.compare i1 i2 | c -> c

  let interval (_, v) = v
end

module Tracker = Hotspot_core.Hotspot_tracker.Make (E)
module Tracker_audit = Invariant.Tracker (E) (Tracker)

let hot_tracker () =
  let t = Tracker.create ~alpha:0.2 ~seed:1 () in
  for i = 0 to 19 do
    Tracker.insert t (i, I.make (float_of_int i *. 0.1) 10.0)
  done;
  Alcotest.(check bool) "tracker has a hotspot" true (Tracker.num_hotspots t > 0);
  (match Tracker_audit.audit t with
  | Ok () -> ()
  | Error vs -> Alcotest.failf "clean tracker failed its audit (%d violations)" (List.length vs));
  t

(* Each test-only corruption hook must be caught by the tracker audit. *)
let corruption_caught corrupt what () =
  let t = hot_tracker () in
  Alcotest.(check bool) "corruption applied" true (corrupt t);
  match Tracker_audit.audit t with
  | Ok () -> Alcotest.failf "%s went undetected" what
  | Error vs -> Alcotest.(check bool) "non-empty violation report" true (vs <> [])

(* The hotspot walk offers each candidate once only because every query
   sits in one place: one aux group, or the scattered index.  Two
   clusters of five windows form two hotspots at α = 0.3 and one far
   window stays scattered; each hook plants a query in a second place
   with every count unchanged, and the processor's audit must see it. *)
module BJ = Cq_joins.Band_join

let planted_duplicate_caught plant what () =
  let table = Cq_relation.Table.of_s_tuples [| { Cq_relation.Tuple.sid = 0; b = 0.5; c = 0.0 } |] in
  let windows =
    List.init 5 (fun i -> I.make (float_of_int i *. 0.1) 1.0)
    @ List.init 5 (fun i -> I.make (50.0 +. (float_of_int i *. 0.1)) 51.0)
    @ [ I.make 100.0 101.0 ]
  in
  let st =
    BJ.Hotspot.create_alpha ~alpha:0.3 ~seed:1 table (Cq_joins.Band_query.of_ranges (Array.of_list windows))
  in
  Alcotest.(check int) "two hotspots" 2 (BJ.Hotspot.num_hotspots st);
  BJ.Hotspot.check_invariants st;
  Alcotest.(check bool) "duplicate planted" true (plant st);
  match BJ.Hotspot.check_invariants st with
  | () -> Alcotest.failf "%s went undetected" what
  | exception Err.Cq_error (Err.Corrupt _) -> ()

let test_merge_reports () =
  let v = { Invariant.structure = "x"; check = "c"; detail = "d" } in
  (match Invariant.merge [ Ok (); Ok () ] with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "merge of clean reports not clean");
  match Invariant.merge [ Ok (); Error [ v ]; Error [ v; v ] ] with
  | Ok () -> Alcotest.fail "merge dropped violations"
  | Error vs -> Alcotest.(check int) "all violations kept" 3 (List.length vs)

(* --------------------- engine input validation ------------------------ *)

let test_engine_rejects_bad_alpha () =
  (match Engine.try_create ~alpha:0.0 () with
  | Error (Err.Invalid_parameter { name = "alpha"; _ }) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Err.to_string e)
  | Ok _ -> Alcotest.fail "alpha = 0 accepted");
  match Engine.try_create ~alpha:1.5 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "alpha > 1 accepted"

let test_engine_rejects_nonfinite_tuples () =
  let eng = Engine.create () in
  (match Engine.try_insert_r eng ~a:Float.nan ~b:1.0 with
  | Error (Err.Not_finite { name = "a"; _ }) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Err.to_string e)
  | Ok _ -> Alcotest.fail "NaN attribute accepted");
  (match Engine.try_insert_s eng ~b:Float.infinity ~c:0.0 with
  | Error (Err.Not_finite { name = "b"; _ }) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Err.to_string e)
  | Ok _ -> Alcotest.fail "infinite attribute accepted");
  (* A rejected bulk load must leave the engine untouched. *)
  (match Engine.try_load_s eng [| (1.0, 2.0); (Float.nan, 0.0) |] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "bulk load with a NaN row accepted");
  Alcotest.(check int) "no rows slipped in" 0 (Engine.stats eng).s_size

let test_engine_rejects_empty_windows () =
  let eng = Engine.create () in
  (match Engine.try_subscribe_band eng ~range:I.empty (fun _ _ -> ()) with
  | Error (Err.Empty_range { name = "range" }) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Err.to_string e)
  | Ok _ -> Alcotest.fail "empty band window accepted");
  match Engine.try_subscribe_select eng ~range_a:(I.make 0.0 1.0) ~range_c:I.empty (fun _ _ -> ()) with
  | Error (Err.Empty_range { name = "range_c" }) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Err.to_string e)
  | Ok _ -> Alcotest.fail "empty select window accepted"

let test_plain_variants_raise_cq_error () =
  (match Engine.create ~alpha:(-1.0) () with
  | exception Err.Cq_error (Err.Invalid_parameter _) -> ()
  | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "bad alpha accepted");
  let eng = Engine.create () in
  match Engine.insert_r eng ~a:0.0 ~b:Float.nan with
  | exception Err.Cq_error (Err.Not_finite _) -> ()
  | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "NaN accepted"

let test_engine_seed_determinism () =
  (* The seed must actually thread through to the trackers: identical
     runs give identical stats, bit for bit. *)
  let run () =
    let eng = Engine.create ~alpha:0.3 ~seed:77 () in
    let hits = ref 0 in
    for i = 0 to 9 do
      ignore
        (Engine.subscribe_band eng
           ~range:(I.make (float_of_int (i mod 3) -. 1.0) (float_of_int (i mod 3)))
           (fun _ _ -> incr hits))
    done;
    for i = 0 to 99 do
      ignore (Engine.insert_r eng ~a:(float_of_int (i mod 7)) ~b:(float_of_int (i mod 11)));
      ignore (Engine.insert_s eng ~b:(float_of_int (i mod 11)) ~c:(float_of_int (i mod 5)))
    done;
    (Engine.stats eng, !hits)
  in
  let s1, h1 = run () and s2, h2 = run () in
  Alcotest.(check bool) "identical stats" true (s1 = s2);
  Alcotest.(check int) "identical deliveries" h1 h2

let () =
  Alcotest.run "robust"
    [
      ( "fault",
        [
          Alcotest.test_case "stream deterministic" `Quick test_fault_gen_deterministic;
          Alcotest.test_case "burst stream deterministic" `Quick test_burst_gen_deterministic;
          Alcotest.test_case "drift stream deterministic" `Quick test_drift_gen_deterministic;
          Alcotest.test_case "replay deterministic" `Quick test_fuzz_replay_deterministic;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "battery covers every structure" `Quick test_fuzz_battery;
          Alcotest.test_case "stab indexes agree" `Slow (fuzz_group "stab indexes");
          Alcotest.test_case "stores agree" `Quick (fuzz_group "stores");
          Alcotest.test_case "btree agrees" `Quick (fuzz_group "btree");
          Alcotest.test_case "tracker agrees" `Quick (fuzz_group "tracker");
          Alcotest.test_case "partitions agree" `Quick (fuzz_group "partitions");
          Alcotest.test_case "engine agrees" `Quick test_fuzz_engine;
          Alcotest.test_case "batch ingest matches per-tuple" `Quick test_fuzz_batch;
          Alcotest.test_case "parallel matches sequential" `Quick test_fuzz_parallel;
          Alcotest.test_case "drift register churn stays deterministic" `Quick
            test_fuzz_drift;
          Alcotest.test_case "shed answers within claimed bounds" `Quick test_fuzz_shed;
          Alcotest.test_case "adaptive-rate shed answers within bounds" `Quick
            test_fuzz_shed_adaptive;
          Alcotest.test_case "burst replay stays non-blocking" `Quick test_fuzz_burst;
          Alcotest.test_case "workload audit clean" `Quick test_audit_workload_clean;
          Alcotest.test_case "same catches divergences" `Quick test_same_catches;
          Alcotest.test_case "shed bounds catch divergences" `Quick test_shed_bounds_catch;
          Alcotest.test_case "same stream catches divergences" `Quick test_same_stream_catches;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "where_hot caught" `Quick
            (corruption_caught Tracker.Testing.corrupt_where_hot "corrupted where_hot map");
          Alcotest.test_case "isect caught" `Quick
            (corruption_caught Tracker.Testing.corrupt_isect "corrupted group intersection");
          Alcotest.test_case "size caught" `Quick
            (corruption_caught Tracker.Testing.corrupt_size "stale cached group size");
          Alcotest.test_case "query in two aux groups caught" `Quick
            (planted_duplicate_caught BJ.Hotspot.Testing.plant_in_two_groups
               "a query in two aux groups");
          Alcotest.test_case "query in an aux group and the scattered index caught" `Quick
            (planted_duplicate_caught BJ.Hotspot.Testing.plant_in_group_and_scattered
               "a query in an aux group and the scattered index");
          Alcotest.test_case "merge keeps violations" `Quick test_merge_reports;
        ] );
      ( "validation",
        [
          Alcotest.test_case "bad alpha" `Quick test_engine_rejects_bad_alpha;
          Alcotest.test_case "non-finite tuples" `Quick test_engine_rejects_nonfinite_tuples;
          Alcotest.test_case "empty windows" `Quick test_engine_rejects_empty_windows;
          Alcotest.test_case "plain variants raise Cq_error" `Quick test_plain_variants_raise_cq_error;
          Alcotest.test_case "seed determinism" `Quick test_engine_seed_determinism;
        ] );
    ]

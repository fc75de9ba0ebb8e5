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

let test_fault_gen_deterministic () =
  let a = Fault.gen ~seed:5 ~n:500 and b = Fault.gen ~seed:5 ~n:500 in
  Alcotest.(check bool) "same seed, same stream" true (a = b);
  let c = Fault.gen ~seed:6 ~n:500 in
  Alcotest.(check bool) "different seed, different stream" true (a <> c);
  (* Compare printed forms: Reject_ins_r ops carry NaN attributes, and
     NaN <> NaN under structural equality. *)
  let dump ops =
    String.concat "; "
      (Array.to_list (Array.map (Format.asprintf "%a" Fault.pp_engine_op) ops))
  in
  Alcotest.(check string) "engine stream deterministic"
    (dump (Fault.gen_engine ~seed:5 ~n:500))
    (dump (Fault.gen_engine ~seed:5 ~n:500))

let test_fuzz_replay_deterministic () =
  let o1 = Oracle.run_index (module Oracle.Treap_driver) ~seed:11 ~ops:1_000 in
  let o2 = Oracle.run_index (module Oracle.Treap_driver) ~seed:11 ~ops:1_000 in
  Alcotest.(check int) "same final size" o1.Oracle.final_size o2.Oracle.final_size;
  Alcotest.(check bool) "same verdict" (Oracle.passed o1) (Oracle.passed o2)

(* --------------------- oracle agreement ------------------------------- *)

let check_outcome o =
  if not (Oracle.passed o) then Alcotest.fail (Format.asprintf "@[<v>%a@]" Oracle.pp_outcome o)

let test_fuzz_indexes () =
  List.iter (fun d -> check_outcome (Oracle.run_index d ~seed:3 ~ops:fuzz_ops)) Oracle.index_drivers

let test_fuzz_btree () = check_outcome (Oracle.run_btree ~seed:3 ~ops:fuzz_ops)
let test_fuzz_tracker () = check_outcome (Oracle.run_tracker ~seed:3 ~ops:fuzz_ops ())

let test_fuzz_partitions () =
  check_outcome (Oracle.run_lazy_partition ~seed:3 ~ops:fuzz_ops);
  check_outcome (Oracle.run_refined_partition ~seed:3 ~ops:fuzz_ops)

let test_fuzz_engine () = check_outcome (Oracle.run_engine ~seed:3 ~ops:400 ())

let test_fuzz_batch () =
  (* The flat-batch-vs-per-tuple multiset property over 100+ seeds. *)
  List.iter
    (fun seed -> check_outcome (Oracle.run_batch ~seed ~ops:200 ()))
    (List.init 110 (fun i -> i + 1))

let test_fuzz_parallel () =
  (* The parallel-vs-sequential multiset property across many seeds and
     both interesting shard counts (2 = minimal fan-out, 4 = more
     strips than the striping period wraps around). *)
  List.iter
    (fun seed ->
      check_outcome (Oracle.run_parallel ~shards:2 ~seed ~ops:300 ());
      check_outcome (Oracle.run_parallel ~shards:4 ~seed ~ops:300 ()))
    (List.init 10 (fun i -> i + 1))

let test_fuzz_drift () =
  (* The elastic-registration sweep: 110 seeds of the walking-hotspot
     stream, online register/deregister piled on one home shard, each
     run bit-for-bit multiset-identical to the 1-shard run.  A smaller
     shards = 2 sweep covers the minimal fan-out. *)
  List.iter
    (fun seed -> check_outcome (Oracle.run_drift ~shards:4 ~seed ~ops:240 ()))
    (List.init 110 (fun i -> i + 1));
  List.iter
    (fun seed -> check_outcome (Oracle.run_drift ~shards:2 ~seed ~ops:240 ()))
    (List.init 10 (fun i -> i + 1))

let test_drift_gen_deterministic () =
  let dump ops =
    String.concat "; "
      (Array.to_list (Array.map (Format.asprintf "%a" Fault.pp_drift_op) ops))
  in
  Alcotest.(check string) "same seed, same drift stream"
    (dump (Fault.gen_drift ~shards:4 ~seed:5 ~n:200 ()))
    (dump (Fault.gen_drift ~shards:4 ~seed:5 ~n:200 ()));
  Alcotest.(check bool) "different seed, different drift stream" true
    (dump (Fault.gen_drift ~shards:4 ~seed:5 ~n:200 ())
    <> dump (Fault.gen_drift ~shards:4 ~seed:6 ~n:200 ()))

let test_burst_gen_deterministic () =
  let dump ops =
    String.concat "; "
      (Array.to_list (Array.map (Format.asprintf "%a" Fault.pp_burst_op) ops))
  in
  Alcotest.(check string) "same seed, same burst stream"
    (dump (Fault.gen_burst ~seed:5 ~n:300))
    (dump (Fault.gen_burst ~seed:5 ~n:300));
  Alcotest.(check bool) "different seed, different burst stream" true
    (dump (Fault.gen_burst ~seed:5 ~n:300) <> dump (Fault.gen_burst ~seed:6 ~n:300))

let test_fuzz_shed () =
  (* The shed-mode differential check over many seeds: the degraded
     answers' claimed relative-error bounds must always contain the
     true cardinality.  shards = 1 covers the estimator math cheaply;
     a smaller shards = 4 sweep covers the cross-shard merge. *)
  List.iter
    (fun seed ->
      check_outcome (Oracle.run_shed ~shards:1 ~rate:0.5 ~seed ~ops:150 ()))
    (List.init 100 (fun i -> i + 1));
  List.iter
    (fun seed ->
      check_outcome (Oracle.run_shed ~shards:4 ~rate:0.25 ~seed ~ops:150 ());
      check_outcome (Oracle.run_shed ~shards:4 ~rate:0.75 ~seed ~ops:150 ()))
    (List.init 10 (fun i -> i + 1))

let test_fuzz_shed_adaptive () =
  (* The mixed-rate schedule (exact phases at 1.0 interleaved with
     forced sub-unit phases) over many seeds: results delivered during
     exact phases must fold into the estimates at p = 1, so the claimed
     bounds cover the whole stream, not just the shedding phases. *)
  List.iter
    (fun seed -> check_outcome (Oracle.run_shed_adaptive ~seed ~ops:150 ()))
    (List.init 100 (fun i -> i + 1))

let test_fuzz_burst () =
  (* Seeded burst replay through Shed admission: ingest must never
     block or error, and the degraded answers must stay within their
     claimed bounds. *)
  List.iter
    (fun seed -> check_outcome (Oracle.run_burst ~shards:2 ~seed ~ops:400 ()))
    (List.init 5 (fun i -> i + 1))

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

let test_corrupt_where_hot_caught () =
  let t = hot_tracker () in
  Alcotest.(check bool) "corruption applied" true (Tracker.Testing.corrupt_where_hot t);
  match Tracker_audit.audit t with
  | Ok () -> Alcotest.fail "corrupted where_hot map went undetected"
  | Error vs -> Alcotest.(check bool) "non-empty violation report" true (vs <> [])

let test_corrupt_isect_caught () =
  let t = hot_tracker () in
  Alcotest.(check bool) "corruption applied" true (Tracker.Testing.corrupt_isect t);
  match Tracker_audit.audit t with
  | Ok () -> Alcotest.fail "corrupted group intersection went undetected"
  | Error vs -> Alcotest.(check bool) "non-empty violation report" true (vs <> [])

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
          Alcotest.test_case "stab indexes agree" `Slow test_fuzz_indexes;
          Alcotest.test_case "btree agrees" `Quick test_fuzz_btree;
          Alcotest.test_case "tracker agrees" `Quick test_fuzz_tracker;
          Alcotest.test_case "partitions agree" `Quick test_fuzz_partitions;
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
        ] );
      ( "corruption",
        [
          Alcotest.test_case "where_hot caught" `Quick test_corrupt_where_hot_caught;
          Alcotest.test_case "isect caught" `Quick test_corrupt_isect_caught;
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

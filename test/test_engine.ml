(* End-to-end engine tests: symmetric R/S event processing against an
   incrementally maintained brute-force oracle. *)

module I = Cq_interval.Interval
module Engine = Cq_engine.Engine

let fgen hi = QCheck2.Gen.(map float_of_int (int_bound hi))

let interval_gen hi =
  QCheck2.Gen.(map2 (fun a b -> if a <= b then I.make a b else I.make b a) (fgen hi) (fgen hi))

type ev = InsR of float * float | InsS of float * float

let scenario_gen =
  QCheck2.Gen.(
    let* band_ranges = list_size (int_range 0 15) (interval_gen 10) in
    let* select_ranges = list_size (int_range 0 15) (pair (interval_gen 20) (interval_gen 20)) in
    let* events =
      list_size (int_range 1 40)
        (oneof
           [
             map2 (fun a b -> InsR (a, b)) (fgen 20) (fgen 10);
             map2 (fun b c -> InsS (b, c)) (fgen 10) (fgen 20);
           ])
    in
    return (band_ranges, select_ranges, events))

let prop_engine_matches_oracle =
  QCheck2.Test.make ~name:"engine: mixed R/S stream matches oracle" ~count:150 scenario_gen
    (fun (band_ranges, select_ranges, events) ->
      let eng = Engine.create ~alpha:0.3 () in
      (* Record every delivered result as (kind, query-index, rid, sid). *)
      let delivered = ref [] in
      List.iteri
        (fun i range ->
          ignore
            (Engine.subscribe_band eng ~range:(I.shift range (-5.0)) (fun r s ->
                 delivered := (`Band, i, r.Cq_relation.Tuple.rid, s.Cq_relation.Tuple.sid) :: !delivered)))
        band_ranges;
      List.iteri
        (fun i (range_a, range_c) ->
          ignore
            (Engine.subscribe_select eng ~range_a ~range_c (fun r s ->
                 delivered := (`Select, i, r.Cq_relation.Tuple.rid, s.Cq_relation.Tuple.sid) :: !delivered)))
        select_ranges;
      (* Oracle state. *)
      let rs = ref [] and ss = ref [] in
      let expected = ref [] in
      let band_match i range (rid, ra, rb) (sid, sb, _sc) =
        ignore ra;
        if I.stabs (I.shift range (-5.0)) (sb -. rb) then
          expected := (`Band, i, rid, sid) :: !expected
      in
      let select_match i (range_a, range_c) (rid, ra, rb) (sid, sb, sc) =
        if rb = sb && I.stabs range_a ra && I.stabs range_c sc then
          expected := (`Select, i, rid, sid) :: !expected
      in
      List.iter
        (fun ev ->
          match ev with
          | InsR (a, b) ->
              let r, _ = Engine.insert_r eng ~a ~b in
              let rt = (r.Cq_relation.Tuple.rid, a, b) in
              List.iter (fun st -> List.iteri (fun i rg -> band_match i rg rt st) band_ranges) !ss;
              List.iter
                (fun st -> List.iteri (fun i rg -> select_match i rg rt st) select_ranges)
                !ss;
              rs := rt :: !rs
          | InsS (b, c) ->
              let s, _ = Engine.insert_s eng ~b ~c in
              let st = (s.Cq_relation.Tuple.sid, b, c) in
              List.iter (fun rt -> List.iteri (fun i rg -> band_match i rg rt st) band_ranges) !rs;
              List.iter
                (fun rt -> List.iteri (fun i rg -> select_match i rg rt st) select_ranges)
                !rs;
              ss := st :: !ss)
        events;
      let norm l = List.sort compare l in
      norm !delivered = norm !expected
      || QCheck2.Test.fail_reportf "delivered %d, expected %d results"
           (List.length !delivered) (List.length !expected))

(* The engine's two sides are built from one `ingest`/`retract` path, so
   swapping the roles of R and S must be invisible: run a stream on engine
   A and its mirror image on engine B (R-inserts become S-inserts with
   a <-> c, band windows negated, select windows swapped) and demand the
   delivery multisets coincide under the mirror. *)
let prop_engine_rs_symmetry =
  QCheck2.Test.make ~name:"engine: mirrored streams give mirrored deliveries" ~count:60
    scenario_gen
    (fun (band_ranges, select_ranges, events) ->
      let ea = Engine.create ~alpha:0.3 () in
      let eb = Engine.create ~alpha:0.3 () in
      (* Deliveries keyed by attributes (ids differ across roles):
         (kind, query, r.a, r.b, s.b, s.c) with B's read back through
         the mirror. *)
      let da = ref [] and db = ref [] in
      let neg w = I.make (-.I.hi w) (-.I.lo w) in
      List.iteri
        (fun i range ->
          let w = I.shift range (-5.0) in
          ignore
            (Engine.subscribe_band ea ~range:w (fun r s ->
                 da := (`Band, i, r.Cq_relation.Tuple.a, r.b, s.Cq_relation.Tuple.b, s.c) :: !da));
          ignore
            (Engine.subscribe_band eb ~range:(neg w) (fun r s ->
                 db := (`Band, i, s.Cq_relation.Tuple.c, s.b, r.Cq_relation.Tuple.b, r.a) :: !db)))
        band_ranges;
      List.iteri
        (fun i (range_a, range_c) ->
          ignore
            (Engine.subscribe_select ea ~range_a ~range_c (fun r s ->
                 da := (`Select, i, r.Cq_relation.Tuple.a, r.b, s.Cq_relation.Tuple.b, s.c) :: !da));
          ignore
            (Engine.subscribe_select eb ~range_a:range_c ~range_c:range_a (fun r s ->
                 db := (`Select, i, s.Cq_relation.Tuple.c, s.b, r.Cq_relation.Tuple.b, r.a) :: !db)))
        select_ranges;
      List.iter
        (fun ev ->
          let ka, kb =
            match ev with
            | InsR (a, b) ->
                let _, ka = Engine.insert_r ea ~a ~b in
                let _, kb = Engine.insert_s eb ~b ~c:a in
                (ka, kb)
            | InsS (b, c) ->
                let _, ka = Engine.insert_s ea ~b ~c in
                let _, kb = Engine.insert_r eb ~a:c ~b in
                (ka, kb)
          in
          if ka <> kb then
            QCheck2.Test.fail_reportf "per-event counts differ: %d vs %d" ka kb)
        events;
      let norm l = List.sort compare l in
      norm !da = norm !db
      || QCheck2.Test.fail_reportf "asymmetry: %d vs %d deliveries" (List.length !da)
           (List.length !db))

let test_engine_unsubscribe () =
  let eng = Engine.create () in
  let hits = ref 0 in
  let sub = Engine.subscribe_band eng ~range:(I.make (-5.0) 5.0) (fun _ _ -> incr hits) in
  Engine.load_s eng [| (3.0, 1.0) |];
  ignore (Engine.insert_r eng ~a:0.0 ~b:2.0);
  Alcotest.(check int) "hit once" 1 !hits;
  Alcotest.(check bool) "unsubscribe" true (Engine.unsubscribe eng sub);
  Alcotest.(check bool) "double unsubscribe" false (Engine.unsubscribe eng sub);
  ignore (Engine.insert_r eng ~a:0.0 ~b:2.0);
  Alcotest.(check int) "no further hits" 1 !hits;
  Alcotest.(check int) "no band queries left" 0 (Engine.band_query_count eng)

let test_engine_load_does_not_fire () =
  let eng = Engine.create () in
  let hits = ref 0 in
  ignore (Engine.subscribe_band eng ~range:(I.make (-100.0) 100.0) (fun _ _ -> incr hits));
  Engine.load_s eng (Array.init 50 (fun i -> (float_of_int i, 0.0)));
  Engine.load_r eng (Array.init 50 (fun i -> (0.0, float_of_int i)));
  Alcotest.(check int) "loads are silent" 0 !hits;
  let st = Engine.stats eng in
  Alcotest.(check int) "r loaded" 50 st.Engine.r_size;
  Alcotest.(check int) "s loaded" 50 st.Engine.s_size

let test_engine_stats_accumulate () =
  let eng = Engine.create ~alpha:0.4 () in
  for i = 0 to 9 do
    ignore
      (Engine.subscribe_select eng
         ~range_a:(I.make 0.0 10.0)
         ~range_c:(I.make (float_of_int i) (float_of_int i +. 5.0))
         (fun _ _ -> ()))
  done;
  Engine.load_s eng [| (5.0, 3.0); (5.0, 8.0) |];
  let _, n = Engine.insert_r eng ~a:5.0 ~b:5.0 in
  let st = Engine.stats eng in
  Alcotest.(check int) "events" 1 st.Engine.events_processed;
  Alcotest.(check int) "results match per-event count" n st.Engine.results_delivered;
  Alcotest.(check bool) "some results" true (n > 0);
  (* 10 heavily overlapping rangeC's with alpha=0.4 form a hotspot. *)
  Alcotest.(check bool) "select hotspot exists" true (st.Engine.select_hotspots >= 1)


let test_engine_retractions () =
  let eng = Engine.create ~alpha:0.3 () in
  let results = ref [] and retracted = ref [] in
  ignore
    (Engine.subscribe_band eng
       ~on_retract:(fun r s ->
         retracted := (r.Cq_relation.Tuple.rid, s.Cq_relation.Tuple.sid) :: !retracted)
       ~range:(I.make (-2.0) 2.0)
       (fun r s -> results := (r.Cq_relation.Tuple.rid, s.Cq_relation.Tuple.sid) :: !results));
  let s1, _ = Engine.insert_s eng ~b:5.0 ~c:0.0 in
  let r1, k1 = Engine.insert_r eng ~a:0.0 ~b:4.0 in
  Alcotest.(check int) "one result" 1 k1;
  (* Deleting the R tuple retracts the pair it produced. *)
  (match Engine.delete_r eng r1 with
  | Some k -> Alcotest.(check int) "one retraction" 1 k
  | None -> Alcotest.fail "tuple should be present");
  Alcotest.(check (list (pair int int))) "retraction pair" !results !retracted;
  Alcotest.(check bool) "double delete" true (Engine.delete_r eng r1 = None);
  (* A later event no longer joins with the deleted tuple. *)
  let _, k2 = Engine.insert_s eng ~b:4.5 ~c:0.0 in
  Alcotest.(check int) "deleted R invisible" 0 k2;
  (* Deleting the S tuple retracts nothing (its partner is gone). *)
  match Engine.delete_s eng s1 with
  | Some k -> Alcotest.(check int) "no retractions left" 0 k
  | None -> Alcotest.fail "s tuple should be present"

let test_engine_select_retractions () =
  let eng = Engine.create () in
  let retracted = ref 0 in
  ignore
    (Engine.subscribe_select eng
       ~on_retract:(fun _ _ -> incr retracted)
       ~range_a:(I.make 0.0 10.0) ~range_c:(I.make 0.0 10.0)
       (fun _ _ -> ()));
  ignore (Engine.insert_r eng ~a:5.0 ~b:7.0);
  let s, k = Engine.insert_s eng ~b:7.0 ~c:3.0 in
  Alcotest.(check int) "one result" 1 k;
  ignore (Engine.delete_s eng s);
  Alcotest.(check int) "one retraction" 1 !retracted


let test_engine_preloaded_r_joins_s_events () =
  (* Tuples loaded into R must be visible to later S-side events via
     the mirrored-processing path. *)
  let eng = Engine.create () in
  ignore
    (Engine.subscribe_select eng ~range_a:(I.make 0.0 10.0) ~range_c:(I.make 0.0 10.0)
       (fun _ _ -> ()));
  ignore (Engine.subscribe_band eng ~range:(I.make (-1.0) 1.0) (fun _ _ -> ()));
  Engine.load_r eng [| (5.0, 7.0); (20.0, 7.0) (* A out of rangeA *) |];
  let _, k = Engine.insert_s eng ~b:7.0 ~c:5.0 in
  (* select: joins the first R tuple only; band: |7-7|=0 joins both. *)
  Alcotest.(check int) "select (1) + band (2)" 3 k


(* Mixed insert/delete stream with retraction tracking: the multiset of
   (query, pair) deliveries minus retractions must equal the live
   brute-force join at every point; we check the final state. *)
type dev = DInsR of float * float | DInsS of float * float | DDelR | DDelS

let churn_scenario_gen =
  QCheck2.Gen.(
    let* band_ranges = list_size (int_range 0 10) (interval_gen 10) in
    let* events =
      list_size (int_range 1 50)
        (frequency
           [
             (3, map2 (fun a b -> DInsR (a, b)) (fgen 20) (fgen 10));
             (3, map2 (fun b c -> DInsS (b, c)) (fgen 10) (fgen 20));
             (1, return DDelR);
             (1, return DDelS);
           ])
    in
    return (band_ranges, events))

let prop_engine_deletions_retract =
  QCheck2.Test.make ~name:"engine: net deliveries = live join under churn" ~count:120
    churn_scenario_gen (fun (band_ranges, events) ->
      let eng = Engine.create ~alpha:0.3 () in
      (* net.(i) holds the balance of deliveries - retractions per query. *)
      let net = Hashtbl.create 64 in
      let bump k d =
        Hashtbl.replace net k (d + Option.value ~default:0 (Hashtbl.find_opt net k))
      in
      List.iteri
        (fun i range ->
          ignore
            (Engine.subscribe_band eng
               ~on_retract:(fun r s ->
                 bump (i, r.Cq_relation.Tuple.rid, s.Cq_relation.Tuple.sid) (-1))
               ~range:(I.shift range (-5.0))
               (fun r s -> bump (i, r.Cq_relation.Tuple.rid, s.Cq_relation.Tuple.sid) 1)))
        band_ranges;
      let live_r = ref [] and live_s = ref [] in
      List.iter
        (fun ev ->
          match ev with
          | DInsR (a, b) ->
              let r, _ = Engine.insert_r eng ~a ~b in
              live_r := r :: !live_r
          | DInsS (b, c) ->
              let sx, _ = Engine.insert_s eng ~b ~c in
              live_s := sx :: !live_s
          | DDelR -> (
              match !live_r with
              | [] -> ()
              | r :: rest ->
                  (match Engine.delete_r eng r with
                  | Some _ -> live_r := rest
                  | None -> QCheck2.Test.fail_report "delete_r failed on live tuple"))
          | DDelS -> (
              match !live_s with
              | [] -> ()
              | sx :: rest ->
                  (match Engine.delete_s eng sx with
                  | Some _ -> live_s := rest
                  | None -> QCheck2.Test.fail_report "delete_s failed on live tuple")))
        events;
      (* Brute-force live join. *)
      let expected = Hashtbl.create 64 in
      List.iteri
        (fun i range ->
          let w = I.shift range (-5.0) in
          List.iter
            (fun (r : Cq_relation.Tuple.r) ->
              List.iter
                (fun (sx : Cq_relation.Tuple.s) ->
                  if I.stabs w (sx.b -. r.b) then
                    Hashtbl.replace expected (i, r.rid, sx.sid) 1)
                !live_s)
            !live_r)
        band_ranges;
      let ok = ref true in
      Hashtbl.iter
        (fun k d ->
          let want = Option.value ~default:0 (Hashtbl.find_opt expected k) in
          if d <> want then ok := false)
        net;
      Hashtbl.iter
        (fun k _ ->
          if Option.value ~default:0 (Hashtbl.find_opt net k) <> 1 then ok := false)
        expected;
      !ok)


let test_engine_isolates_failing_callback () =
  (* A raising subscriber must not starve its peers. *)
  let eng = Engine.create () in
  let good = ref 0 in
  ignore
    (Engine.subscribe_band eng ~range:(I.make (-1.0) 1.0) (fun _ _ -> failwith "boom"));
  ignore (Engine.subscribe_band eng ~range:(I.make (-1.0) 1.0) (fun _ _ -> incr good));
  Engine.load_s eng [| (5.0, 0.0) |];
  let _, k = Engine.insert_r eng ~a:0.0 ~b:5.0 in
  Alcotest.(check int) "both results delivered" 2 k;
  Alcotest.(check int) "good subscriber saw the result" 1 !good;
  (* The same for select callbacks, on either side's events. *)
  let unit = I.make (-1.0) 1.0 in
  ignore (Engine.subscribe_select eng ~range_a:unit ~range_c:unit (fun _ _ -> failwith "boom"));
  ignore (Engine.subscribe_select eng ~range_a:unit ~range_c:unit (fun _ _ -> incr good));
  let _, k = Engine.insert_r eng ~a:0.0 ~b:5.0 in
  Alcotest.(check int) "band and select results delivered" 4 k;
  let _, k = Engine.insert_s eng ~b:5.0 ~c:0.0 in
  Alcotest.(check int) "S event: band and select results" 8 k;
  Alcotest.(check int) "good subscribers saw every result" 7 !good;
  Alcotest.(check int) "all counted" 14 (Engine.stats eng).results_delivered

(* Callbacks sit in a qid-indexed array: an unsubscribed qid's slot
   calls nothing while the results still counted stay as they were, a
   freed qid can be claimed again explicitly, a qid far past the others
   grows the array, and a negative qid is refused. *)
let test_engine_qid_slots () =
  let eng = Engine.create () in
  let hits = Array.make 3 0 in
  let band i = Engine.subscribe_band eng ~range:(I.make (-1.0) 1.0) (fun _ _ -> hits.(i) <- hits.(i) + 1) in
  let q0 = band 0 in
  ignore (band 1);
  Engine.load_s eng [| (5.0, 0.0) |];
  ignore (Engine.insert_r eng ~a:0.0 ~b:5.0);
  Alcotest.(check bool) "unsubscribed" true (Engine.unsubscribe eng q0);
  ignore (Engine.insert_r eng ~a:0.0 ~b:5.0);
  Alcotest.(check (array int)) "no callback after unsubscribe" [| 1; 2; 0 |] hits;
  Alcotest.(check int) "results counted" 3 (Engine.stats eng).results_delivered;
  let reuse =
    Engine.subscribe_band eng ~qid:0 ~range:(I.make (-1.0) 1.0) (fun _ _ -> hits.(2) <- hits.(2) + 1)
  in
  let far = ref 0 in
  ignore
    (Engine.subscribe_select eng ~qid:1000 ~range_a:(I.make (-1.0) 1.0) ~range_c:(I.make (-1.0) 1.0)
       (fun _ _ -> incr far));
  ignore (Engine.insert_r eng ~a:0.0 ~b:5.0);
  Alcotest.(check (array int)) "freed qid claimed again" [| 1; 3; 1 |] hits;
  Alcotest.(check int) "far qid delivered" 1 !far;
  Alcotest.(check int) "results counted" 6 (Engine.stats eng).results_delivered;
  (match Engine.try_subscribe_band eng ~qid:0 ~range:(I.make 0.0 1.0) (fun _ _ -> ()) with
  | Error (Cq_util.Error.Duplicate _) -> ()
  | _ -> Alcotest.fail "a live qid must be refused");
  (match Engine.try_subscribe_band eng ~qid:(-1) ~range:(I.make 0.0 1.0) (fun _ _ -> ()) with
  | Error (Cq_util.Error.Invalid_parameter { name = "qid"; _ }) -> ()
  | _ -> Alcotest.fail "a negative band qid must be refused");
  (match
     Engine.try_subscribe_select eng ~qid:(-7) ~range_a:(I.make 0.0 1.0) ~range_c:(I.make 0.0 1.0)
       (fun _ _ -> ())
   with
  | Error (Cq_util.Error.Invalid_parameter { name = "qid"; _ }) -> ()
  | _ -> Alcotest.fail "a negative select qid must be refused");
  Alcotest.(check int) "nothing registered by the refusals" 3
    (Engine.band_query_count eng + Engine.select_query_count eng);
  ignore (Engine.unsubscribe eng reuse);
  Engine.check_invariants eng

(* ---------------------------- parallel engine -------------------------- *)

module Par = Cq_engine.Parallel

(* Replay one generated scenario through the sharded engine; deliveries
   surface at flush.  Single-row batches with a small batch_size stress
   the command protocol harder than big aligned batches would. *)
let run_parallel_scenario ~shards (band_ranges, select_ranges, events) =
  let t = Par.create ~alpha:0.3 ~shards ~batch_size:8 () in
  let delivered = ref [] in
  List.iteri
    (fun i range ->
      ignore
        (Par.subscribe_band t ~range:(I.shift range (-5.0)) (fun r s ->
             delivered :=
               (`Band, i, r.Cq_relation.Tuple.rid, s.Cq_relation.Tuple.sid) :: !delivered)))
    band_ranges;
  List.iteri
    (fun i (range_a, range_c) ->
      ignore
        (Par.subscribe_select t ~range_a ~range_c (fun r s ->
             delivered :=
               (`Select, i, r.Cq_relation.Tuple.rid, s.Cq_relation.Tuple.sid) :: !delivered)))
    select_ranges;
  List.iter
    (fun ev ->
      match ev with
      | InsR (a, b) -> Par.ingest_batch t Par.R [| (a, b) |]
      | InsS (b, c) -> Par.ingest_batch t Par.S [| (b, c) |])
    events;
  ignore (Par.flush t);
  Par.check_invariants t;
  Par.shutdown t;
  !delivered

(* The sequential engine delivers the same scenario inline; its rids and
   sids line up with the parallel engine's because both ingest the
   identical stream in order. *)
let run_sequential_scenario (band_ranges, select_ranges, events) =
  let eng = Engine.create ~alpha:0.3 () in
  let delivered = ref [] in
  List.iteri
    (fun i range ->
      ignore
        (Engine.subscribe_band eng ~range:(I.shift range (-5.0)) (fun r s ->
             delivered :=
               (`Band, i, r.Cq_relation.Tuple.rid, s.Cq_relation.Tuple.sid) :: !delivered)))
    band_ranges;
  List.iteri
    (fun i (range_a, range_c) ->
      ignore
        (Engine.subscribe_select eng ~range_a ~range_c (fun r s ->
             delivered :=
               (`Select, i, r.Cq_relation.Tuple.rid, s.Cq_relation.Tuple.sid) :: !delivered)))
    select_ranges;
  List.iter
    (fun ev ->
      match ev with
      | InsR (a, b) -> ignore (Engine.insert_r eng ~a ~b)
      | InsS (b, c) -> ignore (Engine.insert_s eng ~b ~c))
    events;
  !delivered

(* The flat-batch ingest path must deliver the identical result
   {e sequence} — same tuples, same rids/sids, same order — as a
   per-tuple insert loop over the same rows.  Consecutive same-side
   events coalesce into one batch each, so batches of many sizes (and
   singletons) are exercised. *)
let run_batched_scenario (band_ranges, select_ranges, events) =
  let eng = Engine.create ~alpha:0.3 () in
  let delivered = ref [] in
  List.iteri
    (fun i range ->
      ignore
        (Engine.subscribe_band eng ~range:(I.shift range (-5.0)) (fun r s ->
             delivered :=
               (`Band, i, r.Cq_relation.Tuple.rid, s.Cq_relation.Tuple.sid) :: !delivered)))
    band_ranges;
  List.iteri
    (fun i (range_a, range_c) ->
      ignore
        (Engine.subscribe_select eng ~range_a ~range_c (fun r s ->
             delivered :=
               (`Select, i, r.Cq_relation.Tuple.rid, s.Cq_relation.Tuple.sid) :: !delivered)))
    select_ranges;
  let module Batch = Cq_relation.Batch in
  let pending_side = ref `R and pending = ref [] in
  let flush_pending () =
    match !pending with
    | [] -> ()
    | rows ->
        let b = Batch.of_rows (Array.of_list (List.rev rows)) in
        ignore
          (match !pending_side with
          | `R -> Engine.ingest_batch_r eng b
          | `S -> Engine.ingest_batch_s eng b);
        pending := []
  in
  List.iter
    (fun ev ->
      let side, row = match ev with InsR (a, b) -> (`R, (a, b)) | InsS (b, c) -> (`S, (b, c)) in
      (match (!pending, !pending_side, side) with
      | _ :: _, `R, `S | _ :: _, `S, `R -> flush_pending ()
      | _ -> ());
      pending_side := side;
      pending := row :: !pending)
    events;
  flush_pending ();
  !delivered

let prop_batch_matches_per_tuple =
  QCheck2.Test.make ~name:"batch ingest: identical delivery sequence to per-tuple path"
    ~count:60 scenario_gen (fun scenario ->
      let base = run_sequential_scenario scenario in
      let got = run_batched_scenario scenario in
      got = base
      || QCheck2.Test.fail_reportf "batch path delivered %d results, per-tuple %d"
           (List.length got) (List.length base))

let prop_parallel_matches_sequential =
  QCheck2.Test.make ~name:"parallel: shards in {1,2,4} match the sequential multiset"
    ~count:40 scenario_gen (fun scenario ->
      let norm l = List.sort compare l in
      let base = norm (run_sequential_scenario scenario) in
      List.for_all
        (fun shards ->
          let got = norm (run_parallel_scenario ~shards scenario) in
          got = base
          || QCheck2.Test.fail_reportf "shards=%d delivered %d results, sequential %d" shards
               (List.length got) (List.length base))
        [ 1; 2; 4 ])

(* Elastic registration: deregistering a query at a flush barrier and
   immediately re-registering the same definition is a semantic no-op —
   delivery is driven by incoming events joining against the fully
   replicated tables, so the churned query must deliver exactly what a
   statically subscribed one does.  Exercises the flush-barrier
   membership changes on a live, mid-stream engine. *)
let run_rereg_scenario ~shards ~churn_at (band_ranges, select_ranges, events) =
  let t = Par.create ~alpha:0.3 ~shards ~batch_size:8 () in
  let delivered = ref [] in
  let handle0 = ref None in
  let reg_band i range =
    ignore (Par.flush t);
    let sub =
      Par.subscribe_band t ~range (fun r s ->
          delivered :=
            (`Band, i, r.Cq_relation.Tuple.rid, s.Cq_relation.Tuple.sid) :: !delivered)
    in
    if i = 0 then handle0 := Some (sub, range)
  in
  List.iteri (fun i range -> reg_band i (I.shift range (-5.0))) band_ranges;
  List.iteri
    (fun i (range_a, range_c) ->
      ignore (Par.flush t);
      ignore
        (Par.subscribe_select t ~range_a ~range_c (fun r s ->
             delivered :=
               (`Select, i, r.Cq_relation.Tuple.rid, s.Cq_relation.Tuple.sid) :: !delivered)))
    select_ranges;
  List.iteri
    (fun j ev ->
      (if j = churn_at then
         match !handle0 with
         | Some (sub, range) ->
             ignore (Par.flush t);
             ignore (Par.unsubscribe t sub);
             reg_band 0 range
         | None -> ());
      match ev with
      | InsR (a, b) -> Par.ingest_batch t Par.R [| (a, b) |]
      | InsS (b, c) -> Par.ingest_batch t Par.S [| (b, c) |])
    events;
  ignore (Par.flush t);
  Par.check_invariants t;
  Par.shutdown t;
  !delivered

let prop_rereg_matches_static =
  QCheck2.Test.make
    ~name:"elastic: register/deregister/re-register equals a fresh static engine" ~count:30
    QCheck2.Gen.(pair scenario_gen (int_bound 40))
    (fun (scenario, churn_at) ->
      let norm l = List.sort compare l in
      let base = norm (run_sequential_scenario scenario) in
      List.for_all
        (fun shards ->
          let got = norm (run_rereg_scenario ~shards ~churn_at scenario) in
          got = base
          || QCheck2.Test.fail_reportf "shards=%d churn@%d delivered %d results, static %d"
               shards churn_at (List.length got) (List.length base))
        [ 1; 3 ])

(* Static placement: pile band queries onto strips 0 and 4 — the same
   home shard when [shards = 4] — and alternate ingest with flushes.
   The queries must stay on that one shard for the whole run, and the
   delivered multiset must still match the 1-shard run bit-for-bit. *)
let test_static_placement_under_ingest () =
  let shards = 4 in
  (* Strip 0 centre and strip [shards] centre: both round-robin to
     shard 0, so all six queries live on one shard. *)
  let centers = [ 64.0; 64.0 +. (float_of_int shards *. 128.0) ] in
  let queries = List.concat_map (fun c -> [ c; c; c ]) centers in
  let collect n_shards =
    let t = Par.create ~alpha:0.3 ~shards:n_shards ~batch_size:4 () in
    (* [shard_loads] flushes, so each sample also delivers. *)
    let hosted () =
      Array.map (fun (l : Par.shard_load) -> l.Par.sl_queries) (Par.shard_loads t)
    in
    let placements = ref [] in
    let delivered = ref [] in
    List.iteri
      (fun i c ->
        ignore (Par.flush t);
        ignore
          (Par.subscribe_band t
             ~range:(I.make (c -. 8.0) (c +. 8.0))
             (fun r s ->
               delivered :=
                 (i, r.Cq_relation.Tuple.rid, s.Cq_relation.Tuple.sid) :: !delivered)))
      queries;
    for k = 0 to 11 do
      let u = float_of_int k in
      List.iter
        (fun c ->
          (* R row (u, u + c) has band value c; S row (u + c, c) joins
             it on b and stabs the selects' c axis. *)
          Par.ingest_batch t Par.R [| (u, u +. c) |];
          Par.ingest_batch t Par.S [| (u +. c, c) |])
        centers;
      if k mod 2 = 1 then placements := hosted () :: !placements
    done;
    Par.check_invariants t;
    Par.shutdown t;
    (List.sort compare !delivered, !placements)
  in
  let seq_rs, _ = collect 1 in
  let par_rs, placements = collect shards in
  List.iter
    (Alcotest.(check (array int)) "all six queries stay on shard 0" [| 6; 0; 0; 0 |])
    placements;
  Alcotest.(check int) "same result count" (List.length seq_rs) (List.length par_rs);
  Alcotest.(check bool) "same result multiset" true (seq_rs = par_rs)

let test_parallel_shutdown_discipline () =
  let t = Par.create ~shards:2 () in
  let hits = ref 0 in
  ignore (Par.subscribe_band t ~range:(I.make (-1.0) 1.0) (fun _ _ -> incr hits));
  Par.ingest_batch t Par.S [| (5.0, 0.0) |];
  Par.ingest_batch t Par.R [| (0.0, 5.0) |];
  (* shutdown flushes pending batches, so the result arrives even
     without an explicit flush... *)
  Par.shutdown t;
  Alcotest.(check int) "shutdown flushes" 1 !hits;
  (* ...is idempotent, and the engine rejects further use. *)
  Par.shutdown t;
  (match Par.try_ingest_batch t Par.R [| (0.0, 0.0) |] with
  | Error (Cq_util.Error.Invalid_parameter _) -> ()
  | Error e -> Alcotest.failf "unexpected error %s" (Cq_util.Error.to_string e)
  | Ok () -> Alcotest.fail "ingest after shutdown accepted")

(* Results a query produced before it was unsubscribed, but that were
   still buffered on its shard, are discarded at the next flush: no
   callback runs, and no delivery counter may include them. *)
let test_unsubscribed_results_not_counted () =
  List.iter
    (fun shards ->
      let t = Par.create ~shards () in
      let hits = ref 0 in
      let sub = Par.subscribe_band t ~range:(I.make (-1.0) 1.0) (fun _ _ -> incr hits) in
      Par.ingest_batch t Par.S [| (0.0, 0.0) |];
      Par.ingest_batch t Par.R [| (0.0, 0.0) |];
      Alcotest.(check bool) "unsubscribed" true (Par.unsubscribe t sub);
      let flushed = Par.flush t in
      let what = Printf.sprintf "shards=%d: " shards in
      Alcotest.(check int) (what ^ "callbacks") 0 !hits;
      Alcotest.(check int) (what ^ "flush return") 0 flushed;
      Alcotest.(check int) (what ^ "results_delivered") 0 (Par.results_delivered t);
      Alcotest.(check int) (what ^ "shard_result_counts") 0
        (Array.fold_left ( + ) 0 (Par.shard_result_counts t));
      Par.check_invariants t;
      Par.shutdown t)
    [ 1; 2 ]

(* Two shards each hold the queries of their strips, so each shard
   engine's callback array is indexed by a sparse subset of the global
   qids.  Through churn (some
   queries leave, new ones arrive with higher qids) the sharded engine
   must deliver exactly what one direct engine delivers for the same
   subscriptions and rows. *)
let test_sparse_shard_qids_match_direct () =
  let par = Par.create ~alpha:0.3 ~shards:2 ~batch_size:8 () in
  let eng = Engine.create ~alpha:0.3 () in
  let got = ref [] and want = ref [] in
  let note acc tag i (r : Cq_relation.Tuple.r) (s : Cq_relation.Tuple.s) =
    acc := (tag, i, r.rid, s.sid) :: !acc
  in
  let band i =
    let range = I.make (float_of_int (i mod 7) -. 6.0) (float_of_int (i mod 5)) in
    ( Par.subscribe_band par ~range (note got `Band i),
      Engine.subscribe_band eng ~range (note want `Band i) )
  in
  let select i =
    let range_a = I.make (float_of_int (i mod 6)) (float_of_int ((i mod 6) + 4)) in
    let range_c = I.make (float_of_int (i mod 4)) 9.0 in
    ( Par.subscribe_select par ~range_a ~range_c (note got `Select i),
      Engine.subscribe_select eng ~range_a ~range_c (note want `Select i) )
  in
  let subs = Array.init 24 (fun i -> if i mod 3 = 0 then select i else band i) in
  let rows k = Array.init 12 (fun j -> (float_of_int ((k + j) mod 10), float_of_int ((k * j) mod 9))) in
  let ingest k =
    let rs = rows k and ss = rows (k + 5) in
    Par.ingest_batch par Par.S ss;
    Array.iter (fun (b, c) -> ignore (Engine.insert_s eng ~b ~c)) ss;
    Par.ingest_batch par Par.R rs;
    Array.iter (fun (a, b) -> ignore (Engine.insert_r eng ~a ~b)) rs
  in
  ingest 0;
  ignore (Par.flush par);
  Array.iteri
    (fun i (p, e) ->
      if i mod 4 = 1 then begin
        Alcotest.(check bool) "parallel unsubscribe" true (Par.unsubscribe par p);
        Alcotest.(check bool) "direct unsubscribe" true (Engine.unsubscribe eng e)
      end)
    subs;
  for i = 24 to 35 do
    ignore (if i mod 3 = 0 then select i else band i)
  done;
  ingest 1;
  ingest 2;
  ignore (Par.flush par);
  Par.check_invariants par;
  let per_shard = Par.shard_result_counts par in
  Par.shutdown par;
  Alcotest.(check bool) "both shards deliver" true (Array.for_all (fun n -> n > 0) per_shard);
  let norm l = List.sort compare l in
  Alcotest.(check bool) "some results" true (List.length !want > 100);
  Alcotest.(check bool) "parallel = direct" true (norm !got = norm !want)

(* Regression for the error-payload naming unification: every
   validation failure names the exact configuration field or tuple
   attribute, on both the sequential and parallel try_* paths. *)
let test_error_payload_field_names () =
  let param_name what = function
    | Error (Cq_util.Error.Invalid_parameter { name; _ }) ->
        Alcotest.(check string) what what name
    | Error e -> Alcotest.failf "%s: unexpected error %s" what (Cq_util.Error.to_string e)
    | Ok _ -> Alcotest.failf "%s: accepted" what
  in
  let finite_name what = function
    | Error (Cq_util.Error.Not_finite { name; _ }) -> Alcotest.(check string) what what name
    | Error e -> Alcotest.failf "%s: unexpected error %s" what (Cq_util.Error.to_string e)
    | Ok _ -> Alcotest.failf "%s: accepted" what
  in
  param_name "alpha" (Engine.try_create ~alpha:1.5 ());
  param_name "epsilon" (Engine.try_create ~epsilon:0.0 ());
  param_name "shards" (Engine.try_create ~shards:0 ());
  param_name "batch_size" (Engine.try_create ~batch_size:0 ());
  param_name "shards" (Par.try_create ~shards:(-1) ());
  param_name "batch_size" (Par.try_create ~batch_size:(-3) ());
  let eng = Engine.create () in
  finite_name "a" (Engine.try_load_r eng [| (Float.nan, 1.0) |]);
  finite_name "b" (Engine.try_load_r eng [| (1.0, Float.infinity) |]);
  finite_name "b" (Engine.try_load_s eng [| (Float.nan, 1.0) |]);
  finite_name "c" (Engine.try_load_s eng [| (1.0, Float.neg_infinity) |]);
  finite_name "a" (Engine.try_insert_r eng ~a:Float.nan ~b:1.0);
  finite_name "c" (Engine.try_insert_s eng ~b:1.0 ~c:Float.nan);
  Par.with_engine Engine.Config.default (fun t ->
      finite_name "a" (Par.try_ingest_batch t Par.R [| (Float.nan, 1.0) |]);
      finite_name "b" (Par.try_ingest_batch t Par.R [| (1.0, Float.nan) |]);
      finite_name "b" (Par.try_ingest_batch t Par.S [| (Float.nan, 1.0) |]);
      finite_name "c" (Par.try_ingest_batch t Par.S [| (1.0, Float.nan) |]))

(* --------------------------- bounded queue ----------------------------- *)

module BQ = Cq_engine.Bounded_queue

let test_bounded_queue_try_ops () =
  let q = BQ.create ~capacity:2 in
  Alcotest.(check bool) "push 1" true (BQ.try_push q 1);
  Alcotest.(check bool) "push 2" true (BQ.try_push q 2);
  Alcotest.(check bool) "full" false (BQ.try_push q 3);
  Alcotest.(check int) "length" 2 (BQ.length q);
  Alcotest.(check (option int)) "pop fifo" (Some 1) (BQ.try_pop q);
  Alcotest.(check bool) "space again" true (BQ.try_push q 4);
  Alcotest.(check (option int)) "pop 2" (Some 2) (BQ.try_pop q);
  Alcotest.(check (option int)) "pop 4" (Some 4) (BQ.try_pop q);
  Alcotest.(check (option int)) "empty" None (BQ.try_pop q)

let test_bounded_queue_push_timeout () =
  let q = BQ.create ~capacity:1 in
  Alcotest.(check bool) "fits immediately" true (BQ.push_timeout q 1 ~timeout_ns:1_000L);
  let t0 = Cq_util.Clock.monotonic_ns () in
  Alcotest.(check bool) "full queue times out" false
    (BQ.push_timeout q 2 ~timeout_ns:5_000_000L);
  let dt = Int64.sub (Cq_util.Clock.monotonic_ns ()) t0 in
  Alcotest.(check bool) "waited at least the window" true (dt >= 5_000_000L);
  (* A consumer freeing space lets a concurrent timed push through. *)
  let d = Domain.spawn (fun () -> BQ.push_timeout q 3 ~timeout_ns:2_000_000_000L) in
  ignore (BQ.pop q);
  Alcotest.(check bool) "succeeds once space frees" true (Domain.join d);
  Alcotest.(check (option int)) "drained" (Some 3) (BQ.try_pop q)

let test_bounded_queue_producer_consumer () =
  (* Live SPSC exercise under real contention: a tiny capacity forces
     both parties through their blocking paths many times, and FIFO
     order must survive — the engine relies on commands arriving at
     each shard in ingest order. *)
  let n = 5_000 in
  let q = BQ.create ~capacity:4 in
  let producer =
    Domain.spawn (fun () ->
        for i = 1 to n do
          BQ.push q i
        done)
  in
  let expected = ref 1 in
  let in_order = ref true in
  for _ = 1 to n do
    let v = BQ.pop q in
    if v <> !expected then in_order := false;
    incr expected
  done;
  Domain.join producer;
  Alcotest.(check bool) "strict FIFO across domains" true !in_order;
  Alcotest.(check (option int)) "nothing left over" None (BQ.try_pop q);
  Alcotest.(check int) "empty at rest" 0 (BQ.length q)

let test_bounded_queue_try_ops_concurrent () =
  (* Non-blocking variants under the same contention: the producer
     spins on [try_push], the consumer on [try_pop].  Everything
     pushed must come out exactly once, in order, and the occupancy
     the consumer observes can never exceed the capacity. *)
  (* Modest n: [cpu_relax] does not yield the core, so on a one-core
     box each spin burns a scheduler quantum before the peer runs. *)
  let n = 1_000 and cap = 3 in
  let q = BQ.create ~capacity:cap in
  let producer =
    Domain.spawn (fun () ->
        for i = 1 to n do
          while not (BQ.try_push q i) do
            Domain.cpu_relax ()
          done
        done)
  in
  let got = ref 0 and in_order = ref true and over_cap = ref false in
  while !got < n do
    if BQ.length q > cap then over_cap := true;
    match BQ.try_pop q with
    | None -> Domain.cpu_relax ()
    | Some v ->
        incr got;
        if v <> !got then in_order := false
  done;
  Domain.join producer;
  Alcotest.(check bool) "strict FIFO under try ops" true !in_order;
  Alcotest.(check bool) "occupancy never exceeds capacity" false !over_cap;
  Alcotest.(check (option int)) "drained" None (BQ.try_pop q)

(* Model check: any single-domain interleaving of try ops behaves as
   the textbook bounded FIFO (the concurrent tests above cover the
   cross-domain story; this one covers the full op surface, including
   rejected pushes leaving the queue untouched). *)
let prop_bounded_queue_matches_model =
  QCheck2.Test.make ~name:"bounded_queue: try ops match FIFO model" ~count:300
    QCheck2.Gen.(pair (int_range 1 5) (list_size (int_bound 200) (option (int_bound 1000))))
    (fun (cap, ops) ->
      let q = BQ.create ~capacity:cap in
      let model = Queue.create () in
      List.for_all
        (fun op ->
          match op with
          | Some v ->
              let accepted = BQ.try_push q v in
              let model_accepts = Queue.length model < cap in
              if model_accepts then Queue.add v model;
              accepted = model_accepts && BQ.length q = Queue.length model
          | None ->
              let got = BQ.try_pop q in
              let want = Queue.take_opt model in
              got = want && BQ.length q = Queue.length model)
        ops)

(* --------------------------- overload policies ------------------------- *)

let test_parallel_shutdown_with_inflight_batches () =
  (* A backlog bigger than the queue capacity, never flushed: shutdown
     must still deliver everything and join every domain (the Stop
     commands go through the bounded-wait push). *)
  let t = Par.create ~shards:4 ~batch_size:1 () in
  let hits = ref 0 in
  ignore (Par.subscribe_band t ~range:(I.make (-1.0) 1.0) (fun _ _ -> incr hits));
  Par.ingest_batch t Par.S (Array.init 50 (fun _ -> (0.0, 0.0)));
  Par.ingest_batch t Par.R (Array.init 50 (fun _ -> (0.0, 0.0)));
  Par.shutdown t;
  Alcotest.(check int) "all pairs delivered" 2500 !hits;
  (* Double shutdown is a no-op, not a crash. *)
  Par.shutdown t;
  match Par.try_ingest_batch t Par.R [| (0.0, 0.0) |] with
  | Error (Cq_util.Error.Invalid_parameter _) -> ()
  | Error e -> Alcotest.failf "unexpected error %s" (Cq_util.Error.to_string e)
  | Ok () -> Alcotest.fail "ingest after double shutdown accepted"

let test_reject_oversized_batch_not_retriable () =
  (* With batch_size 1, a 100-row batch needs 100 queue slots against a
     capacity of 64: it could never be admitted, so Reject must refuse
     it with a non-retriable Invalid_parameter — an Overload with its
     backoff hint would send the producer into a retry loop that can
     never succeed, even against idle queues. *)
  let t = Par.create ~shards:2 ~batch_size:1 ~overload:Engine.Config.Reject () in
  let hits = ref 0 in
  ignore (Par.subscribe_band t ~range:(I.make (-1.0) 1.0) (fun _ _ -> incr hits));
  (match Par.try_ingest_batch t Par.R (Array.make 100 (0.0, 0.0)) with
  | Error (Cq_util.Error.Invalid_parameter { name = "rows"; _ }) -> ()
  | Error e -> Alcotest.failf "unexpected error %s" (Cq_util.Error.to_string e)
  | Ok () -> Alcotest.fail "unsatisfiable batch accepted under Reject");
  (* All-or-nothing: the stream is untouched, small batches still flow. *)
  Par.ingest_batch t Par.S [| (0.0, 0.0) |];
  Par.ingest_batch t Par.R [| (0.0, 0.0) |];
  ignore (Par.flush t);
  Alcotest.(check int) "only the small batch's result" 1 !hits;
  Par.shutdown t

let test_reject_overload_payload () =
  (* Genuine transient pressure: make each row expensive to drain
     (every R row joins a preloaded 2000-row S table), then publish
     admissible 32-row batches back-to-back without flushing.  The
     producer outruns the shards, depth climbs past capacity - 32, and
     Reject answers with the typed Overload payload and backoff hint.
     The loop is timing-tolerant: any single Ok just means the shard
     drained in time, and the next batch piles on. *)
  let t = Par.create ~shards:2 ~batch_size:1 ~overload:Engine.Config.Reject () in
  ignore (Par.subscribe_band t ~range:(I.make (-1.0) 1.0) (fun _ _ -> ()));
  (* Preload in admissible batches, flushing each so admission never
     sees preload pressure (batch_size 1: a 2000-row batch would trip
     the oversized check). *)
  for _ = 1 to 63 do
    Par.ingest_batch t Par.S (Array.make 32 (0.0, 0.0));
    ignore (Par.flush t)
  done;
  let overloaded = ref None in
  let attempts = ref 0 in
  while !overloaded = None && !attempts < 500 do
    incr attempts;
    match Par.try_ingest_batch t Par.R (Array.make 32 (0.0, 0.0)) with
    | Ok () -> ()
    | Error (Cq_util.Error.Overload _ as e) -> overloaded := Some e
    | Error e -> Alcotest.failf "unexpected error %s" (Cq_util.Error.to_string e)
  done;
  (match !overloaded with
  | Some (Cq_util.Error.Overload { shard; queue_depth; retry_after_ms }) ->
      Alcotest.(check bool) "shard in range" true (shard >= 0 && shard < 2);
      Alcotest.(check bool) "depth reported" true (queue_depth >= 0 && queue_depth <= 64);
      Alcotest.(check bool) "retry hint positive" true (retry_after_ms > 0.0)
  | Some e -> Alcotest.failf "unexpected error %s" (Cq_util.Error.to_string e)
  | None -> Alcotest.fail "no Overload across 500 back-to-back admissible batches");
  ignore (Par.flush t);
  Par.shutdown t

(* Replay a scenario through a forced-rate Shed engine; periodic
   flushes keep queue depths far from the shed grace window so the only
   degradation is the deterministic coin. *)
let run_shed_scenario ~shards ~rate (band_ranges, select_ranges, events) =
  let t =
    Par.create ~alpha:0.3 ~shards ~batch_size:8 ~overload:Engine.Config.Shed
      ~shed_rate:rate ()
  in
  let delivered = ref [] in
  List.iteri
    (fun i range ->
      ignore
        (Par.subscribe_band t ~range:(I.shift range (-5.0)) (fun r s ->
             delivered :=
               (`Band, i, r.Cq_relation.Tuple.rid, s.Cq_relation.Tuple.sid) :: !delivered)))
    band_ranges;
  List.iteri
    (fun i (range_a, range_c) ->
      ignore
        (Par.subscribe_select t ~range_a ~range_c (fun r s ->
             delivered :=
               (`Select, i, r.Cq_relation.Tuple.rid, s.Cq_relation.Tuple.sid) :: !delivered)))
    select_ranges;
  List.iteri
    (fun i ev ->
      (match ev with
      | InsR (a, b) -> Par.ingest_batch t Par.R [| (a, b) |]
      | InsS (b, c) -> Par.ingest_batch t Par.S [| (b, c) |]);
      if i mod 16 = 15 then ignore (Par.flush t))
    events;
  ignore (Par.flush t);
  Par.check_invariants t;
  let info =
    List.map
      (fun (d : Engine.degraded) ->
        (d.deg_qid, d.deg_observed, d.deg_estimate, d.deg_claimed_error, d.deg_rate))
      (Par.shed_info t)
  in
  Par.shutdown t;
  (!delivered, info)

let prop_shed_decisions_shard_invariant =
  QCheck2.Test.make
    ~name:"shed: forced rate 0.5 sheds identically under shards 1 and 4" ~count:30
    scenario_gen (fun scenario ->
      let norm l = List.sort compare l in
      let d1, i1 = run_shed_scenario ~shards:1 ~rate:0.5 scenario in
      let d4, i4 = run_shed_scenario ~shards:4 ~rate:0.5 scenario in
      if norm d1 <> norm d4 then
        QCheck2.Test.fail_reportf "delivered multisets differ: %d vs %d results"
          (List.length d1) (List.length d4)
      else if i1 <> i4 then
        QCheck2.Test.fail_reportf
          "degraded reports differ (%d vs %d entries) — claimed bounds must be bitwise \
           shard-invariant"
          (List.length i1) (List.length i4)
      else true)

let prop_shed_rate_one_matches_block =
  QCheck2.Test.make ~name:"shed: forced rate 1.0 equals Block byte-for-byte" ~count:30
    scenario_gen (fun scenario ->
      let norm l = List.sort compare l in
      let base = norm (run_sequential_scenario scenario) in
      let d, info = run_shed_scenario ~shards:1 ~rate:1.0 scenario in
      if norm d <> base then
        QCheck2.Test.fail_reportf "rate-1.0 shed delivered %d results, exact run %d"
          (List.length d) (List.length base)
      else if info <> [] then
        QCheck2.Test.fail_reportf "%d degraded reports under rate 1.0" (List.length info)
      else true)

let test_shed_exact_phase_folds_into_estimate () =
  (* Regression for the adaptive-rate hole: results delivered while the
     rate sat at 1.0 must fold into the Horvitz-Thompson estimate at
     p = 1, otherwise a rate-1.0 phase followed by a shedding one
     leaves the exact-phase results out of the estimate while the
     claimed bound only covers the shedding phase's sampling error. *)
  let eng = Engine.create ~alpha:0.1 ~seed:42 ~overload:Engine.Config.Shed () in
  let delivered = ref 0 in
  ignore (Engine.subscribe_band eng ~range:(I.make (-1000.0) 1000.0) (fun _ _ -> incr delivered));
  (* Exact phase: rate 1.0 (the Shed default), 50 x 70 = 3500 pairs. *)
  for i = 1 to 50 do
    ignore (Engine.insert_s eng ~b:(float_of_int i) ~c:0.0)
  done;
  for i = 1 to 70 do
    ignore (Engine.insert_r eng ~a:0.0 ~b:(float_of_int i))
  done;
  Alcotest.(check int) "exact phase delivers everything" 3500 !delivered;
  (* Shedding phase: 10 more R rows x 50 S partners = 500 exact pairs. *)
  Engine.set_shed_rate eng 0.5;
  for i = 71 to 80 do
    ignore (Engine.insert_r eng ~a:0.0 ~b:(float_of_int i))
  done;
  let exact = 3500 + 500 in
  match Engine.shed_info eng with
  | [ d ] ->
      Alcotest.(check int) "observed counter agrees with callbacks" !delivered
        d.Engine.deg_observed;
      Alcotest.(check bool) "subsample" true (!delivered <= exact);
      let err = Float.abs (d.Engine.deg_estimate -. float_of_int exact) in
      if err > d.Engine.deg_claimed_error +. 1e-6 then
        Alcotest.failf "estimate %.1f misses exact %d by %.1f > claimed %.1f"
          d.Engine.deg_estimate exact err d.Engine.deg_claimed_error
  | info -> Alcotest.failf "expected one degraded report, got %d" (List.length info)

let test_shed_mode_rejects_deletes () =
  (* Shed mode is insert-only: a retraction would have to recompute
     exact join results and fire on_retract for pairs the subscriber
     never saw.  Both delete entry points must refuse, and the refusal
     must also cover engines dragged into shed mode mid-stream. *)
  let eng = Engine.create ~overload:Engine.Config.Shed () in
  let r, _ = Engine.insert_r eng ~a:0.0 ~b:0.0 in
  let s, _ = Engine.insert_s eng ~b:5.0 ~c:0.0 in
  (match Engine.delete_r eng r with
  | exception Cq_util.Error.Cq_error (Cq_util.Error.Invalid_parameter { name = "delete_r"; _ })
    -> ()
  | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "delete_r accepted in shed mode");
  (match Engine.delete_s eng s with
  | exception Cq_util.Error.Cq_error (Cq_util.Error.Invalid_parameter { name = "delete_s"; _ })
    -> ()
  | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "delete_s accepted in shed mode");
  (* Engagement via set_shed_rate is permanent, even back at 1.0. *)
  let eng2 = Engine.create () in
  let r2, _ = Engine.insert_r eng2 ~a:0.0 ~b:0.0 in
  Engine.set_shed_rate eng2 0.5;
  Engine.set_shed_rate eng2 1.0;
  (match Engine.delete_r eng2 r2 with
  | exception Cq_util.Error.Cq_error (Cq_util.Error.Invalid_parameter _) -> ()
  | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "delete_r accepted after mid-stream shed engagement")

(* ---------------------------------------------------------------------- *)

let qc = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "cq_engine"
    [
      ( "engine",
        [
          qc prop_engine_matches_oracle;
          qc prop_engine_rs_symmetry;
          Alcotest.test_case "unsubscribe" `Quick test_engine_unsubscribe;
          Alcotest.test_case "loads are silent" `Quick test_engine_load_does_not_fire;
          Alcotest.test_case "stats accumulate" `Quick test_engine_stats_accumulate;
          Alcotest.test_case "band retractions" `Quick test_engine_retractions;
          Alcotest.test_case "select retractions" `Quick test_engine_select_retractions;
          Alcotest.test_case "preloaded R joins S events" `Quick
            test_engine_preloaded_r_joins_s_events;
          qc prop_engine_deletions_retract;
          Alcotest.test_case "failing callback isolated" `Quick
            test_engine_isolates_failing_callback;
          Alcotest.test_case "qid slots: unsubscribed, reused, far, negative" `Quick
            test_engine_qid_slots;
        ] );
      ( "batch",
        [
          qc prop_batch_matches_per_tuple;
        ] );
      ( "parallel",
        [
          qc prop_parallel_matches_sequential;
          qc prop_rereg_matches_static;
          Alcotest.test_case "static placement under ingest" `Quick
            test_static_placement_under_ingest;
          Alcotest.test_case "shutdown discipline" `Quick test_parallel_shutdown_discipline;
          Alcotest.test_case "unsubscribed results are not counted" `Quick
            test_unsubscribed_results_not_counted;
          Alcotest.test_case "error payload field names" `Quick
            test_error_payload_field_names;
          Alcotest.test_case "sparse shard qids match a direct engine" `Quick
            test_sparse_shard_qids_match_direct;
        ] );
      ( "bounded_queue",
        [
          Alcotest.test_case "try_push/try_pop" `Quick test_bounded_queue_try_ops;
          Alcotest.test_case "push_timeout" `Quick test_bounded_queue_push_timeout;
          Alcotest.test_case "blocking producer/consumer FIFO" `Quick
            test_bounded_queue_producer_consumer;
          Alcotest.test_case "try ops under contention" `Quick
            test_bounded_queue_try_ops_concurrent;
          qc prop_bounded_queue_matches_model;
        ] );
      ( "overload",
        [
          Alcotest.test_case "shutdown with in-flight batches" `Quick
            test_parallel_shutdown_with_inflight_batches;
          Alcotest.test_case "reject oversized batch not retriable" `Quick
            test_reject_oversized_batch_not_retriable;
          Alcotest.test_case "reject overload payload" `Quick test_reject_overload_payload;
          qc prop_shed_decisions_shard_invariant;
          qc prop_shed_rate_one_matches_block;
          Alcotest.test_case "exact phase folds into estimate" `Quick
            test_shed_exact_phase_folds_into_estimate;
          Alcotest.test_case "shed mode rejects deletes" `Quick test_shed_mode_rejects_deletes;
        ] );
    ]

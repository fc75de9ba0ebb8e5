(* The golden tests of the repository: every band-join strategy and
   every select-join strategy must produce exactly the same result set
   as a brute-force oracle, on randomized workloads, including under
   query insertions/deletions between events. *)

module I = Cq_interval.Interval
module Table = Cq_relation.Table
module Tuple = Cq_relation.Tuple
module BQ = Cq_joins.Band_query
module BJ = Cq_joins.Band_join
module SQ = Cq_joins.Select_query
module SJ = Cq_joins.Select_join
module Bt = Cq_index.Btree

(* Small discrete domains so equality joins hit and band windows
   overlap heavily. *)
let fgen hi = QCheck2.Gen.(map float_of_int (int_bound hi))

let interval_gen hi =
  QCheck2.Gen.(
    map2 (fun a b -> if a <= b then I.make a b else I.make b a) (fgen hi) (fgen hi))

let s_tuples_gen =
  QCheck2.Gen.(
    list_size (int_range 0 120)
      (map2 (fun b c -> (b, c)) (fgen 10) (fgen 20)))

let r_events_gen =
  QCheck2.Gen.(list_size (int_range 1 12) (map2 (fun a b -> (a, b)) (fgen 20) (fgen 10)))

let make_s_table tuples =
  let arr =
    Array.of_list (List.mapi (fun sid (b, c) -> { Tuple.sid; b; c }) tuples)
  in
  (Table.of_s_tuples arr, arr)

let make_r_events evs = List.mapi (fun rid (a, b) -> { Tuple.rid = 1000 + rid; a; b }) evs

(* ------------------------------- Band joins --------------------------- *)

(* Sorted (qid, sid) pairs a strategy emits for one event. *)
let band_results (type s) (module S : BJ.STRATEGY with type t = s) (st : s) r =
  let acc = ref [] in
  S.process_r st r (fun q s -> acc := (q.BQ.qid, s.Tuple.sid) :: !acc);
  List.sort compare !acc

let band_strategies :
    (module BJ.STRATEGY) list =
  [
    (module BJ.Qouter);
    (module BJ.Douter);
    (module BJ.Merge);
    (module BJ.Ssi);
    (module BJ.Ssi_dynamic);
    (module BJ.Hotspot);
  ]

let band_case_gen =
  QCheck2.Gen.(
    triple s_tuples_gen (list_size (int_range 0 60) (interval_gen 10)) r_events_gen)

let prop_band_strategies_agree =
  QCheck2.Test.make ~name:"band joins: all strategies match brute force" ~count:150
    band_case_gen (fun (s_tuples, ranges, events) ->
      let table, _ = make_s_table s_tuples in
      (* Band windows are differences S.B - R.B in [-10, 10]. *)
      let queries = BQ.of_ranges (Array.of_list (List.map (fun iv -> I.shift iv (-5.0)) ranges)) in
      let events = make_r_events events in
      List.for_all
        (fun (module S : BJ.STRATEGY) ->
          let st = S.create table queries in
          List.for_all
            (fun r ->
              let got = band_results (module S) st r in
              let want = BJ.reference table queries r in
              if got <> want then
                QCheck2.Test.fail_reportf "%s diverges on event b=%g: got %d, want %d pairs"
                  S.name r.Tuple.b (List.length got) (List.length want)
              else true)
            events)
        band_strategies)

let prop_band_dynamic_updates =
  QCheck2.Test.make ~name:"band joins: equivalence under query churn" ~count:80
    QCheck2.Gen.(
      quad s_tuples_gen
        (list_size (int_range 1 40) (interval_gen 10))
        (list_size (int_range 1 30) (interval_gen 10))
        r_events_gen)
    (fun (s_tuples, initial, churn, events) ->
      let table, _ = make_s_table s_tuples in
      let initial = BQ.of_ranges (Array.of_list (List.map (fun iv -> I.shift iv (-5.0)) initial)) in
      let churn_qs =
        List.mapi
          (fun i iv -> BQ.make ~qid:(10_000 + i) ~range:(I.shift iv (-5.0)))
          churn
      in
      let events = make_r_events events in
      List.for_all
        (fun (module S : BJ.STRATEGY) ->
          let st = S.create table initial in
          let live = ref (Array.to_list initial) in
          (* Interleave: add a churn query, process an event, delete an
             old query, process an event... *)
          let ops =
            List.concat
              (List.mapi (fun i q -> [ `Add q ] @ if i mod 2 = 0 then [ `Drop ] else []) churn_qs)
          in
          let events = ref events in
          let next_event () =
            match !events with
            | [] -> None
            | e :: rest ->
                events := rest;
                Some e
          in
          List.for_all
            (fun op ->
              (match op with
              | `Add q ->
                  S.insert_query st q;
                  live := q :: !live
              | `Drop -> (
                  match !live with
                  | [] -> ()
                  | q :: rest ->
                      if not (S.delete_query st q) then
                        QCheck2.Test.fail_reportf "%s: delete_query failed" S.name;
                      live := rest));
              match next_event () with
              | None -> true
              | Some r ->
                  let got = band_results (module S) st r in
                  let want = BJ.reference table (Array.of_list !live) r in
                  got = want
                  || QCheck2.Test.fail_reportf "%s diverges after churn" S.name)
            ops)
        band_strategies)

(* Identification-only (STEP 1) must report exactly the distinct
   queries having at least one result — once each. *)
let prop_band_affected_matches =
  QCheck2.Test.make ~name:"band joins: affected = distinct queries of reference" ~count:120
    band_case_gen (fun (s_tuples, ranges, events) ->
      let table, _ = make_s_table s_tuples in
      let queries = BQ.of_ranges (Array.of_list (List.map (fun iv -> I.shift iv (-5.0)) ranges)) in
      let events = make_r_events events in
      List.for_all
        (fun (module S : BJ.STRATEGY) ->
          let st = S.create table queries in
          List.for_all
            (fun r ->
              let got = ref [] in
              S.affected st r (fun q -> got := q.BQ.qid :: !got);
              let sorted = List.sort compare !got in
              let want =
                BJ.reference table queries r |> List.map fst |> List.sort_uniq compare
              in
              (if sorted <> List.sort_uniq compare sorted then
                 QCheck2.Test.fail_reportf "%s reported a query twice" S.name);
              sorted = want
              || QCheck2.Test.fail_reportf "%s affected diverges: got %d, want %d" S.name
                   (List.length sorted) (List.length want))
            events)
        band_strategies)

let test_band_empty_table () =
  let table = Table.create_s () in
  let queries = BQ.of_ranges [| I.make (-1.0) 1.0 |] in
  List.iter
    (fun (module S : BJ.STRATEGY) ->
      let st = S.create table queries in
      let got = band_results (module S) st { Tuple.rid = 0; a = 0.0; b = 5.0 } in
      Alcotest.(check (list (pair int int))) (S.name ^ " empty S") [] got)
    band_strategies

let test_band_no_queries () =
  let table, _ = make_s_table [ (1.0, 2.0); (3.0, 4.0) ] in
  List.iter
    (fun (module S : BJ.STRATEGY) ->
      let st = S.create table [||] in
      let got = band_results (module S) st { Tuple.rid = 0; a = 0.0; b = 2.0 } in
      Alcotest.(check (list (pair int int))) (S.name ^ " no queries") [] got)
    band_strategies

let test_band_exact_match_duplicates () =
  (* Several S tuples exactly at the stabbing point offset: the exact-
     match path must emit each duplicate exactly once per query. *)
  let table, _ = make_s_table [ (5.0, 0.0); (5.0, 1.0); (5.0, 2.0); (7.0, 0.0) ] in
  let queries =
    BQ.of_ranges [| I.make 0.0 0.0; I.make (-1.0) 2.0; I.make 0.0 3.0 |]
  in
  let r = { Tuple.rid = 0; a = 0.0; b = 5.0 } in
  let want = BJ.reference table queries r in
  List.iter
    (fun (module S : BJ.STRATEGY) ->
      let st = S.create table queries in
      Alcotest.(check (list (pair int int))) S.name want (band_results (module S) st r))
    band_strategies

(* ----------------------------- Select joins --------------------------- *)

let select_results (type s) (module S : SJ.STRATEGY with type t = s) (st : s) r =
  let acc = ref [] in
  S.process_r st r (fun q s -> acc := (q.SQ.qid, s.Tuple.sid) :: !acc);
  List.sort compare !acc

let select_strategies : (module SJ.STRATEGY) list =
  [
    (module SJ.Naive);
    (module SJ.Join_first);
    (module SJ.Select_first);
    (module SJ.Ssi);
    (module SJ.Hotspot);
    (module SJ.Adaptive);
  ]

let select_queries_gen =
  QCheck2.Gen.(list_size (int_range 0 60) (pair (interval_gen 20) (interval_gen 20)))

let prop_select_strategies_agree =
  QCheck2.Test.make ~name:"select joins: all strategies match brute force" ~count:150
    QCheck2.Gen.(triple s_tuples_gen select_queries_gen r_events_gen)
    (fun (s_tuples, ranges, events) ->
      let table, _ = make_s_table s_tuples in
      let queries = SQ.of_ranges (Array.of_list ranges) in
      let events = make_r_events events in
      List.for_all
        (fun (module S : SJ.STRATEGY) ->
          let st = S.create table queries in
          List.for_all
            (fun r ->
              let got = select_results (module S) st r in
              let want = SJ.reference table queries r in
              got = want
              || QCheck2.Test.fail_reportf "%s diverges: got %d, want %d pairs" S.name
                   (List.length got) (List.length want))
            events)
        select_strategies)

let prop_select_dynamic_updates =
  QCheck2.Test.make ~name:"select joins: equivalence under query churn" ~count:80
    QCheck2.Gen.(
      quad s_tuples_gen select_queries_gen
        (list_size (int_range 1 25) (pair (interval_gen 20) (interval_gen 20)))
        r_events_gen)
    (fun (s_tuples, initial, churn, events) ->
      let table, _ = make_s_table s_tuples in
      let initial = SQ.of_ranges (Array.of_list initial) in
      let churn_qs =
        List.mapi (fun i (ra, rc) -> SQ.make ~qid:(10_000 + i) ~range_a:ra ~range_c:rc) churn
      in
      List.for_all
        (fun (module S : SJ.STRATEGY) ->
          let st = S.create table initial in
          let live = ref (Array.to_list initial) in
          let events = ref events in
          let next_event () =
            match !events with
            | [] -> None
            | e :: rest ->
                events := rest;
                Some e
          in
          List.for_all
            (fun q ->
              S.insert_query st q;
              live := q :: !live;
              (match !live with
              | a :: b :: rest when q.SQ.qid mod 2 = 0 ->
                  if not (S.delete_query st b) then
                    QCheck2.Test.fail_reportf "%s: delete_query failed" S.name;
                  live := a :: rest
              | _ -> ());
              match next_event () with
              | None -> true
              | Some (a, b) ->
                  let r = { Tuple.rid = 0; a; b } in
                  let got = select_results (module S) st r in
                  let want = SJ.reference table (Array.of_list !live) r in
                  got = want || QCheck2.Test.fail_reportf "%s diverges after churn" S.name)
            churn_qs)
        select_strategies)

let prop_select_affected_matches =
  QCheck2.Test.make ~name:"select joins: affected = distinct queries of reference" ~count:120
    QCheck2.Gen.(triple s_tuples_gen select_queries_gen r_events_gen)
    (fun (s_tuples, ranges, events) ->
      let table, _ = make_s_table s_tuples in
      let queries = SQ.of_ranges (Array.of_list ranges) in
      let events = make_r_events events in
      List.for_all
        (fun (module S : SJ.STRATEGY) ->
          let st = S.create table queries in
          List.for_all
            (fun r ->
              let got = ref [] in
              S.affected st r (fun q -> got := q.SQ.qid :: !got);
              let sorted = List.sort compare !got in
              let want =
                SJ.reference table queries r |> List.map fst |> List.sort_uniq compare
              in
              (if sorted <> List.sort_uniq compare sorted then
                 QCheck2.Test.fail_reportf "%s reported a query twice" S.name);
              sorted = want
              || QCheck2.Test.fail_reportf "%s affected diverges" S.name)
            events)
        select_strategies)

let test_select_no_join_partner () =
  (* Event B value that exists in no S tuple: every strategy must
     return nothing. *)
  let table, _ = make_s_table [ (1.0, 5.0); (2.0, 6.0) ] in
  let queries =
    SQ.of_ranges [| (I.make 0.0 20.0, I.make 0.0 20.0) |]
  in
  let r = { Tuple.rid = 0; a = 10.0; b = 9.0 } in
  List.iter
    (fun (module S : SJ.STRATEGY) ->
      let st = S.create table queries in
      Alcotest.(check (list (pair int int))) S.name [] (select_results (module S) st r))
    select_strategies

let test_select_gap_between_anchors () =
  (* Queries whose rangeC falls strictly inside the gap between two
     adjacent joining C values must NOT be reported (the paper's
     footnote on queries in the (q1, q2) gap). *)
  let table, _ = make_s_table [ (5.0, 2.0); (5.0, 10.0) ] in
  let queries =
    SQ.of_ranges
      [|
        (I.make 0.0 20.0, I.make 4.0 6.0) (* C range inside the gap (2,10) *);
        (I.make 0.0 20.0, I.make 1.0 5.0) (* catches C=2 *);
      |]
  in
  let r = { Tuple.rid = 0; a = 3.0; b = 5.0 } in
  let want = [ (1, 0) ] in
  List.iter
    (fun (module S : SJ.STRATEGY) ->
      let st = S.create table queries in
      Alcotest.(check (list (pair int int))) S.name want (select_results (module S) st r))
    select_strategies

let test_select_rect_contains_anchor_line () =
  (* Exact stabbing-point coincidence: S tuple exactly at (b, pj). *)
  let table, _ = make_s_table [ (5.0, 7.0); (5.0, 7.0); (5.0, 8.0) ] in
  let queries = SQ.of_ranges [| (I.make 0.0 10.0, I.make 7.0 7.0) |] in
  let r = { Tuple.rid = 0; a = 4.0; b = 5.0 } in
  let want = SJ.reference table queries r in
  Alcotest.(check int) "duplicate anchors both reported" 2 (List.length want);
  List.iter
    (fun (module S : SJ.STRATEGY) ->
      let st = S.create table queries in
      Alcotest.(check (list (pair int int))) S.name want (select_results (module S) st r))
    select_strategies


let test_adaptive_routes_both_ways () =
  (* Narrow rangeA selections (tiny n') route to SJ-S; broad ones to
     SJ-SSI. *)
  let table, _ = make_s_table (List.init 50 (fun i -> (float_of_int (i mod 10), float_of_int i))) in
  let narrow =
    SQ.of_ranges (Array.init 40 (fun i -> (I.make (float_of_int i) (float_of_int i), I.make 0.0 50.0)))
  in
  let st = SJ.Adaptive.create table narrow in
  Alcotest.(check bool) "narrow -> select-first" true
    (SJ.Adaptive.choose st { Tuple.rid = 0; a = 3.0; b = 1.0 } = SJ.Adaptive.Use_select_first);
  let broad =
    SQ.of_ranges
      (Array.init 40 (fun i ->
           (I.make 0.0 50.0, I.make (float_of_int i) (float_of_int (i + 1)))))
  in
  let st = SJ.Adaptive.create table broad in
  Alcotest.(check bool) "broad -> ssi" true
    (SJ.Adaptive.choose st { Tuple.rid = 0; a = 3.0; b = 1.0 } = SJ.Adaptive.Use_ssi);
  ignore (SJ.Adaptive.affected st { Tuple.rid = 0; a = 3.0; b = 1.0 } (fun _ -> ()));
  let sf, ssi = SJ.Adaptive.decisions st in
  Alcotest.(check (pair int int)) "decision counters" (0, 1) (sf, ssi)


(* ------------------------ Shared-core processors ----------------------- *)

(* Both processors out of the shared processor core — Hotspot at
   α = 0.3, so these small query sets form hotspots, and plain SSI —
   must produce the exact result stream of the brute-force oracle,
   including under churn. *)

module Hot (P : Hotspot_core.Processor.PROCESSOR) = struct
  include P

  let create s qs = create_alpha ~alpha:0.3 ~seed:42 s qs
end

module type BAND_AUDITED = sig
  include BJ.STRATEGY

  val check_invariants : t -> unit
end

let band_processors : (module BAND_AUDITED) list = [ (module Hot (BJ.Hotspot)); (module BJ.Ssi) ]
let select_processors : (module SJ.STRATEGY) list = [ (module Hot (SJ.Hotspot)); (module SJ.Ssi) ]

(* The edges of S(B,C) as one (B, C) tree: many rows per B value, rows
   with equal (B, C), zero-width rangeC windows, rangeC ends on an S.C
   value or just off one, and infinite ends on either axis.  Events hit
   each B value and one no row holds.  Every strategy, and the hotspot
   processor at α = 0.3 (so these windows form hot groups), must match
   the reference in both results and affected queries. *)
let select_edge_gen =
  let open QCheck2.Gen in
  let* rows = list_size (int_range 0 60) (pair (fgen 2) (fgen 6)) in
  let on_row = if rows = [] then fgen 6 else oneofl (List.map snd rows) in
  let c_end =
    frequency
      [
        (3, on_row);
        (1, map (fun c -> c +. 0.5) (fgen 6));
        (1, oneofl [ neg_infinity; infinity ]);
      ]
  in
  let ordered x y = if x <= y then I.make x y else I.make y x in
  let range_c = frequency [ (2, map (fun c -> I.make c c) on_row); (4, map2 ordered c_end c_end) ] in
  let range_a =
    frequency
      [
        (3, interval_gen 20);
        (1, map (fun a -> I.make a infinity) (fgen 20));
        (1, map (fun a -> I.make neg_infinity a) (fgen 20));
      ]
  in
  let* ranges = list_size (int_range 1 40) (pair range_a range_c) in
  let+ events = list_size (int_range 1 12) (pair (fgen 20) (fgen 3)) in
  (rows, ranges, events)

let prop_select_edges =
  QCheck2.Test.make ~name:"select joins: (B, C) edge cases match the reference" ~count:150
    select_edge_gen (fun (s_tuples, ranges, events) ->
      let table, _ = make_s_table s_tuples in
      let queries = SQ.of_ranges (Array.of_list ranges) in
      let events = make_r_events events in
      List.for_all
        (fun (module S : SJ.STRATEGY) ->
          let st = S.create table queries in
          List.for_all
            (fun r ->
              let want = SJ.reference table queries r in
              let affected = ref [] in
              S.affected st r (fun q -> affected := q.SQ.qid :: !affected);
              select_results (module S) st r = want
              && List.sort compare !affected = List.sort_uniq compare (List.map fst want)
              || QCheck2.Test.fail_reportf "%s diverges at a = %g, b = %g" S.name r.Tuple.a r.b)
            events)
        ((module Hot (SJ.Hotspot) : SJ.STRATEGY) :: select_strategies))

(* The select hotspot processor's shed predicate is asked only about
   queries the event really hits, each once, whether the query sits in
   a hot group (α = 0.3 makes them form) or in the scattered index,
   where a stabbed candidate must be confirmed before the ask. *)
let prop_select_shed_asks =
  QCheck2.Test.make ~name:"select hotspot: shed asked about hit queries, each once" ~count:150
    select_edge_gen (fun (s_tuples, ranges, events) ->
      let table, _ = make_s_table s_tuples in
      let queries = SQ.of_ranges (Array.of_list ranges) in
      let st = SJ.Hotspot.create_alpha ~alpha:0.3 ~seed:42 table queries in
      let asked = ref [] in
      SJ.Hotspot.set_shed st (Some (fun qid -> asked := qid :: !asked; qid mod 2 = 0));
      List.for_all
        (fun r ->
          asked := [];
          let want = SJ.reference table queries r in
          let kept = select_results (module SJ.Hotspot) st r in
          List.sort compare !asked = List.sort_uniq compare (List.map fst want)
          && kept = List.filter (fun (qid, _) -> qid mod 2 = 0) want
          || QCheck2.Test.fail_reportf "a = %g, b = %g: asked about [%s]" r.Tuple.a r.b
               (String.concat "; " (List.map string_of_int (List.rev !asked))))
        (make_r_events events))

let prop_band_processors_match =
  QCheck2.Test.make ~name:"band processors: match brute force" ~count:100
    band_case_gen (fun (s_tuples, ranges, events) ->
      let table, _ = make_s_table s_tuples in
      let queries = BQ.of_ranges (Array.of_list (List.map (fun iv -> I.shift iv (-5.0)) ranges)) in
      let events = make_r_events events in
      List.for_all
        (fun (module P : BAND_AUDITED) ->
          let st = P.create table queries in
          List.for_all
            (fun r ->
              let acc = ref [] in
              P.process_r st r (fun q s -> acc := (q.BQ.qid, s.Tuple.sid) :: !acc);
              List.sort compare !acc = BJ.reference table queries r
              || QCheck2.Test.fail_reportf "%s diverges from the oracle" P.name)
            events)
        band_processors)

let prop_select_processors_match =
  QCheck2.Test.make ~name:"select processors: match brute force" ~count:100
    QCheck2.Gen.(triple s_tuples_gen select_queries_gen r_events_gen)
    (fun (s_tuples, ranges, events) ->
      let table, _ = make_s_table s_tuples in
      let queries = SQ.of_ranges (Array.of_list ranges) in
      let events = make_r_events events in
      List.for_all
        (fun (module P : SJ.STRATEGY) ->
          let st = P.create table queries in
          List.for_all
            (fun r ->
              let acc = ref [] in
              P.process_r st r (fun q s -> acc := (q.SQ.qid, s.Tuple.sid) :: !acc);
              List.sort compare !acc = SJ.reference table queries r
              || QCheck2.Test.fail_reportf "%s diverges from the oracle" P.name)
            events)
        select_processors)

let prop_band_processors_churn =
  (* Query churn exercises the remove paths: delete every other query
     between events and re-check against the oracle. *)
  QCheck2.Test.make ~name:"band processors: match brute force under churn" ~count:60
    band_case_gen (fun (s_tuples, ranges, events) ->
      let table, _ = make_s_table s_tuples in
      let all = BQ.of_ranges (Array.of_list (List.map (fun iv -> I.shift iv (-5.0)) ranges)) in
      let keep, drop =
        let k = ref [] and d = ref [] in
        Array.iteri (fun i q -> if i mod 2 = 0 then k := q :: !k else d := q :: !d) all;
        (Array.of_list (List.rev !k), List.rev !d)
      in
      let events = make_r_events events in
      List.for_all
        (fun (module P : BAND_AUDITED) ->
          let st = P.create table all in
          let matches queries r =
            let acc = ref [] in
            P.process_r st r (fun q s -> acc := (q.BQ.qid, s.Tuple.sid) :: !acc);
            List.sort compare !acc = BJ.reference table queries r
          in
          (* The dropped queries are processed before the deletes, so
             the deletes run on processors with per-event state. *)
          List.for_all
            (fun r -> matches all r || QCheck2.Test.fail_reportf "%s diverges before churn" P.name)
            events
          && begin
               List.iter
                 (fun q ->
                   if not (P.delete_query st q) then
                     ignore (QCheck2.Test.fail_reportf "%s: delete_query failed" P.name))
                 drop;
               P.check_invariants st;
               List.for_all
                 (fun r ->
                   matches keep r || QCheck2.Test.fail_reportf "%s diverges after churn" P.name)
                 events
             end)
        band_processors)

(* With every query scattered, a band event is one forward sweep of the
   S.B finger over the windows in scattered-index order: ascending
   (lo, hi), ties in insertion order.  Keys sit on the integer grid, as
   do R.B and the window ends, so shifted window ends land exactly on
   keys, and many windows share a lower end.  S rows arrive between
   events, so each event's sweep starts on a changed tree. *)
let prop_band_scattered_sweep =
  QCheck2.Test.make ~name:"band processors: scattered sweep = per-query loop" ~count:100
    QCheck2.Gen.(pair band_case_gen s_tuples_gen)
    (fun ((s_tuples, ranges, events), arrivals) ->
      let table, _ = make_s_table s_tuples in
      (* With α = 1 a group is promoted only if it holds every query.
         The first query is promoted while it is alone and demoted by
         the third; three disjoint windows keep any later group from
         holding them all. *)
      let ranges = I.make (-100.0) (-99.0) :: I.make 99.0 100.0 :: I.make 199.0 200.0 :: ranges in
      let queries = BQ.of_ranges (Array.of_list (List.map (fun iv -> I.shift iv (-5.0)) ranges)) in
      let sweep_order =
        List.stable_sort
          (fun (a : BQ.t) (b : BQ.t) ->
            compare (I.lo a.range, I.hi a.range) (I.lo b.range, I.hi b.range))
          (Array.to_list queries)
      in
      let st = BJ.Hotspot.create_alpha ~alpha:1.0 ~seed:42 table queries in
      let arrivals = ref (List.mapi (fun i (b, c) -> { Tuple.sid = 5000 + i; b; c }) arrivals) in
      List.for_all
        (fun (r : Tuple.r) ->
          (match !arrivals with
          | s :: s' :: rest ->
              Table.insert_s table s;
              Table.insert_s table s';
              arrivals := rest
          | _ -> ());
          let per_query =
            List.map
              (fun (q : BQ.t) ->
                let rows = ref [] in
                Cq_index.Btree.iter_range (Table.s_by_b table) (I.lo q.range +. r.b) neg_infinity
                  (I.hi q.range +. r.b) infinity (fun s -> rows := (q.qid, s.Tuple.sid) :: !rows);
                (q.qid, List.rev !rows))
              sweep_order
          in
          let want = List.concat_map snd per_query in
          let hit =
            List.filter_map (fun (qid, rows) -> if rows = [] then None else Some qid) per_query
          in
          let got = ref [] in
          BJ.Hotspot.process_r st r (fun q s -> got := (q.BQ.qid, s.Tuple.sid) :: !got);
          let affected = ref [] in
          BJ.Hotspot.affected st r (fun q -> affected := q.BQ.qid :: !affected);
          let asked = ref [] in
          BJ.Hotspot.set_shed st (Some (fun qid -> asked := qid :: !asked; qid mod 2 = 0));
          let kept = ref [] in
          BJ.Hotspot.process_r st r (fun q s -> kept := (q.BQ.qid, s.Tuple.sid) :: !kept);
          BJ.Hotspot.set_shed st None;
          let check what ok = ok || QCheck2.Test.fail_reportf "b=%g: %s" r.b what in
          check "a query was promoted" (BJ.Hotspot.num_hotspots st = 0)
          && check "loop differs from reference"
               (List.sort compare want = BJ.reference table queries r)
          && check "emission order differs" (List.rev !got = want)
          && check "affected differs" (List.rev !affected = hit)
          && check "shed consulted other queries" (List.rev !asked = hit)
          && check "shed kept other rows"
               (List.rev !kept = List.filter (fun (qid, _) -> qid mod 2 = 0) want))
        (make_r_events events))

(* Windows with an infinite end.  Once the sweep's S.B finger runs off
   the end of the keys, the key at the finger reads +inf, and a window
   ending at +inf must not count as reaching it.  Both engine sides are
   checked against BJ-QOuter: R events against S with the windows as
   given, and S events against R (stored in S shape) with the mirrored
   windows, as the engine registers them. *)
let unbounded_window_gen =
  QCheck2.Gen.(
    frequency
      [
        (3, map (fun iv -> I.shift iv (-5.0)) (interval_gen 10));
        (1, map (fun a -> I.make neg_infinity (a -. 5.0)) (fgen 10));
        (1, map (fun a -> I.make (a -. 5.0) infinity) (fgen 10));
        (1, return (I.make neg_infinity infinity));
      ])

let hotspot_matches_qouter ~alpha table queries events =
  let hs = BJ.Hotspot.create_alpha ~alpha ~seed:7 table queries in
  let qo = BJ.Qouter.create table queries in
  let affected f st r =
    let acc = ref [] in
    f st r (fun (q : BQ.t) -> acc := q.qid :: !acc);
    List.sort Int.compare !acc
  in
  List.for_all
    (fun r ->
      (affected BJ.Hotspot.affected hs r = affected BJ.Qouter.affected qo r
      || QCheck2.Test.fail_reportf "alpha %g, b=%g: affected differs" alpha r.Tuple.b)
      && (band_results (module BJ.Hotspot) hs r = band_results (module BJ.Qouter) qo r
         || QCheck2.Test.fail_reportf "alpha %g, b=%g: results differ" alpha r.Tuple.b))
    events

let prop_band_unbounded_windows =
  QCheck2.Test.make ~name:"band processors: unbounded windows on both sides" ~count:150
    QCheck2.Gen.(
      triple s_tuples_gen (list_size (int_range 0 60) unbounded_window_gen) r_events_gen)
    (fun (s_rows, ranges, r_rows) ->
      let s_table, s_arr = make_s_table s_rows in
      let r_events = make_r_events r_rows in
      let forward = BQ.of_ranges (Array.of_list ranges) in
      let mirrored =
        BQ.of_ranges (Array.of_list (List.map (fun iv -> I.make (-.I.hi iv) (-.I.lo iv)) ranges))
      in
      let r_table =
        Table.of_s_tuples
          (Array.of_list (List.map (fun (r : Tuple.r) -> { Tuple.sid = r.rid; b = r.b; c = r.a }) r_events))
      in
      let s_events =
        List.map (fun (s : Tuple.s) -> { Tuple.rid = s.sid; a = s.c; b = s.b }) (Array.to_list s_arr)
      in
      List.for_all
        (fun alpha ->
          hotspot_matches_qouter ~alpha s_table forward r_events
          && hotspot_matches_qouter ~alpha r_table mirrored s_events)
        [ 0.01; 1.0 ])

(* 200 short windows [10i, 10i + 1] and one unbounded [5000, +inf]
   against a single S row at 1000.5: only q100 = [1000, 1001] reaches
   it.  The window [5000, +inf] starts past the only key, so it must
   not be reported, although +inf <= +inf. *)
let test_band_unbounded_past_the_end () =
  let table, _ = make_s_table [ (1000.5, 0.0) ] in
  let ranges =
    Array.append
      (Array.init 200 (fun i -> I.make (10.0 *. float_of_int i) ((10.0 *. float_of_int i) +. 1.0)))
      [| I.make 5000.0 infinity |]
  in
  let queries = BQ.of_ranges ranges in
  let hs = BJ.Hotspot.create_alpha ~alpha:0.01 ~seed:7 table queries in
  let r = { Tuple.rid = 0; a = 0.0; b = 0.0 } in
  let affected = ref [] in
  BJ.Hotspot.affected hs r (fun q -> affected := q.BQ.qid :: !affected);
  Alcotest.(check (list int)) "affected" [ 100 ] !affected;
  Alcotest.(check (list (pair int int)))
    "results" [ (100, 0) ]
    (band_results (module BJ.Hotspot) hs r)

(* One group {q0, q1, q2} whose rangeC / band windows meet in [5, 6],
   so its stabbing point is 6.  Around it the anchors are s1 = 4 and
   s2 = 8: q1 reaches only s1, q2 only s2, and q0 both, so STEP 1 finds
   q0 from both anchors.  Every (q, s) pair must still arrive exactly
   once, and [affected] must report q0 once. *)
let both_anchor_ranges = [| I.make 0.0 10.0; I.make 2.0 6.0; I.make 5.0 9.0 |]

let check_once name ~want ~emitted ~affected =
  Alcotest.(check (list (pair int int))) (name ^ " pairs") want (List.sort compare emitted);
  Alcotest.(check int) (name ^ " pairs delivered once") (List.length want) (List.length emitted);
  Alcotest.(check (list int)) (name ^ " affected once") [ 0; 1; 2 ] (List.sort compare affected)

let test_band_both_anchors () =
  (* S.B keys 4 and 8 inside q0's window, -20 and 20 outside. *)
  let table, _ = make_s_table [ (4.0, 0.0); (8.0, 0.0); (-20.0, 0.0); (20.0, 0.0) ] in
  let queries = BQ.of_ranges both_anchor_ranges in
  let r = { Tuple.rid = 0; a = 0.0; b = 0.0 } in
  let want = BJ.reference table queries r in
  Alcotest.(check (list (pair int int))) "q0 joins both anchors" [ (0, 0); (0, 1); (1, 0); (2, 1) ]
    want;
  let hot = BJ.Hotspot.create_alpha ~alpha:0.5 ~seed:42 table queries in
  Alcotest.(check (float 0.0)) "one hotspot holds every window" 1.0 (BJ.Hotspot.coverage hot);
  List.iter
    (fun (module S : BJ.STRATEGY) ->
      let st = S.create table queries in
      let emitted = ref [] and affected = ref [] in
      S.process_r st r (fun q s -> emitted := (q.BQ.qid, s.Tuple.sid) :: !emitted);
      S.affected st r (fun q -> affected := q.BQ.qid :: !affected);
      check_once S.name ~want ~emitted:!emitted ~affected:!affected)
    [ (module Hot (BJ.Hotspot)); (module BJ.Ssi); (module BJ.Ssi_dynamic) ]

let test_select_both_anchors () =
  (* Joining C values 4 and 8 at B = 1; the rows at B = 0 and 2 sit on
     either side of the event's run in S(B,C). *)
  let table, _ = make_s_table [ (1.0, 4.0); (1.0, 8.0); (0.0, 5.0); (2.0, 6.0) ] in
  let queries = SQ.of_ranges (Array.map (fun c -> (I.make 0.0 10.0, c)) both_anchor_ranges) in
  let r = { Tuple.rid = 0; a = 5.0; b = 1.0 } in
  let want = SJ.reference table queries r in
  Alcotest.(check (list (pair int int))) "q0 joins both anchors" [ (0, 0); (0, 1); (1, 0); (2, 1) ]
    want;
  let hot = SJ.Hotspot.create_alpha ~alpha:0.5 ~seed:42 table queries in
  Alcotest.(check (float 0.0)) "one hotspot holds every rectangle" 1.0 (SJ.Hotspot.coverage hot);
  List.iter
    (fun (module S : SJ.STRATEGY) ->
      let st = S.create table queries in
      let emitted = ref [] and affected = ref [] in
      S.process_r st r (fun q s -> emitted := (q.SQ.qid, s.Tuple.sid) :: !emitted);
      S.affected st r (fun q -> affected := q.SQ.qid :: !affected);
      check_once S.name ~want ~emitted:!emitted ~affected:!affected)
    select_processors

(* An event's run of S(B,C) across leaves.  B = 2i for i < 30, with
   run lengths cycling through 1, 2, 3, 5, 8, 13 and 40 rows from an
   offset that moves the leaf boundaries; over the seven offsets some
   run starts on a leaf's first slot after another leaf, some spans two
   leaves, and the last ends at the tree's last entry (checked first,
   with a finger).  Events take every stored B, every odd B between two
   stored ones, and one past each end.  The hotspot processor (α = 0.3:
   hot groups and scattered queries both), SSI and SJ-SelectFirst must
   match the reference in results and in affected queries. *)
let test_select_runs_across_leaves () =
  let lens = [| 1; 2; 3; 5; 8; 13; 40 |] in
  let queries =
    SQ.of_ranges
      (Array.init 40 (fun i ->
           let a = float_of_int (i * 7 mod 20) in
           let c =
             if i mod 2 = 0 then I.make (10.0 -. float_of_int (i mod 4)) (10.0 +. float_of_int (i mod 3))
             else
               let c = float_of_int (i * 3 mod 20) in
               I.make c (c +. 1.0)
           in
           (I.make a (a +. float_of_int (3 + (i mod 5))), c)))
  in
  let first_slot = ref false and two_leaves = ref false and at_end = ref false in
  for offset = 0 to 6 do
    let rows =
      List.concat
        (List.init 30 (fun i ->
             List.init lens.((i + offset) mod 7) (fun j ->
                 (float_of_int (2 * i), float_of_int (((j * 7) + i) mod 20)))))
    in
    let table, _ = make_s_table rows in
    let cov = SJ.Hotspot.coverage (SJ.Hotspot.create_alpha ~alpha:0.3 ~seed:42 table queries) in
    Alcotest.(check bool) "hot groups and scattered queries" true (cov > 0.0 && cov < 1.0);
    let f = Bt.finger (Table.s_by_b table) in
    for i = 0 to 29 do
      Bt.finger_descend f (float_of_int (2 * i)) neg_infinity;
      let slot = Bt.finger_index f and len = lens.((i + offset) mod 7) in
      if slot = 0 && Bt.finger_back_index f >= 0 then first_slot := true;
      if slot + len > Bt.finger_count f then two_leaves := true;
      if i = 29 && slot + len = Bt.finger_count f && not (Bt.finger_next_leaf f) then
        at_end := true
    done;
    List.iter
      (fun (module S : SJ.STRATEGY) ->
        let st = S.create table queries in
        for b = -1 to 59 do
          List.iter
            (fun a ->
              let r = { Tuple.rid = 0; a; b = float_of_int b } in
              let want = SJ.reference table queries r in
              let affected = ref [] in
              S.affected st r (fun q -> affected := q.SQ.qid :: !affected);
              let where = Printf.sprintf "%s, offset %d, a = %g, b = %d" S.name offset a b in
              Alcotest.(check (list (pair int int))) where want (select_results (module S) st r);
              Alcotest.(check (list int))
                (where ^ " affected")
                (List.sort_uniq compare (List.map fst want))
                (List.sort compare !affected))
            [ 2.0; 9.0; 16.0 ]
        done)
      [ (module Hot (SJ.Hotspot)); (module SJ.Ssi); (module SJ.Select_first) ]
  done;
  Alcotest.(check bool) "a run starts on a leaf's first slot" true !first_slot;
  Alcotest.(check bool) "a run spans two leaves" true !two_leaves;
  Alcotest.(check bool) "a run ends at the last entry" true !at_end

(* ---------------------------------------------------------------------- *)

let qc = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "cq_joins"
    [
      ( "band",
        [
          qc prop_band_strategies_agree;
          qc prop_band_dynamic_updates;
          qc prop_band_affected_matches;
          Alcotest.test_case "empty S table" `Quick test_band_empty_table;
          Alcotest.test_case "no queries" `Quick test_band_no_queries;
          Alcotest.test_case "exact-match duplicates" `Quick test_band_exact_match_duplicates;
        ] );
      ( "select",
        [
          qc prop_select_strategies_agree;
          qc prop_select_dynamic_updates;
          qc prop_select_affected_matches;
          qc prop_select_edges;
          qc prop_select_shed_asks;
          Alcotest.test_case "no join partner" `Quick test_select_no_join_partner;
          Alcotest.test_case "gap between anchors" `Quick test_select_gap_between_anchors;
          Alcotest.test_case "anchor duplicates" `Quick test_select_rect_contains_anchor_line;
          Alcotest.test_case "adaptive routing" `Quick test_adaptive_routes_both_ways;
        ] );
      ( "processor",
        [
          qc prop_band_processors_match;
          qc prop_select_processors_match;
          qc prop_band_processors_churn;
          qc prop_band_scattered_sweep;
          qc prop_band_unbounded_windows;
          Alcotest.test_case "unbounded window past the last key" `Quick
            test_band_unbounded_past_the_end;
          Alcotest.test_case "band window reached from both anchors" `Quick
            test_band_both_anchors;
          Alcotest.test_case "select rectangle reached from both anchors" `Quick
            test_select_both_anchors;
          Alcotest.test_case "select runs across leaves" `Quick test_select_runs_across_leaves;
        ] );
    ]

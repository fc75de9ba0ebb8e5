(* Tests for Section 3.3: step functions, weighted 1-D k-means, the
   V-optimal DP histogram, and SSI-HIST. *)

module I = Cq_interval.Interval
module Step_fn = Cq_histogram.Step_fn
module Kmeans1d = Cq_histogram.Kmeans1d
module Histogram = Cq_histogram.Histogram
module Ssi_hist = Cq_histogram.Ssi_hist
module Rng = Cq_util.Rng

let interval_gen =
  QCheck2.Gen.(
    map2
      (fun a b -> if a <= b then I.make a b else I.make b a)
      (map float_of_int (int_bound 100))
      (map float_of_int (int_bound 100)))

let brute_stab ivs x =
  float_of_int (List.length (List.filter (fun iv -> I.stabs iv x) ivs))

(* ------------------------------ Step_fn ------------------------------- *)

let prop_of_intervals_exact =
  QCheck2.Test.make ~name:"step_fn: of_intervals = brute-force stab count" ~count:300
    QCheck2.Gen.(pair (list_size (int_range 0 100) interval_gen)
                    (list_size (int_range 1 30) (map float_of_int (int_bound 100))))
    (fun (ivs, probes) ->
      let f = Step_fn.of_intervals (Array.of_list ivs) in
      (* Probe integer points, plus every endpoint (closed semantics). *)
      let probes =
        probes @ List.concat_map (fun iv -> [ I.lo iv; I.hi iv; Float.succ (I.hi iv) ]) ivs
      in
      List.for_all (fun x -> Step_fn.eval f x = brute_stab ivs x) probes)

let prop_add_pointwise =
  QCheck2.Test.make ~name:"step_fn: add is pointwise sum" ~count:300
    QCheck2.Gen.(triple (list_size (int_range 0 50) interval_gen)
                    (list_size (int_range 0 50) interval_gen)
                    (list_size (int_range 1 30) (map float_of_int (int_bound 100))))
    (fun (xs, ys, probes) ->
      let fx = Step_fn.of_intervals (Array.of_list xs) in
      let fy = Step_fn.of_intervals (Array.of_list ys) in
      let fs = Step_fn.add fx fy in
      List.for_all
        (fun p -> Step_fn.eval fs p = Step_fn.eval fx p +. Step_fn.eval fy p)
        probes)

let prop_sum_all_matches_concat =
  QCheck2.Test.make ~name:"step_fn: sum of per-group fns = global fn" ~count:200
    QCheck2.Gen.(list_size (int_range 0 80) interval_gen)
    (fun ivs ->
      let arr = Array.of_list ivs in
      let whole = Step_fn.of_intervals arr in
      let groups = Hotspot_core.Stabbing.canonical Fun.id arr in
      let parts =
        Array.to_list groups
        |> List.map (fun (g : I.t Hotspot_core.Stabbing.group) -> Step_fn.of_intervals g.members)
      in
      let summed = Step_fn.sum_all parts in
      let probes = Array.init 101 float_of_int in
      Step_fn.equal_on whole summed ~probes)

let test_step_fn_basics () =
  let f = Step_fn.of_breaks [| (0.0, 1.0); (5.0, 3.0); (10.0, 0.0) |] in
  Alcotest.(check (float 0.0)) "before" 0.0 (Step_fn.eval f (-1.0));
  Alcotest.(check (float 0.0)) "first piece" 1.0 (Step_fn.eval f 0.0);
  Alcotest.(check (float 0.0)) "second piece" 3.0 (Step_fn.eval f 7.5);
  Alcotest.(check (float 0.0)) "after" 0.0 (Step_fn.eval f 100.0);
  Alcotest.(check int) "pieces" 3 (Step_fn.num_pieces f);
  Alcotest.check_raises "unsorted rejected"
    (Invalid_argument "Step_fn.of_breaks: x values must be strictly increasing") (fun () ->
      ignore (Step_fn.of_breaks [| (1.0, 1.0); (1.0, 2.0) |]))

let test_step_fn_clip () =
  let f = Step_fn.of_breaks [| (0.0, 2.0); (10.0, 0.0) |] in
  let g = Step_fn.clip f ~lo:3.0 ~hi:6.0 in
  Alcotest.(check (float 0.0)) "inside" 2.0 (Step_fn.eval g 4.0);
  Alcotest.(check (float 0.0)) "left of clip" 0.0 (Step_fn.eval g 2.0);
  Alcotest.(check (float 0.0)) "right of clip" 0.0 (Step_fn.eval g 7.0)

(* ------------------------------ Kmeans1d ------------------------------ *)

let sorted_pts_gen =
  QCheck2.Gen.(
    map
      (fun l -> Array.of_list (List.sort compare l))
      (list_size (int_range 1 40) (map float_of_int (int_bound 50))))

let prop_kmeans_exact_beats_lloyd =
  QCheck2.Test.make ~name:"kmeans: exact cost <= lloyd cost" ~count:300
    QCheck2.Gen.(pair sorted_pts_gen (int_range 1 6))
    (fun (pts, k) ->
      let weights = Array.make (Array.length pts) 1.0 in
      let e = Kmeans1d.exact ~pts ~weights ~k in
      let l = Kmeans1d.lloyd ~pts ~weights ~k () in
      e.cost <= l.cost +. 1e-6)

let prop_kmeans_boundaries_partition =
  QCheck2.Test.make ~name:"kmeans: boundaries partition the points" ~count:300
    QCheck2.Gen.(pair sorted_pts_gen (int_range 1 6))
    (fun (pts, k) ->
      let weights = Array.make (Array.length pts) 1.0 in
      List.for_all
        (fun (r : Kmeans1d.result) ->
          let b = r.boundaries in
          let n = Array.length b in
          b.(0) = 0
          && b.(n - 1) = Array.length pts
          && Array.for_all (fun c -> c >= 0) b
          &&
          let ok = ref true in
          for i = 1 to n - 1 do
            if b.(i - 1) > b.(i) then ok := false
          done;
          !ok)
        [ Kmeans1d.exact ~pts ~weights ~k; Kmeans1d.lloyd ~pts ~weights ~k () ])

let prop_kmeans_k1_is_weighted_mean =
  QCheck2.Test.make ~name:"kmeans: k=1 center is the weighted mean" ~count:300 sorted_pts_gen
    (fun pts ->
      let weights = Array.init (Array.length pts) (fun i -> 1.0 +. float_of_int (i mod 3)) in
      let r = Kmeans1d.exact ~pts ~weights ~k:1 in
      let sw = Array.fold_left ( +. ) 0.0 weights in
      let swx = ref 0.0 in
      Array.iteri (fun i x -> swx := !swx +. (weights.(i) *. x)) pts;
      Float.abs (r.centers.(0) -. (!swx /. sw)) < 1e-9)

(* Exhaustive oracle for tiny instances: try all contiguous
   partitions. *)
let prop_kmeans_exact_is_optimal_small =
  QCheck2.Test.make ~name:"kmeans: exact matches exhaustive search (small)" ~count:200
    QCheck2.Gen.(pair
                   (map (fun l -> Array.of_list (List.sort compare l))
                      (list_size (int_range 1 8) (map float_of_int (int_bound 20))))
                   (int_range 1 3))
    (fun (pts, k) ->
      let m = Array.length pts in
      let weights = Array.make m 1.0 in
      let r = Kmeans1d.exact ~pts ~weights ~k in
      let k = min k m in
      (* Enumerate all ways to cut m points into k contiguous parts. *)
      let best = ref infinity in
      let rec enumerate start parts_left cost =
        if parts_left = 1 then begin
          let _, c = Kmeans1d.cluster_cost ~pts ~weights ~i:start ~j:(m - 1) in
          if cost +. c < !best then best := cost +. c
        end
        else
          for stop = start to m - parts_left do
            let _, c = Kmeans1d.cluster_cost ~pts ~weights ~i:start ~j:stop in
            enumerate (stop + 1) (parts_left - 1) (cost +. c)
          done
      in
      enumerate 0 k 0.0;
      Float.abs (r.cost -. !best) < 1e-6)

let test_kmeans_validation () =
  Alcotest.check_raises "unsorted" (Invalid_argument "Kmeans1d: points must be sorted")
    (fun () -> ignore (Kmeans1d.exact ~pts:[| 2.0; 1.0 |] ~weights:[| 1.0; 1.0 |] ~k:1));
  Alcotest.check_raises "bad k" (Invalid_argument "Kmeans1d: k must be positive") (fun () ->
      ignore (Kmeans1d.exact ~pts:[| 1.0 |] ~weights:[| 1.0 |] ~k:0))

(* ------------------------------ Histogram ----------------------------- *)

let fixed_intervals seed n =
  let rng = Rng.create seed in
  Array.init n (fun _ ->
      let mid = Cq_util.Dist.normal rng ~mu:50.0 ~sigma:15.0 in
      let len = Float.abs (Cq_util.Dist.normal rng ~mu:10.0 ~sigma:20.0) in
      I.of_midpoint ~mid ~len)

let probes_for rng n = Array.init n (fun _ -> Cq_util.Dist.uniform rng ~lo:0.0 ~hi:100.0)

let test_histogram_eval () =
  let h = { Histogram.bounds = [| 0.0; 10.0; 20.0 |]; values = [| 1.0; 2.0 |] } in
  Alcotest.(check (float 0.0)) "bucket 0" 1.0 (Histogram.eval h 5.0);
  Alcotest.(check (float 0.0)) "bucket 1" 2.0 (Histogram.eval h 10.0);
  Alcotest.(check (float 0.0)) "outside left" 0.0 (Histogram.eval h (-1.0));
  Alcotest.(check (float 0.0)) "outside right" 0.0 (Histogram.eval h 20.0)

let test_equal_width_flat_function () =
  (* A constant function is represented exactly whatever the bucket
     count. *)
  let f = Step_fn.of_breaks [| (0.0, 5.0); (100.0, 0.0) |] in
  let h = Histogram.equal_width f ~lo:0.0 ~hi:100.0 ~buckets:7 in
  Alcotest.(check (float 1e-9)) "zero error" 0.0
    (Histogram.mean_squared_rel_error h f ~lo:0.0 ~hi:100.0)

let test_optimal_enough_buckets_is_exact () =
  let ivs = fixed_intervals 42 30 in
  let f = Step_fn.of_intervals ivs in
  let h = Histogram.optimal f ~lo:0.0 ~hi:100.0 ~buckets:(Step_fn.num_pieces f + 2) in
  let err = Histogram.mean_squared_rel_error h f ~lo:0.0 ~hi:100.0 in
  if err > 1e-9 then Alcotest.failf "expected exact representation, error = %g" err

let test_optimal_beats_eqw () =
  let ivs = fixed_intervals 7 200 in
  let f = Step_fn.of_intervals ivs in
  List.iter
    (fun buckets ->
      let eqw = Histogram.equal_width f ~lo:0.0 ~hi:100.0 ~buckets in
      let opt = Histogram.optimal f ~lo:0.0 ~hi:100.0 ~buckets in
      let e_eqw = Histogram.mean_squared_rel_error eqw f ~lo:0.0 ~hi:100.0 in
      let e_opt = Histogram.mean_squared_rel_error opt f ~lo:0.0 ~hi:100.0 in
      if e_opt > e_eqw +. 1e-9 then
        Alcotest.failf "optimal (%g) worse than EQW (%g) at %d buckets" e_opt e_eqw buckets)
    [ 2; 5; 10; 20 ]

let prop_optimal_monotone_in_buckets =
  QCheck2.Test.make ~name:"histogram: optimal error non-increasing in buckets" ~count:100
    QCheck2.Gen.(list_size (int_range 1 60) interval_gen)
    (fun ivs ->
      let f = Step_fn.of_intervals (Array.of_list ivs) in
      let err b =
        Histogram.mean_squared_rel_error
          (Histogram.optimal f ~lo:0.0 ~hi:101.0 ~buckets:b)
          f ~lo:0.0 ~hi:101.0
      in
      let e2 = err 2 and e4 = err 4 and e8 = err 8 in
      e4 <= e2 +. 1e-9 && e8 <= e4 +. 1e-9)


let test_equal_depth_flat_function () =
  let f = Step_fn.of_breaks [| (0.0, 5.0); (100.0, 0.0) |] in
  let h = Histogram.equal_depth f ~lo:0.0 ~hi:100.0 ~buckets:6 in
  Alcotest.(check (float 1e-9)) "zero error" 0.0
    (Histogram.mean_squared_rel_error h f ~lo:0.0 ~hi:100.0)

let test_equal_depth_zero_function () =
  let h = Histogram.equal_depth Step_fn.zero ~lo:0.0 ~hi:10.0 ~buckets:4 in
  Alcotest.(check int) "one flat bucket" 1 (Histogram.num_buckets h);
  Alcotest.(check (float 0.0)) "zero" 0.0 (Histogram.eval h 5.0)

let prop_equal_depth_mass_balanced =
  QCheck2.Test.make ~name:"equal_depth: boundaries sorted, mass roughly balanced" ~count:150
    QCheck2.Gen.(list_size (int_range 1 80) interval_gen)
    (fun ivs ->
      let f = Step_fn.of_intervals (Array.of_list ivs) in
      let h = Histogram.equal_depth f ~lo:0.0 ~hi:101.0 ~buckets:8 in
      let b = h.Histogram.bounds in
      let sorted = ref true in
      for i = 1 to Array.length b - 1 do
        if b.(i - 1) >= b.(i) then sorted := false
      done;
      !sorted && Histogram.num_buckets h >= 1 && Histogram.num_buckets h <= 9)


let prop_histogram_step_fn_round_trip =
  QCheck2.Test.make ~name:"histogram: of_step_fn/to_step_fn round trip" ~count:200
    QCheck2.Gen.(list_size (int_range 1 60) interval_gen)
    (fun ivs ->
      let f = Step_fn.of_intervals (Array.of_list ivs) in
      let h = Histogram.of_step_fn f in
      let back = Histogram.to_step_fn h in
      let probes = Array.init 101 float_of_int in
      (* Exact representation: one bucket per piece. *)
      Array.for_all (fun x -> Histogram.eval h x = Step_fn.eval f x) probes
      && Step_fn.equal_on back f ~probes)

(* ------------------------------ SSI-HIST ------------------------------ *)

let test_ssi_hist_exact_with_many_buckets () =
  let ivs = fixed_intervals 11 50 in
  let f = Step_fn.of_intervals ivs in
  let h = Ssi_hist.build ~use_exact_kmeans:true ivs ~buckets:(4 * Step_fn.num_pieces f) in
  let rng = Rng.create 1 in
  let probes = probes_for rng 2000 in
  let err = Ssi_hist.avg_rel_error_on h f ~probes in
  if err > 1e-9 then Alcotest.failf "expected near-exact SSI-HIST, error = %g" err

let test_ssi_hist_beats_eqw_on_clustered () =
  (* The paper's headline histogram claim (Figure 12): on clustered
     interval sets — the regime hotspots exist for — SSI-HIST beats
     EQW at equal bucket budgets. *)
  let rng = Rng.create 99 in
  let ivs =
    Cq_relation.Workload.gen_clustered_ranges rng ~n:5000 ~n_clusters:18 ~clustered_frac:1.0
      ~domain:(0.0, 10_000.0) ~cluster_halfwidth:50.0 ~len_mu:150.0 ~len_sigma:80.0
  in
  let f = Step_fn.of_intervals ivs in
  let prng = Rng.create 2 in
  let probes = Array.init 5000 (fun _ -> Cq_util.Dist.uniform prng ~lo:0.0 ~hi:10_000.0) in
  List.iter
    (fun buckets ->
      let ssi = Ssi_hist.build ivs ~buckets in
      let eqw =
        Histogram.equal_width f ~lo:0.0 ~hi:10_000.0 ~buckets:(Ssi_hist.buckets_used ssi)
      in
      let e_ssi = Ssi_hist.avg_rel_error_on ssi f ~probes in
      let e_eqw = Histogram.avg_rel_error_on eqw f ~probes in
      if e_ssi > e_eqw then
        Alcotest.failf "SSI-HIST (%g) worse than EQW (%g) at %d buckets" e_ssi e_eqw buckets)
    [ 20; 40; 70 ]

let test_ssi_hist_group_count () =
  (* Three well-separated clusters -> three stabbing groups. *)
  let mk lo hi = I.make lo hi in
  let ivs =
    Array.concat
      [
        Array.init 10 (fun i -> mk (float_of_int i) 20.0);
        Array.init 10 (fun i -> mk (40.0 +. float_of_int i) 60.0);
        Array.init 10 (fun i -> mk (80.0 +. float_of_int i) 99.0);
      ]
  in
  let h = Ssi_hist.build ivs ~buckets:12 in
  Alcotest.(check int) "groups" 3 (Ssi_hist.num_groups h)

(* Infinite ends are clipped to one past the finite span, so inside it
   the one-bucket-per-interval histogram still counts every interval
   that reaches the point. *)
let test_ssi_hist_infinite_ends () =
  let ivs = I.[| make 0.0 infinity; make neg_infinity 10.0; make 4.0 6.0; make neg_infinity infinity |] in
  let h = Ssi_hist.build ~use_exact_kmeans:true ivs ~buckets:32 in
  List.iter
    (fun (x, want) -> Alcotest.(check (float 1e-9)) (Printf.sprintf "at %g" x) want (Ssi_hist.estimate h x))
    [ (-0.5, 2.0); (5.0, 4.0); (10.5, 2.0) ]

let prop_ssi_hist_never_negative =
  QCheck2.Test.make ~name:"ssi-hist: estimates are non-negative" ~count:150
    QCheck2.Gen.(list_size (int_range 1 80) interval_gen)
    (fun ivs ->
      let arr = Array.of_list ivs in
      let h = Ssi_hist.build arr ~buckets:10 in
      let ok = ref true in
      for x = 0 to 100 do
        if Ssi_hist.estimate h (float_of_int x) < -1e-9 then ok := false
      done;
      !ok)

(* ---------------------------------------------------------------------- *)

let qc = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "cq_histogram"
    [
      ( "step_fn",
        [
          qc prop_of_intervals_exact;
          qc prop_add_pointwise;
          qc prop_sum_all_matches_concat;
          Alcotest.test_case "basics" `Quick test_step_fn_basics;
          Alcotest.test_case "clip" `Quick test_step_fn_clip;
        ] );
      ( "kmeans1d",
        [
          qc prop_kmeans_exact_beats_lloyd;
          qc prop_kmeans_boundaries_partition;
          qc prop_kmeans_k1_is_weighted_mean;
          qc prop_kmeans_exact_is_optimal_small;
          Alcotest.test_case "validation" `Quick test_kmeans_validation;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "eval" `Quick test_histogram_eval;
          Alcotest.test_case "EQW exact on flat fn" `Quick test_equal_width_flat_function;
          Alcotest.test_case "EQD exact on flat fn" `Quick test_equal_depth_flat_function;
          Alcotest.test_case "EQD on zero fn" `Quick test_equal_depth_zero_function;
          qc prop_equal_depth_mass_balanced;
          qc prop_histogram_step_fn_round_trip;
          Alcotest.test_case "optimal exact with enough buckets" `Quick
            test_optimal_enough_buckets_is_exact;
          Alcotest.test_case "optimal beats EQW" `Quick test_optimal_beats_eqw;
          qc prop_optimal_monotone_in_buckets;
        ] );
      ( "ssi_hist",
        [
          Alcotest.test_case "exact with many buckets" `Quick test_ssi_hist_exact_with_many_buckets;
          Alcotest.test_case "beats EQW on clustered input" `Slow
            test_ssi_hist_beats_eqw_on_clustered;
          Alcotest.test_case "group count" `Quick test_ssi_hist_group_count;
          Alcotest.test_case "infinite ends" `Quick test_ssi_hist_infinite_ends;
          qc prop_ssi_hist_never_negative;
        ] );
    ]

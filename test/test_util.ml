(* Tests for the cq_util substrate: RNG determinism, distribution
   sanity, vector semantics, summary statistics.  The Zipf coverage
   model is tested in test_zipf_model. *)

open Cq_util

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------- Rng --------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let distinct = ref false in
  for _ = 1 to 10 do
    if Rng.int64 a <> Rng.int64 b then distinct := true
  done;
  Alcotest.(check bool) "different seeds diverge" true !distinct

let test_rng_float_range () =
  let rng = Rng.create 7 in
  for _ = 1 to 10_000 do
    let x = Rng.float rng in
    if x < 0.0 || x >= 1.0 then Alcotest.failf "float out of [0,1): %g" x
  done

let test_rng_int_range () =
  let rng = Rng.create 9 in
  for _ = 1 to 10_000 do
    let x = Rng.int rng 17 in
    if x < 0 || x >= 17 then Alcotest.failf "int out of [0,17): %d" x
  done

let test_rng_int_rejects_bad_bound () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_split_independent () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  (* The split stream must not be a shifted copy of the parent. *)
  let xs = Array.init 16 (fun _ -> Rng.int64 a) in
  let ys = Array.init 16 (fun _ -> Rng.int64 b) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_uniformity_coarse () =
  (* Chi-square-ish smoke check on 10 buckets. *)
  let rng = Rng.create 11 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let b = int_of_float (Rng.float rng *. 10.0) in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = n / 10 in
      if abs (c - expected) > expected / 10 then
        Alcotest.failf "bucket %d count %d too far from %d" i c expected)
    buckets

(* ------------------------------- Dist -------------------------------- *)

let test_uniform_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    let x = Dist.uniform rng ~lo:5.0 ~hi:9.0 in
    if x < 5.0 || x >= 9.0 then Alcotest.failf "uniform out of range: %g" x
  done

let test_normal_moments () =
  let rng = Rng.create 13 in
  let n = 200_000 in
  let xs = Array.init n (fun _ -> Dist.normal rng ~mu:50.0 ~sigma:10.0) in
  let m = Stats.mean xs and sd = Stats.stddev xs in
  if Float.abs (m -. 50.0) > 0.2 then Alcotest.failf "normal mean off: %g" m;
  if Float.abs (sd -. 10.0) > 0.2 then Alcotest.failf "normal stddev off: %g" sd

let test_normal_clamped () =
  let rng = Rng.create 17 in
  for _ = 1 to 10_000 do
    let x = Dist.normal_clamped rng ~mu:0.0 ~sigma:100.0 ~lo:(-50.0) ~hi:50.0 in
    if x < -50.0 || x > 50.0 then Alcotest.failf "clamped normal out of range: %g" x
  done

let test_zipf_weights_normalised () =
  let w = Dist.zipf_weights ~n:5000 ~beta:1.0 in
  check_float "sums to 1" 1.0 (Array.fold_left ( +. ) 0.0 w);
  (* Monotone decreasing. *)
  for i = 1 to Array.length w - 1 do
    if w.(i) > w.(i - 1) then Alcotest.fail "zipf weights not decreasing"
  done

let test_zipf_rank_frequencies () =
  let rng = Rng.create 23 in
  let w = Dist.zipf_weights ~n:100 ~beta:1.0 in
  let cdf = Dist.cdf_of_weights w in
  let counts = Array.make 100 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let r = Dist.zipf rng ~cdf in
    counts.(r) <- counts.(r) + 1
  done;
  (* Rank 0 should be drawn roughly w.(0) of the time. *)
  let f0 = float_of_int counts.(0) /. float_of_int n in
  if Float.abs (f0 -. w.(0)) > 0.01 then Alcotest.failf "rank-0 frequency %g vs weight %g" f0 w.(0)

let test_exponential_positive_mean () =
  let rng = Rng.create 29 in
  let xs = Array.init 100_000 (fun _ -> Dist.exponential rng ~rate:2.0) in
  Array.iter (fun x -> if x < 0.0 then Alcotest.fail "negative exponential draw") xs;
  let m = Stats.mean xs in
  if Float.abs (m -. 0.5) > 0.02 then Alcotest.failf "exponential mean off: %g" m

(* ------------------------------- Stats ------------------------------- *)

let test_stats_basics () =
  check_float "mean" 2.5 (Stats.mean [| 1.0; 2.0; 3.0; 4.0 |]);
  check_float "mean empty" 0.0 (Stats.mean [||]);
  check_float "stddev" (sqrt 1.25) (Stats.stddev [| 1.0; 2.0; 3.0; 4.0 |]);
  check_float "median" 2.0 (Stats.median [| 3.0; 1.0; 2.0 |]);
  check_float "p100 = max" 9.0 (Stats.percentile [| 9.0; 1.0; 5.0 |] 100.0);
  check_float "geometric mean" 2.0 (Stats.geometric_mean [| 1.0; 2.0; 4.0 |]);
  check_float "geometric mean w/ nonpositive" 0.0 (Stats.geometric_mean [| 1.0; -2.0 |])

let test_stats_percentile_edges () =
  let xs = [| 9.0; 1.0; 5.0; 3.0 |] in
  check_float "p0 = min" 1.0 (Stats.percentile xs 0.0);
  check_float "p100 = max" 9.0 (Stats.percentile xs 100.0);
  check_float "p below 0 clamps to min" 1.0 (Stats.percentile xs (-10.0));
  check_float "p above 100 clamps to max" 9.0 (Stats.percentile xs 250.0);
  (* Single-element array: every percentile is that element. *)
  check_float "singleton p0" 7.0 (Stats.percentile [| 7.0 |] 0.0);
  check_float "singleton p50" 7.0 (Stats.percentile [| 7.0 |] 50.0);
  check_float "singleton p100" 7.0 (Stats.percentile [| 7.0 |] 100.0);
  (* Empty array: 0 at every p, no exception. *)
  check_float "empty p0" 0.0 (Stats.percentile [||] 0.0);
  check_float "empty p50" 0.0 (Stats.percentile [||] 50.0);
  check_float "empty p100" 0.0 (Stats.percentile [||] 100.0);
  check_float "empty median" 0.0 (Stats.median [||])

let test_stats_geometric_mean_zero () =
  check_float "zero collapses to 0" 0.0 (Stats.geometric_mean [| 2.0; 0.0; 8.0 |]);
  check_float "empty is 0" 0.0 (Stats.geometric_mean [||]);
  check_float "singleton" 3.0 (Stats.geometric_mean [| 3.0 |])

(* -------------------------------- Vec -------------------------------- *)

let test_vec_push_get () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.push v i
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  for i = 0 to 99 do
    Alcotest.(check int) "get" i (Vec.get v i)
  done

let test_vec_pop_lifo () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  Alcotest.(check int) "pop" 3 (Vec.pop v);
  Alcotest.(check int) "pop" 2 (Vec.pop v);
  Alcotest.(check int) "length" 1 (Vec.length v)

let test_vec_swap_remove () =
  let v = Vec.of_list [ 10; 20; 30; 40 ] in
  let removed = Vec.swap_remove v 1 in
  Alcotest.(check int) "removed" 20 removed;
  Alcotest.(check (list int)) "rest" [ 10; 40; 30 ] (Vec.to_list v)

let test_vec_bounds () =
  let v = Vec.of_list [ 1 ] in
  Alcotest.check_raises "get oob" (Invalid_argument "Vec.get: index out of bounds") (fun () ->
      ignore (Vec.get v 1));
  Alcotest.check_raises "pop empty" (Invalid_argument "Vec.pop: empty") (fun () ->
      Vec.clear v;
      ignore (Vec.pop v))

let test_vec_sort_fold () =
  let v = Vec.of_list [ 3; 1; 2 ] in
  Vec.sort compare v;
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3 ] (Vec.to_list v);
  Alcotest.(check int) "fold" 6 (Vec.fold ( + ) 0 v);
  Alcotest.(check bool) "exists" true (Vec.exists (fun x -> x = 2) v);
  Alcotest.(check bool) "exists not" false (Vec.exists (fun x -> x = 9) v)

(* qcheck: Vec behaves like a list under pushes and pops. *)
let prop_vec_models_list =
  QCheck2.Test.make ~name:"vec models list" ~count:500
    QCheck2.Gen.(list (int_bound 1000))
    (fun ops ->
      let v = Vec.create () in
      List.iter (Vec.push v) ops;
      Vec.to_list v = ops)

(* Growth across doubling boundaries: sizes clustered around powers of
   two (the capacity edges of the doubling policy) must preserve every
   element and the length, whatever the initial capacity. *)
let prop_vec_growth_capacity_edges =
  let gen =
    QCheck2.Gen.(
      pair (int_bound 6)
        (map2 (fun k d -> Int.max 0 ((1 lsl k) + d - 2)) (int_bound 10) (int_bound 4)))
  in
  QCheck2.Test.make ~name:"vec growth across capacity edges" ~count:300 gen
    (fun (cap, n) ->
      let v = if cap = 0 then Vec.create () else Vec.make cap in
      for i = 0 to n - 1 do
        Vec.push v i
      done;
      Vec.length v = n
      &&
      let ok = ref true in
      for i = 0 to n - 1 do
        if Vec.get v i <> i then ok := false
      done;
      !ok)

(* Clear-and-reuse (the hot-path scratch pattern): after any number of
   fill/clear rounds the vec models exactly the last round's pushes —
   no stale elements, no leftover length. *)
let prop_vec_clear_reuse =
  QCheck2.Test.make ~name:"vec clear-and-reuse models last round" ~count:300
    QCheck2.Gen.(list_size (int_range 1 6) (list (int_bound 1000)))
    (fun rounds ->
      let v = Vec.create () in
      List.iter
        (fun round ->
          Vec.clear v;
          List.iter (Vec.push v) round)
        rounds;
      let last = List.nth rounds (List.length rounds - 1) in
      Vec.to_list v = last)

(* iter/iteri/fold visit in push order, and to_array agrees. *)
let prop_vec_iteration_order =
  QCheck2.Test.make ~name:"vec iteration follows push order" ~count:300
    QCheck2.Gen.(list (int_bound 1000))
    (fun ops ->
      let v = Vec.create () in
      List.iter (Vec.push v) ops;
      let seen = ref [] in
      Vec.iter (fun x -> seen := x :: !seen) v;
      let indexed_ok = ref true in
      Vec.iteri (fun i x -> if Vec.get v i <> x then indexed_ok := false) v;
      List.rev !seen = ops
      && !indexed_ok
      && Vec.fold (fun acc x -> x :: acc) [] v = List.rev ops
      && Array.to_list (Vec.to_array v) = ops)

(* Mixed push/pop/swap_remove stream against a list model. *)
let prop_vec_mixed_ops_model =
  let open QCheck2.Gen in
  let op = oneof [ map (fun x -> `Push x) (int_bound 1000); pure `Pop; pure `Swap ] in
  QCheck2.Test.make ~name:"vec mixed ops model" ~count:300 (list op) (fun ops ->
      let v = Vec.create () in
      let model = ref [] in
      List.iter
        (fun o ->
          match o with
          | `Push x ->
              Vec.push v x;
              model := !model @ [ x ]
          | `Pop ->
              if Vec.length v > 0 then begin
                let got = Vec.pop v in
                let n = List.length !model in
                let last = List.nth !model (n - 1) in
                if got <> last then model := [ -1 ] (* force mismatch *)
                else model := List.filteri (fun i _ -> i < n - 1) !model
              end
          | `Swap ->
              if Vec.length v > 0 then begin
                let got = Vec.swap_remove v 0 in
                match !model with
                | first :: rest ->
                    if got <> first then model := [ -1 ]
                    else begin
                      (* swap_remove moves the last element into slot 0. *)
                      let n = List.length rest in
                      if n = 0 then model := []
                      else
                        model :=
                          List.nth rest (n - 1)
                          :: List.filteri (fun i _ -> i < n - 1) rest
                    end
                | [] -> ()
              end)
        ops;
      Vec.to_list v = !model)

(* ------------------------------- Order ------------------------------- *)

(* The monomorphic comparators that replaced polymorphic [List.sort
   compare] on the result paths (CQL001) must order exactly as the
   polymorphic primitive did — here, in test code, poly compare is the
   oracle. *)
let prop_order_int_pair_matches_poly =
  QCheck2.Test.make ~name:"Order.int_pair orders like polymorphic compare" ~count:500
    QCheck2.Gen.(list (pair small_signed_int small_signed_int))
    (fun l -> List.sort Order.int_pair l = List.sort compare l)

let prop_order_float_pair_matches_poly =
  (* Finite floats only: on NaN, Float.compare is total where the
     polymorphic primitive is not — that divergence is the point. *)
  let finite = QCheck2.Gen.(map (fun (a, b) -> (float_of_int a /. 16., float_of_int b /. 16.)) (pair small_signed_int small_signed_int)) in
  QCheck2.Test.make ~name:"Order.float_pair orders like polymorphic compare" ~count:500
    QCheck2.Gen.(list finite)
    (fun l -> List.sort Order.float_pair l = List.sort compare l)

let test_order_float_pair_total_on_nan () =
  (* Polymorphic compare is inconsistent on NaN; Float.compare puts it
     first. The comparator must stay a total order. *)
  let l = [ (Float.nan, 1.0); (0.0, Float.nan); (0.0, 0.0); (Float.nan, Float.nan) ] in
  let sorted = List.sort Order.float_pair l in
  Alcotest.(check int) "same length" (List.length l) (List.length sorted);
  let s2 = List.sort Order.float_pair (List.rev l) in
  Alcotest.(check bool) "order independent of input permutation" true
    (List.for_all2 (fun (a, b) (c, d) -> Order.float_pair (a, b) (c, d) = 0) sorted s2)

let test_order_by () =
  let cmp = Order.by String.length Int.compare in
  Alcotest.(check bool) "projects before comparing" true (cmp "ab" "xyz" < 0);
  Alcotest.(check int) "equal projections tie" 0 (cmp "ab" "cd")

(* --------------------------------------------------------------------- *)

let () =
  Alcotest.run "cq_util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "float in [0,1)" `Quick test_rng_float_range;
          Alcotest.test_case "int in bound" `Quick test_rng_int_range;
          Alcotest.test_case "bad bound rejected" `Quick test_rng_int_rejects_bad_bound;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "coarse uniformity" `Slow test_rng_uniformity_coarse;
        ] );
      ( "dist",
        [
          Alcotest.test_case "uniform bounds" `Quick test_uniform_bounds;
          Alcotest.test_case "normal moments" `Slow test_normal_moments;
          Alcotest.test_case "clamped normal" `Quick test_normal_clamped;
          Alcotest.test_case "zipf weights" `Quick test_zipf_weights_normalised;
          Alcotest.test_case "zipf frequencies" `Slow test_zipf_rank_frequencies;
          Alcotest.test_case "exponential" `Slow test_exponential_positive_mean;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basics" `Quick test_stats_basics;
          Alcotest.test_case "percentile edges" `Quick test_stats_percentile_edges;
          Alcotest.test_case "geometric mean edge cases" `Quick test_stats_geometric_mean_zero;
        ] );
      ( "vec",
        [
          Alcotest.test_case "push/get" `Quick test_vec_push_get;
          Alcotest.test_case "pop LIFO" `Quick test_vec_pop_lifo;
          Alcotest.test_case "swap_remove" `Quick test_vec_swap_remove;
          Alcotest.test_case "bounds errors" `Quick test_vec_bounds;
          Alcotest.test_case "sort/fold/exists" `Quick test_vec_sort_fold;
          QCheck_alcotest.to_alcotest prop_vec_models_list;
          QCheck_alcotest.to_alcotest prop_vec_growth_capacity_edges;
          QCheck_alcotest.to_alcotest prop_vec_clear_reuse;
          QCheck_alcotest.to_alcotest prop_vec_iteration_order;
          QCheck_alcotest.to_alcotest prop_vec_mixed_ops_model;
        ] );
      ( "order",
        [
          QCheck_alcotest.to_alcotest prop_order_int_pair_matches_poly;
          QCheck_alcotest.to_alcotest prop_order_float_pair_matches_poly;
          Alcotest.test_case "total on NaN" `Quick test_order_float_pair_total_on_nan;
          Alcotest.test_case "by projection" `Quick test_order_by;
        ] );
    ]

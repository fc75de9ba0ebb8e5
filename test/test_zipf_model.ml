(* Tests for the Figure-2 Zipf coverage model (Cq_util.Zipf_model).
   They run as their own executable: Alcotest pads every test name to
   the widest suite name of its run, and a "zipf_model" suite inside
   test_util would re-truncate the names of the other cq_util suites. *)

open Cq_util

module Zipf = Zipf_model

let test_zipf_figure2_anchor () =
  (* The paper: with 5000 groups and beta = 1, the top 500 groups cover
     about 70% of all queries. *)
  let c = Zipf.coverage ~n_groups:5000 ~beta:1.0 ~top_k:500 in
  if c < 0.68 || c > 0.78 then Alcotest.failf "coverage %.3f outside [0.68, 0.78]" c;
  (* Coverage increases with beta. *)
  let c11 = Zipf.coverage ~n_groups:5000 ~beta:1.1 ~top_k:500 in
  let c12 = Zipf.coverage ~n_groups:5000 ~beta:1.2 ~top_k:500 in
  Alcotest.(check bool) "beta=1.1 above beta=1.0" true (c11 > c);
  Alcotest.(check bool) "beta=1.2 above beta=1.1" true (c12 > c11)

let test_zipf_bounds () =
  Alcotest.(check (float 1e-9)) "k=0" 0.0 (Zipf.coverage ~n_groups:100 ~beta:1.0 ~top_k:0);
  Alcotest.(check (float 1e-9)) "k=n" 1.0 (Zipf.coverage ~n_groups:100 ~beta:1.0 ~top_k:100);
  Alcotest.(check (float 1e-9)) "k>n clamps" 1.0 (Zipf.coverage ~n_groups:100 ~beta:1.0 ~top_k:1000)

let prop_zipf_monotone =
  QCheck2.Test.make ~name:"zipf: coverage monotone in k" ~count:100
    QCheck2.Gen.(pair (int_range 1 200) (map (fun b -> 0.5 +. (float_of_int b /. 10.0)) (int_bound 10)))
    (fun (n, beta) ->
      let prev = ref (-1.0) in
      List.for_all
        (fun k ->
          let c = Zipf.coverage ~n_groups:n ~beta ~top_k:k in
          let ok = c >= !prev in
          prev := c;
          ok)
        (List.init (min n 20) (fun i -> i + 1)))

let test_zipf_groups_needed () =
  let k = Zipf.groups_needed ~n_groups:5000 ~beta:1.0 ~target:0.70 in
  Alcotest.(check bool) "around 500" true (k > 300 && k < 700);
  Alcotest.(check (float 0.02)) "reaches target" 0.70
    (Zipf.coverage ~n_groups:5000 ~beta:1.0 ~top_k:k)

(* --------------------------------------------------------------------- *)

let () =
  Alcotest.run "cq_util_zipf"
    [
      ( "zipf_model",
        [
          Alcotest.test_case "figure 2 anchor" `Quick test_zipf_figure2_anchor;
          Alcotest.test_case "bounds" `Quick test_zipf_bounds;
          QCheck_alcotest.to_alcotest prop_zipf_monotone;
          Alcotest.test_case "groups needed" `Quick test_zipf_groups_needed;
        ] );
    ]

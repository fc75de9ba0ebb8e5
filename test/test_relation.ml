(* Tests for the relation layer: table index consistency and the
   Table-1 workload generators. *)

module I = Cq_interval.Interval
module Table = Cq_relation.Table
module Bt = Cq_index.Btree
module Tuple = Cq_relation.Tuple
module W = Cq_relation.Workload
module Rng = Cq_util.Rng

let tuples_gen =
  QCheck2.Gen.(
    list_size (int_range 0 200)
      (map2 (fun b c -> (float_of_int b, float_of_int c)) (int_bound 20) (int_bound 20)))

(* One tree serves both orders: its listing is sorted by (B, C), so
   also by B, and holds exactly the surviving rows under their own
   keys. *)
let prop_s_table_indexes_agree =
  QCheck2.Test.make ~name:"s_table: B and (B,C) indexes stay consistent" ~count:300
    QCheck2.Gen.(pair tuples_gen (list_size (int_range 0 50) (int_bound 300)))
    (fun (rows, deletions) ->
      let tuples = Array.of_list (List.mapi (fun sid (b, c) -> { Tuple.sid; b; c }) rows) in
      let t = Table.of_s_tuples tuples in
      Bt.check_invariants (Table.s_by_b t);
      (* Delete a few specific tuples. *)
      let deleted = Hashtbl.create 16 in
      List.iter
        (fun i ->
          if Array.length tuples > 0 then begin
            let s = tuples.(i mod Array.length tuples) in
            if (not (Hashtbl.mem deleted s.Tuple.sid)) && Table.delete_s t s then
              Hashtbl.add deleted s.Tuple.sid ()
          end)
        deletions;
      Bt.check_invariants (Table.s_by_b t);
      let survivors =
        Array.to_list tuples |> List.filter (fun s -> not (Hashtbl.mem deleted s.Tuple.sid))
      in
      let listed = Bt.to_list (Table.s_by_b t) in
      let by_b = ref [] in
      Table.iter_s t (fun s -> by_b := s :: !by_b);
      let keys = List.map (fun (b, c, _) -> (b, c)) listed in
      let norm l = List.sort compare (List.map (fun s -> s.Tuple.sid) l) in
      Table.s_size t = List.length survivors
      && norm !by_b = norm survivors
      && List.for_all (fun (b, c, (s : Tuple.s)) -> b = s.b && c = s.c) listed
      && keys = List.sort Cq_util.Order.float_pair keys)

let prop_r_table_round_trip =
  QCheck2.Test.make ~name:"r_table: insert/delete round trip" ~count:200 tuples_gen
    (fun rows ->
      let t = Table.create_r () in
      let tuples = List.mapi (fun rid (a, b) -> { Tuple.rid; a; b }) rows in
      List.iter (Table.insert_r t) tuples;
      List.iteri (fun i r -> if i mod 2 = 0 then ignore (Table.delete_r t r)) tuples;
      Table.r_size t = List.length tuples - ((List.length tuples + 1) / 2))

let test_workload_distributions () =
  let c = W.default in
  let rng = Rng.create 5 in
  let ss = W.gen_s_tuples c rng ~n:20_000 in
  (* S.B clamped to the domain and quantised. *)
  Array.iter
    (fun (s : Tuple.s) ->
      if s.b < c.W.domain_lo || s.b > c.W.domain_hi then Alcotest.fail "S.B out of domain";
      if Float.rem s.b c.W.b_quantum <> 0.0 then Alcotest.fail "S.B not on the quantum grid")
    ss;
  let mean = Array.fold_left (fun acc (s : Tuple.s) -> acc +. s.b) 0.0 ss /. 20_000.0 in
  if Float.abs (mean -. c.W.sb_mu) > 50.0 then Alcotest.failf "S.B mean off: %g" mean;
  (* R.A uniform: mean ~ 5000. *)
  let rs = W.gen_r_tuples c rng ~n:20_000 in
  let mean_a = Array.fold_left (fun acc (r : Tuple.r) -> acc +. r.a) 0.0 rs /. 20_000.0 in
  if Float.abs (mean_a -. 5000.0) > 100.0 then Alcotest.failf "R.A mean off: %g" mean_a


let test_table1_query_generators () =
  let c = W.default in
  let rng = Rng.create 11 in
  let pairs = W.gen_select_ranges c rng ~n:10_000 in
  (* rangeA midpoints normal around 5000; rangeC midpoints uniform. *)
  let mid_a = Array.map (fun (a, _) -> I.midpoint a) pairs in
  let mid_c = Array.map (fun (_, cr) -> I.midpoint cr) pairs in
  let mean xs = Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs) in
  if Float.abs (mean mid_a -. 5000.0) > 100.0 then Alcotest.fail "rangeA midpoint mean off";
  if Float.abs (mean mid_c -. 5000.0) > 100.0 then Alcotest.fail "rangeC midpoint mean off";
  let sd xs =
    let m = mean xs in
    sqrt (Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs /. float_of_int (Array.length xs))
  in
  (* Normal(5000,1500) vs Uni(0,10000): very different spreads. *)
  if sd mid_a > 2000.0 then Alcotest.fail "rangeA midpoints too spread";
  if sd mid_c < 2500.0 then Alcotest.fail "rangeC midpoints not uniform-spread";
  (* Lengths are non-negative everywhere. *)
  Array.iter
    (fun (a, cr) ->
      if I.length a < 0.0 || I.length cr < 0.0 then Alcotest.fail "negative length")
    pairs;
  let bands = W.gen_band_ranges c rng ~n:10_000 in
  let mean_len = mean (Array.map I.length bands) in
  (* Normal(400,150) truncated at 0: mean close to 400. *)
  if Float.abs (mean_len -. 400.0) > 25.0 then Alcotest.failf "band length mean off: %g" mean_len

let test_clustered_generator () =
  let rng = Rng.create 7 in
  let ranges =
    W.gen_clustered_ranges ~scattered_len:(5.0, 2.0) rng ~n:5000 ~n_clusters:10
      ~clustered_frac:1.0 ~domain:(0.0, 10_000.0) ~cluster_halfwidth:40.0 ~len_mu:200.0
      ~len_sigma:50.0
  in
  (* Fully clustered: the canonical partition collapses to roughly the
     cluster count. *)
  let tau = Hotspot_core.Stabbing.tau Fun.id ranges in
  if tau > 15 then Alcotest.failf "expected ~10 groups, got %d" tau;
  (* Fully scattered short ranges: many groups. *)
  let scattered =
    W.gen_clustered_ranges ~scattered_len:(5.0, 2.0) rng ~n:5000 ~n_clusters:10
      ~clustered_frac:0.0 ~domain:(0.0, 10_000.0) ~cluster_halfwidth:40.0 ~len_mu:200.0
      ~len_sigma:50.0
  in
  let tau_s = Hotspot_core.Stabbing.tau Fun.id scattered in
  if tau_s < 200 then Alcotest.failf "expected scattered to fragment, got %d groups" tau_s

let test_clustered_generator_validation () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "bad clusters"
    (Invalid_argument "Workload.gen_clustered_ranges: n_clusters must be > 0") (fun () ->
      ignore
        (W.gen_clustered_ranges rng ~n:10 ~n_clusters:0 ~clustered_frac:0.5
           ~domain:(0.0, 1.0) ~cluster_halfwidth:1.0 ~len_mu:1.0 ~len_sigma:0.1));
  Alcotest.check_raises "bad frac"
    (Invalid_argument "Workload.gen_clustered_ranges: clustered_frac must be in [0,1]")
    (fun () ->
      ignore
        (W.gen_clustered_ranges rng ~n:10 ~n_clusters:2 ~clustered_frac:1.5
           ~domain:(0.0, 1.0) ~cluster_halfwidth:1.0 ~len_mu:1.0 ~len_sigma:0.1))

let test_scale_lengths () =
  let ranges = [| I.make 0.0 10.0; I.make 5.0 5.0 |] in
  let scaled = W.scale_lengths ranges ~factor:0.5 in
  Alcotest.(check (float 1e-9)) "half length" 5.0 (I.length scaled.(0));
  Alcotest.(check (float 1e-9)) "same midpoint" 5.0 (I.midpoint scaled.(0));
  Alcotest.(check (float 1e-9)) "point stays" 0.0 (I.length scaled.(1))

(* ------------------------------- Batch -------------------------------- *)

module B = Cq_relation.Batch

let test_batch_push_get () =
  let b = B.create () in
  for i = 0 to 99 do
    B.push b ~x:(float_of_int i) ~y:(float_of_int (i * 2))
  done;
  Alcotest.(check int) "length" 100 (B.length b);
  for i = 0 to 99 do
    Alcotest.(check (float 0.0)) "x" (float_of_int i) (B.x b i);
    Alcotest.(check (float 0.0)) "y" (float_of_int (i * 2)) (B.y b i);
    Alcotest.(check int) "id unset" (-1) (B.id b i)
  done;
  B.check_invariants b

let test_batch_clear_reuse () =
  let b = B.create ~capacity:4 () in
  B.push b ~x:1.0 ~y:2.0;
  B.clear b;
  Alcotest.(check bool) "empty" true (B.is_empty b);
  B.push b ~x:3.0 ~y:4.0;
  Alcotest.(check (float 0.0)) "reused slot" 3.0 (B.x b 0);
  B.check_invariants b

let test_batch_slice_aliases () =
  let b = B.of_rows [| (1.0, 10.0); (2.0, 20.0); (3.0, 30.0); (4.0, 40.0) |] in
  let v = B.slice b ~pos:1 ~len:2 in
  Alcotest.(check bool) "is view" true (B.is_view v);
  Alcotest.(check int) "view length" 2 (B.length v);
  Alcotest.(check (float 0.0)) "view x" 2.0 (B.x v 0);
  Alcotest.(check (float 0.0)) "view y" 30.0 (B.y v 1);
  (* Sub-slice composes offsets. *)
  let vv = B.slice v ~pos:1 ~len:1 in
  Alcotest.(check (float 0.0)) "sub-slice x" 3.0 (B.x vv 0);
  (* In-place root writes are visible through the view (no copy). *)
  B.set_id b 1 77;
  Alcotest.(check int) "alias id" 77 (B.id v 0);
  (match B.push v ~x:0.0 ~y:0.0 with
  | () -> Alcotest.fail "view push accepted"
  | exception Cq_util.Error.Cq_error (Cq_util.Error.Invalid_parameter { value; _ }) ->
      Alcotest.(check string) "view push rejected" "read-only view" value);
  (match B.slice b ~pos:3 ~len:2 with
  | _ -> Alcotest.fail "out-of-bounds slice accepted"
  | exception Cq_util.Error.Cq_error (Cq_util.Error.Invalid_parameter { name; _ }) ->
      Alcotest.(check string) "slice oob rejected" "pos/len" name);
  B.check_invariants b;
  B.check_invariants v

let test_batch_seal () =
  let b = B.of_rows [| (1.0, 2.0) |] in
  B.seal b;
  Alcotest.(check bool) "sealed" true (B.sealed b);
  (match B.push b ~x:0.0 ~y:0.0 with
  | () -> Alcotest.fail "sealed push accepted"
  | exception Cq_util.Error.Cq_error (Cq_util.Error.Invalid_parameter { value; _ }) ->
      Alcotest.(check string) "sealed push rejected" "sealed batch" value);
  (match B.clear b with
  | () -> Alcotest.fail "sealed clear accepted"
  | exception Cq_util.Error.Cq_error (Cq_util.Error.Invalid_parameter { value; _ }) ->
      Alcotest.(check string) "sealed clear rejected" "sealed batch" value);
  (* Reads stay legal while sealed. *)
  Alcotest.(check (float 0.0)) "sealed read" 1.0 (B.x b 0);
  B.unseal b;
  B.push b ~x:3.0 ~y:4.0;
  Alcotest.(check int) "push after unseal" 2 (B.length b)

let test_batch_tuple_round_trip () =
  let rng = Rng.create 5 in
  let ss = W.gen_s_tuples W.default rng ~n:200 in
  let rs = W.gen_r_tuples W.default rng ~n:200 in
  let sb = B.of_s_tuples ss and rb = B.of_r_tuples rs in
  Alcotest.(check bool) "s round trip" true (B.to_s_tuples sb = ss);
  Alcotest.(check bool) "r round trip" true (B.to_r_tuples rb = rs);
  (* Batch generators replay the tuple generators' stream exactly. *)
  let rng2 = Rng.create 5 in
  let sb2 = W.gen_s_batch W.default rng2 ~n:200 in
  let rb2 = W.gen_r_batch W.default rng2 ~n:200 in
  Alcotest.(check bool) "gen_s_batch matches" true (B.to_s_tuples sb2 = ss);
  Alcotest.(check bool) "gen_r_batch matches" true (B.to_r_tuples rb2 = rs);
  (* Table bulk-load from the batch agrees with the tuple bulk-load. *)
  let t1 = Table.of_s_tuples ss and t2 = Table.of_s_batch sb in
  Alcotest.(check int) "table sizes" (Table.s_size t1) (Table.s_size t2)

let prop_batch_models_rows =
  QCheck2.Test.make ~name:"batch models row array" ~count:300
    QCheck2.Gen.(
      list_size (int_range 0 100)
        (map2 (fun a b -> (float_of_int a, float_of_int b)) (int_bound 50) (int_bound 50)))
    (fun rows ->
      let arr = Array.of_list rows in
      let b = B.of_rows arr in
      B.check_invariants b;
      B.to_rows b = arr)

let qc = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "cq_relation"
    [
      ( "table",
        [ qc prop_s_table_indexes_agree; qc prop_r_table_round_trip ] );
      ( "batch",
        [
          Alcotest.test_case "push/get" `Quick test_batch_push_get;
          Alcotest.test_case "clear and reuse" `Quick test_batch_clear_reuse;
          Alcotest.test_case "slice aliasing" `Quick test_batch_slice_aliases;
          Alcotest.test_case "seal/unseal" `Quick test_batch_seal;
          Alcotest.test_case "tuple round trips" `Quick test_batch_tuple_round_trip;
          qc prop_batch_models_rows;
        ] );
      ( "workload",
        [
          Alcotest.test_case "distributions" `Slow test_workload_distributions;
          Alcotest.test_case "Table-1 query generators" `Slow test_table1_query_generators;
          Alcotest.test_case "clustered generator" `Quick test_clustered_generator;
          Alcotest.test_case "validation" `Quick test_clustered_generator_validation;
          Alcotest.test_case "scale_lengths" `Quick test_scale_lengths;
        ] );
    ]

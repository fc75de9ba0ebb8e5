(* Tests for the paper's core machinery: canonical stabbing partitions
   (Lemma 1), the lazy and refined dynamic maintainers (Lemma 3 /
   Theorem 2), the hotspot tracker (Theorem 1, invariants I1-I3), and
   the SSI framework. *)

module I = Cq_interval.Interval
module Stabbing = Hotspot_core.Stabbing
module Rng = Cq_util.Rng

(* Element type shared by all partition tests: an interval plus a
   unique id (compare primary on lo, as the maintainers require). *)
module E = struct
  type t = { iv : I.t; id : int }

  let compare a b =
    let c = Float.compare (I.lo a.iv) (I.lo b.iv) in
    if c <> 0 then c
    else
      let c = Float.compare (I.hi a.iv) (I.hi b.iv) in
      if c <> 0 then c else Int.compare a.id b.id

  let interval e = e.iv
end

module Lazy_p = Hotspot_core.Lazy_partition.Make (E)
module Refined_p = Hotspot_core.Refined_partition.Make (E)
module Tracker = Hotspot_core.Hotspot_tracker.Make (E)

let interval_gen =
  QCheck2.Gen.(
    map2
      (fun a b -> if a <= b then I.make a b else I.make b a)
      (map float_of_int (int_bound 100))
      (map float_of_int (int_bound 100)))

(* Clustered intervals: midpoints drawn from a few centres, so real
   hotspots emerge. *)
let clustered_interval_gen =
  QCheck2.Gen.(
    let* centre = oneofl [ 10.0; 50.0; 90.0 ] in
    let* jitter = map float_of_int (int_range (-5) 5) in
    let* len = map float_of_int (int_range 1 20) in
    return (I.of_midpoint ~mid:(centre +. jitter) ~len))

let elems_of ivs = List.mapi (fun i iv -> { E.iv; id = i }) ivs

(* ---------------------------- Stabbing ------------------------------- *)

let prop_canonical_is_valid_partition =
  QCheck2.Test.make ~name:"canonical: valid partition covering all elements" ~count:500
    QCheck2.Gen.(list_size (int_range 0 300) interval_gen)
    (fun ivs ->
      let elems = Array.of_list (elems_of ivs) in
      let groups = Stabbing.canonical E.interval elems in
      let listed =
        Array.to_list groups
        |> List.map (fun (g : E.t Stabbing.group) -> (g.stab, Array.to_list g.members))
      in
      Stabbing.is_valid_partition E.interval listed
      && Array.fold_left (fun acc g -> acc + Array.length g.Stabbing.members) 0 groups
         = Array.length elems)

let prop_canonical_is_optimal =
  QCheck2.Test.make ~name:"canonical: tau equals max disjoint packing (duality)" ~count:500
    QCheck2.Gen.(list_size (int_range 0 300) interval_gen)
    (fun ivs ->
      let elems = Array.of_list (elems_of ivs) in
      Stabbing.tau E.interval elems = Stabbing.max_disjoint E.interval elems)

let prop_canonical_isect_matches_members =
  QCheck2.Test.make ~name:"canonical: group isect is exact member intersection" ~count:300
    QCheck2.Gen.(list_size (int_range 1 200) interval_gen)
    (fun ivs ->
      let elems = Array.of_list (elems_of ivs) in
      let groups = Stabbing.canonical E.interval elems in
      Array.for_all
        (fun (g : E.t Stabbing.group) ->
          let want =
            Array.fold_left (fun acc e -> I.inter acc (E.interval e))
              (I.make neg_infinity infinity) g.members
          in
          I.equal want g.isect && I.stabs g.isect g.stab)
        groups)

let test_canonical_known_example () =
  (* Figure 1 style: three clusters. *)
  let ivs =
    [ (0.0, 4.0); (1.0, 5.0); (2.0, 6.0); (10.0, 14.0); (11.0, 15.0); (20.0, 24.0) ]
    |> List.map (fun (a, b) -> I.make a b)
  in
  let elems = Array.of_list (elems_of ivs) in
  Alcotest.(check int) "tau" 3 (Stabbing.tau E.interval elems);
  let groups = Stabbing.canonical E.interval elems in
  Alcotest.(check (list int)) "group sizes" [ 3; 2; 1 ]
    (Array.to_list groups |> List.map (fun g -> Array.length g.Stabbing.members))

let test_canonical_empty_and_singleton () =
  Alcotest.(check int) "tau empty" 0 (Stabbing.tau E.interval [||]);
  Alcotest.(check int) "tau singleton" 1
    (Stabbing.tau E.interval [| { E.iv = I.make 1.0 2.0; id = 0 } |])

(* ----------------------- Dynamic maintainers -------------------------- *)

type trace_op = TIns | TDel

let trace_gen =
  (* A mix of inserts and deletes over clustered intervals. *)
  QCheck2.Gen.(
    list_size (int_range 1 250)
      (pair (frequencyl [ (3, TIns); (2, TDel) ]) clustered_interval_gen))

(* Run a trace against a maintainer, checking invariants as we go
   (sampled to keep runtime in check: the invariant check recomputes a
   canonical partition). *)
module Run_trace (P : Hotspot_core.Partition_intf.S with type elt = E.t) = struct
  let run ?(epsilon = 1.0) ops =
    let t = P.create ~epsilon ~seed:7 () in
    let live = ref [] in
    let next_id = ref 0 in
    let step = ref 0 in
    List.iter
      (fun (op, iv) ->
        incr step;
        (match op with
        | TIns ->
            let e = { E.iv; id = !next_id } in
            incr next_id;
            P.insert t e;
            live := e :: !live
        | TDel -> (
            match !live with
            | [] -> ()
            | e :: rest ->
                if not (P.delete t e) then failwith "delete of live element failed";
                live := rest));
        if !step mod 10 = 0 then P.check_invariants t)
      ops;
    P.check_invariants t;
    (t, !live)
end

module Run_lazy = Run_trace (Lazy_p)
module Run_refined = Run_trace (Refined_p)

let prop_lazy_maintains_bound =
  QCheck2.Test.make ~name:"lazy maintainer: invariants under random traces" ~count:100 trace_gen
    (fun ops ->
      let t, live = Run_lazy.run ops in
      Lazy_p.size t = List.length live)

let prop_lazy_small_epsilon =
  QCheck2.Test.make ~name:"lazy maintainer: tight epsilon = 0.1" ~count:50 trace_gen
    (fun ops ->
      let t, live = Run_lazy.run ~epsilon:0.1 ops in
      Lazy_p.size t = List.length live)

let prop_refined_maintains_bound =
  QCheck2.Test.make ~name:"refined maintainer: invariants under random traces" ~count:100
    trace_gen (fun ops ->
      let t, live = Run_refined.run ops in
      Refined_p.size t = List.length live)

let prop_refined_epsilon_three =
  QCheck2.Test.make ~name:"refined maintainer: paper's epsilon = 3" ~count:50 trace_gen
    (fun ops ->
      let t, live = Run_refined.run ~epsilon:3.0 ops in
      Refined_p.size t = List.length live)

let prop_refined_groups_valid =
  QCheck2.Test.make ~name:"refined maintainer: every group shares its stabbing point"
    ~count:100 trace_gen (fun ops ->
      let t, _ = Run_refined.run ops in
      Stabbing.is_valid_partition E.interval (Refined_p.groups t))

let prop_lazy_groups_valid =
  QCheck2.Test.make ~name:"lazy maintainer: every group shares its stabbing point" ~count:100
    trace_gen (fun ops ->
      let t, _ = Run_lazy.run ops in
      Stabbing.is_valid_partition E.interval (Lazy_p.groups t))

(* After a reconstruction the refined maintainer must hold an OPTIMAL
   partition: insert exactly enough elements to trip the trigger, then
   compare with a fresh canonical partition. *)
let prop_refined_reconstruction_is_optimal =
  QCheck2.Test.make ~name:"refined maintainer: post-reconstruction partition is optimal"
    ~count:100
    QCheck2.Gen.(list_size (int_range 1 200) clustered_interval_gen)
    (fun ivs ->
      let t = Refined_p.create ~epsilon:1.0 ~seed:3 () in
      let elems = elems_of ivs in
      List.iter (Refined_p.insert t) elems;
      (* Force a reconstruction so we are at a clean epoch. *)
      let all = Array.of_list elems in
      let tau = Stabbing.tau E.interval all in
      (* Keep inserting/deleting a probe element until a reconstruction
         happens right now. *)
      let probe = { E.iv = I.make 0.0 100.0; id = 1_000_000 } in
      let before = Refined_p.reconstructions t in
      let guard = ref 0 in
      while Refined_p.reconstructions t = before && !guard < 10_000 do
        incr guard;
        Refined_p.insert t probe;
        ignore (Refined_p.delete t probe)
      done;
      if Refined_p.updates_since_reconstruction t = 0 then
        (* tau of current set: the probe is gone, so it is exactly
           [elems]. *)
        Refined_p.num_groups t <= tau + 1
      else true)

let test_refined_delete_missing () =
  let t = Refined_p.create () in
  Refined_p.insert t { E.iv = I.make 0.0 1.0; id = 0 };
  Alcotest.(check bool) "absent" false (Refined_p.delete t { E.iv = I.make 5.0 6.0; id = 1 });
  Alcotest.(check bool) "present" true (Refined_p.delete t { E.iv = I.make 0.0 1.0; id = 0 });
  Alcotest.(check int) "empty" 0 (Refined_p.size t)

let test_refined_duplicate_insert_rejected () =
  let t = Refined_p.create () in
  let e = { E.iv = I.make 0.0 1.0; id = 0 } in
  Refined_p.insert t e;
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Refined_partition.insert: element already present") (fun () ->
      Refined_p.insert t e)

let test_lazy_duplicate_insert_rejected () =
  let t = Lazy_p.create () in
  let e = { E.iv = I.make 0.0 1.0; id = 0 } in
  Lazy_p.insert t e;
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Lazy_partition.insert: element already present") (fun () ->
      Lazy_p.insert t e)

let test_refined_group_lookup () =
  let t = Refined_p.create ~epsilon:1.0 () in
  let es = elems_of (List.map (fun (a, b) -> I.make a b) [ (0.0, 10.0); (1.0, 9.0); (50.0, 60.0) ]) in
  List.iter (Refined_p.insert t) es;
  List.iter
    (fun e ->
      let gid = Refined_p.group_of t e in
      let members = Refined_p.group_members t gid in
      if not (List.exists (fun m -> E.compare m e = 0) members) then
        Alcotest.fail "group_of/group_members inconsistent")
    es

(* --------------------------- Hotspot tracker -------------------------- *)

let tracker_trace_gen =
  QCheck2.Gen.(
    list_size (int_range 1 300)
      (pair (frequencyl [ (3, TIns); (1, TDel) ]) clustered_interval_gen))

let prop_tracker_invariants =
  QCheck2.Test.make ~name:"tracker: I1-I3 hold under random traces" ~count:60 tracker_trace_gen
    (fun ops ->
      let t = Tracker.create ~alpha:0.2 ~epsilon:1.0 () in
      let live = ref [] in
      let next_id = ref 0 in
      let step = ref 0 in
      List.iter
        (fun (op, iv) ->
          incr step;
          (match op with
          | TIns ->
              let e = { E.iv; id = !next_id } in
              incr next_id;
              Tracker.insert t e;
              live := e :: !live
          | TDel -> (
              match !live with
              | [] -> ()
              | e :: rest ->
                  if not (Tracker.delete t e) then failwith "tracker delete failed";
                  live := rest));
          if !step mod 10 = 0 then Tracker.check_invariants t)
        ops;
      Tracker.check_invariants t;
      Tracker.size t = List.length !live)

let prop_tracker_events_mirror_state =
  QCheck2.Test.make ~name:"tracker: event stream reconstructs membership" ~count:60
    tracker_trace_gen (fun ops ->
      (* Replay events into shadow sets and compare with the tracker's
         own view at the end. *)
      let shadow_hot = Hashtbl.create 16 in
      let shadow_scattered = Hashtbl.create 16 in
      let on_event = function
        | Tracker.Hotspot_created (gid, members) ->
            List.iter (fun e -> Hashtbl.replace shadow_hot e.E.id gid) members
        | Tracker.Hotspot_destroyed (_, members) ->
            List.iter (fun e -> Hashtbl.remove shadow_hot e.E.id) members
        | Tracker.Hotspot_added (gid, e) -> Hashtbl.replace shadow_hot e.E.id gid
        | Tracker.Hotspot_removed (_, e) -> Hashtbl.remove shadow_hot e.E.id
        | Tracker.Scattered_added e -> Hashtbl.replace shadow_scattered e.E.id ()
        | Tracker.Scattered_removed e -> Hashtbl.remove shadow_scattered e.E.id
      in
      let t = Tracker.create ~alpha:0.25 ~on_event () in
      let live = ref [] in
      let next_id = ref 0 in
      List.iter
        (fun (op, iv) ->
          match op with
          | TIns ->
              let e = { E.iv; id = !next_id } in
              incr next_id;
              Tracker.insert t e;
              live := e :: !live
          | TDel -> (
              match !live with
              | [] -> ()
              | e :: rest ->
                  ignore (Tracker.delete t e);
                  live := rest))
        ops;
      let hot_ok =
        List.for_all
          (fun e ->
            match Tracker.hotspot_of t e with
            | Some gid -> Hashtbl.find_opt shadow_hot e.E.id = Some gid
            | None -> not (Hashtbl.mem shadow_hot e.E.id))
          !live
      in
      let scattered_ids =
        Tracker.scattered t |> List.map (fun e -> e.E.id) |> List.sort compare
      in
      let shadow_ids =
        Hashtbl.fold (fun id () acc -> id :: acc) shadow_scattered [] |> List.sort compare
      in
      hot_ok && scattered_ids = shadow_ids)

let test_tracker_promotes_cluster () =
  (* 20 heavily overlapping intervals + 2 stragglers, alpha = 0.5:
     the cluster must become a hotspot. *)
  let t = Tracker.create ~alpha:0.5 () in
  for i = 0 to 19 do
    Tracker.insert t { E.iv = I.make (float_of_int i /. 10.0) 10.0; id = i }
  done;
  Tracker.insert t { E.iv = I.make 100.0 101.0; id = 100 };
  Tracker.insert t { E.iv = I.make 200.0 201.0; id = 101 };
  Alcotest.(check int) "one hotspot" 1 (Tracker.num_hotspots t);
  Alcotest.(check int) "scattered" 2 (Tracker.scattered_count t);
  let _, stab, members = List.hd (Tracker.hotspots t) in
  Alcotest.(check int) "hotspot size" 20 (List.length members);
  List.iter
    (fun e -> if not (I.stabs e.E.iv stab) then Alcotest.fail "stab point misses a member")
    members;
  Alcotest.(check (float 1e-9)) "coverage" (20.0 /. 22.0) (Tracker.coverage t)

let test_tracker_demotes_on_deletion () =
  let t = Tracker.create ~alpha:0.5 () in
  (* Cluster of 10 out of 12 -> hotspot; delete cluster members until
     it drops below alpha/2 of |I|. *)
  let cluster = List.init 10 (fun i -> { E.iv = I.make 0.0 10.0; id = i }) in
  List.iter (Tracker.insert t) cluster;
  let outsiders =
    List.init 8 (fun i -> { E.iv = I.make (100.0 +. (20.0 *. float_of_int i)) (101.0 +. (20.0 *. float_of_int i)); id = 100 + i })
  in
  List.iter (Tracker.insert t) outsiders;
  Alcotest.(check int) "hotspot formed" 1 (Tracker.num_hotspots t);
  (* Delete 8 of the 10 cluster members: 2 remaining of 10 total is
     below alpha/2 = 0.25. *)
  List.iteri (fun i e -> if i < 8 then ignore (Tracker.delete t e)) cluster;
  Tracker.check_invariants t;
  Alcotest.(check int) "hotspot dissolved" 0 (Tracker.num_hotspots t);
  Alcotest.(check int) "all scattered" 10 (Tracker.scattered_count t)

let test_tracker_insert_into_hotspot () =
  let t = Tracker.create ~alpha:0.3 () in
  List.iter (Tracker.insert t) (List.init 10 (fun i -> { E.iv = I.make 0.0 10.0; id = i }));
  Alcotest.(check int) "hotspot" 1 (Tracker.num_hotspots t);
  (* A new overlapping interval goes straight into the hotspot. *)
  Tracker.insert t { E.iv = I.make 5.0 20.0; id = 50 };
  Alcotest.(check int) "still one group" 1 (Tracker.num_hotspots t);
  Alcotest.(check int) "no scattered" 0 (Tracker.scattered_count t);
  Alcotest.(check bool) "member of hotspot" true
    (Tracker.hotspot_of t { E.iv = I.make 5.0 20.0; id = 50 } <> None)

let test_tracker_isect_narrow_after_delete () =
  (* Documented narrow-only behaviour of a hot group's maintained
     intersection: deleting a member never re-widens it, so after the
     narrow member [5,6] leaves a group of [0,10]s the stabbing point
     stays inside [5,6] — narrower than the true common intersection,
     but still stabbing every member (the only invariant promised). *)
  let t = Tracker.create ~alpha:0.5 () in
  let narrow = { E.iv = I.make 5.0 6.0; id = 0 } in
  Tracker.insert t narrow;
  let wide = List.init 3 (fun i -> { E.iv = I.make 0.0 10.0; id = 1 + i }) in
  List.iter (Tracker.insert t) wide;
  Alcotest.(check int) "one hot group" 1 (Tracker.num_hotspots t);
  Alcotest.(check int) "all four members hot" 4
    (let _, _, ms = List.hd (Tracker.hotspots t) in
     List.length ms);
  Alcotest.(check bool) "narrow member deleted" true (Tracker.delete t narrow);
  Tracker.check_invariants t;
  let gid, stab, members = List.hd (Tracker.hotspots t) in
  Alcotest.(check int) "group survives with the wide members" 3 (List.length members);
  Alcotest.(check (float 0.0)) "stab point pinned by the old narrow isect" stab
    (Tracker.hotspot_stab t gid);
  Alcotest.(check bool) "isect stayed narrow (not re-widened to [0,10])" true
    (stab >= 5.0 && stab <= 6.0);
  List.iter
    (fun e ->
      if not (I.stabs e.E.iv stab) then Alcotest.fail "narrowed stab point misses a member")
    members

let test_tracker_alpha_validation () =
  (match Tracker.try_create ~alpha:0.0 () with
  | Error (Cq_util.Error.Invalid_parameter { name = "alpha"; _ }) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Cq_util.Error.to_string e)
  | Ok _ -> Alcotest.fail "alpha = 0 accepted");
  (match Tracker.try_create ~epsilon:(-1.0) () with
  | Error (Cq_util.Error.Invalid_parameter { name = "epsilon"; _ }) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Cq_util.Error.to_string e)
  | Ok _ -> Alcotest.fail "epsilon < 0 accepted");
  match Tracker.create ~alpha:1.5 () with
  | exception Cq_util.Error.Cq_error (Cq_util.Error.Invalid_parameter { name = "alpha"; _ }) -> ()
  | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "alpha > 1 accepted"


let test_tracker_lookup_errors () =
  let t = Tracker.create ~alpha:0.5 () in
  Alcotest.check_raises "unknown hotspot id" Not_found (fun () ->
      ignore (Tracker.hotspot_stab t 42));
  let e = { E.iv = I.make 0.0 1.0; id = 0 } in
  Alcotest.(check bool) "mem absent" false (Tracker.mem t e);
  Tracker.insert t e;
  Alcotest.(check bool) "mem present" true (Tracker.mem t e);
  Alcotest.check_raises "duplicate insert"
    (Invalid_argument "Hotspot_tracker.insert: element already present") (fun () ->
      Tracker.insert t e)

(* Theorem 1 caps a tracker update at O(log n) amortised plus O(1/α)
   for the hot groups.  [Tracker.visits] counts the groups each update
   scans and the members promotions and demotions move; the test holds
   it to c·(1/α + log₂ n) per update over a build of n inserts followed
   by delete+insert churn, on two populations at α = 0.005 and
   n = 10k: micro's clustered ranges (80% in 30 clusters, ~30
   hotspots), and a scattered-heavy one shaped like cqbench's
   scattered-band (10% in 16 clusters, narrow windows, ~9k scattered
   groups).  Walking a hot group's members or every scattered group on
   each update costs thousands of visits per update on these inputs.
   c = 4: an insert scans up to 2/α hot groups for one to absorb it and
   a stabilisation round checks them again. *)
let work_bound_c = 4.0

let tracker_work ~name ranges =
  let n = 10_000 and alpha = 0.005 in
  let elem i = { E.iv = ranges.(i); id = i } in
  let t = Tracker.create ~alpha () in
  for i = 0 to n - 1 do
    Tracker.insert t (elem i)
  done;
  (* Churn: each step deletes a seeded-random live element and inserts
     the next fresh one in its slot. *)
  let rng = Rng.create 7 and live = Array.init n Fun.id in
  for i = n to Array.length ranges - 1 do
    let slot = Rng.int rng n in
    if not (Tracker.delete t (elem live.(slot))) then Alcotest.fail "churn delete failed";
    Tracker.insert t (elem i);
    live.(slot) <- i
  done;
  Tracker.check_invariants t;
  let updates = Tracker.updates t in
  let per_update = float_of_int (Tracker.visits t) /. float_of_int updates in
  let bound = work_bound_c *. ((1.0 /. alpha) +. Float.log2 (float_of_int n)) in
  if per_update > bound then
    Alcotest.failf "%s: %.1f visits per update over %d updates, past %.0f" name per_update
      updates bound

let test_tracker_work_bound () =
  let churn = 2_000 in
  let gen ~n_clusters ~clustered_frac ~domain ~cluster_halfwidth ~len_mu ~len_sigma =
    Cq_relation.Workload.gen_clustered_ranges (Rng.create 1) ~n:(10_000 + churn) ~n_clusters
      ~clustered_frac ~domain ~cluster_halfwidth ~len_mu ~len_sigma
  in
  tracker_work ~name:"clustered"
    (gen ~n_clusters:30 ~clustered_frac:0.8 ~domain:(0.0, 10_000.0) ~cluster_halfwidth:80.0
       ~len_mu:400.0 ~len_sigma:150.0);
  tracker_work ~name:"scattered-heavy"
    (gen ~n_clusters:16 ~clustered_frac:0.1 ~domain:(-1500.0, 1500.0) ~cluster_halfwidth:0.02
       ~len_mu:0.02 ~len_sigma:0.005)

let test_refined_groups_in_order () =
  let t = Refined_p.create ~epsilon:1.0 () in
  let es =
    elems_of
      (List.map (fun (a, b) -> I.make a b)
         [ (0.0, 10.0); (2.0, 8.0); (50.0, 60.0); (52.0, 58.0); (90.0, 95.0) ])
  in
  List.iter (Refined_p.insert t) es;
  let stabs = List.map fst (Refined_p.groups_in_order t) in
  (* Old groups come first in invariant-(⋆) order: their stabbing
     points must be sorted among themselves. *)
  let olds = List.filteri (fun i _ -> i < Refined_p.num_groups t - 0) stabs in
  ignore olds;
  Alcotest.(check bool) "some groups" true (List.length stabs >= 1);
  (* All elements accounted for exactly once. *)
  let total =
    List.fold_left (fun acc (_, ms) -> acc + List.length ms) 0 (Refined_p.groups_in_order t)
  in
  Alcotest.(check int) "covers all" 5 total

let test_refined_unbounded_first_group () =
  (* A window [−∞, 0] makes the first old group's boundary −∞; the
     audit must accept that partition. *)
  let t = Refined_p.create ~epsilon:1.0 () in
  let finite = List.init 20 (fun i -> I.of_midpoint ~mid:(float_of_int (10 * i) +. 5.5) ~len:1.0) in
  List.iter (Refined_p.insert t) (elems_of (I.make neg_infinity 0.0 :: finite));
  Alcotest.(check bool) "reconstructed" true (Refined_p.reconstructions t > 0);
  (match Refined_p.groups_in_order t with
  | (_, first) :: _ ->
      Alcotest.(check bool) "first old group holds [-inf, 0]" true
        (List.exists (fun e -> I.lo e.E.iv = neg_infinity) first)
  | [] -> Alcotest.fail "no groups");
  Refined_p.check_invariants t

(* ------------------------------- SSI ---------------------------------- *)

module Count_group = struct
  type elt = E.t
  type t = { stab : float; members : E.t array }

  let build ~stab members = { stab; members }
end

module Ssi_count = Hotspot_core.Ssi.Make (E) (Count_group)

let prop_ssi_covers_all =
  QCheck2.Test.make ~name:"ssi: groups cover all elements, stabbed by points" ~count:200
    QCheck2.Gen.(list_size (int_range 0 200) interval_gen)
    (fun ivs ->
      let elems = Array.of_list (elems_of ivs) in
      let ssi = Ssi_count.build elems in
      let total = ref 0 in
      let ok = ref true in
      Ssi_count.iter ssi (fun ~stab g ->
          total := !total + Array.length g.Count_group.members;
          Array.iter
            (fun e -> if not (I.stabs (E.interval e) stab) then ok := false)
            g.Count_group.members);
      !ok
      && !total = Array.length elems
      && Ssi_count.num_groups ssi = Stabbing.tau E.interval elems
      && Ssi_count.size ssi = Array.length elems)

let prop_ssi_points_sorted =
  QCheck2.Test.make ~name:"ssi: stabbing points strictly increasing" ~count:200
    QCheck2.Gen.(list_size (int_range 0 200) interval_gen)
    (fun ivs ->
      let elems = Array.of_list (elems_of ivs) in
      let pts = Ssi_count.stabbing_points (Ssi_count.build elems) in
      let ok = ref true in
      for i = 1 to Array.length pts - 1 do
        if pts.(i - 1) >= pts.(i) then ok := false
      done;
      !ok)


(* ---------------------------------------------------------------------- *)

let qc = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "hotspot_core"
    [
      ( "stabbing",
        [
          qc prop_canonical_is_valid_partition;
          qc prop_canonical_is_optimal;
          qc prop_canonical_isect_matches_members;
          Alcotest.test_case "known example" `Quick test_canonical_known_example;
          Alcotest.test_case "empty/singleton" `Quick test_canonical_empty_and_singleton;
        ] );
      ( "lazy_partition",
        [
          qc prop_lazy_maintains_bound;
          qc prop_lazy_small_epsilon;
          qc prop_lazy_groups_valid;
          Alcotest.test_case "duplicate rejected" `Quick test_lazy_duplicate_insert_rejected;
        ] );
      ( "refined_partition",
        [
          qc prop_refined_maintains_bound;
          qc prop_refined_epsilon_three;
          qc prop_refined_groups_valid;
          qc prop_refined_reconstruction_is_optimal;
          Alcotest.test_case "delete missing" `Quick test_refined_delete_missing;
          Alcotest.test_case "duplicate rejected" `Quick test_refined_duplicate_insert_rejected;
          Alcotest.test_case "group lookup" `Quick test_refined_group_lookup;
          Alcotest.test_case "groups in order" `Quick test_refined_groups_in_order;
          Alcotest.test_case "unbounded first group audits clean" `Quick
            test_refined_unbounded_first_group;
        ] );
      ( "hotspot_tracker",
        [
          qc prop_tracker_invariants;
          qc prop_tracker_events_mirror_state;
          Alcotest.test_case "promotes cluster" `Quick test_tracker_promotes_cluster;
          Alcotest.test_case "demotes on deletion" `Quick test_tracker_demotes_on_deletion;
          Alcotest.test_case "insert into hotspot" `Quick test_tracker_insert_into_hotspot;
          Alcotest.test_case "isect narrow after delete" `Quick
            test_tracker_isect_narrow_after_delete;
          Alcotest.test_case "alpha validation" `Quick test_tracker_alpha_validation;
          Alcotest.test_case "lookup errors" `Quick test_tracker_lookup_errors;
          Alcotest.test_case "work per update within Theorem 1" `Quick test_tracker_work_bound;
        ] );
      ("ssi", [ qc prop_ssi_covers_all; qc prop_ssi_points_sorted ]);
    ]

(* Model-based tests for the index substrate: B+-tree vs a sorted-list
   model, interval tree vs brute force and a stable (lo, hi) list model, treap split/join algebra,
   R-tree vs brute force, the instrumented stab index vs the bare tree. *)

module I = Cq_interval.Interval
module Bt = Cq_index.Btree
module Flat = Cq_index.Flat_interval_tree
module Rect = Cq_index.Rect
module Rtree = Cq_index.Rtree
module Rng = Cq_util.Rng

(* Keys are (primary, secondary) pairs from a small grid, so equal
   primaries and exact duplicate pairs are common — the hard cases for
   ordered-index seek semantics. *)
let key_gen =
  QCheck2.Gen.(
    pair (map (fun i -> float_of_int i /. 2.0) (int_bound 40)) (map float_of_int (int_bound 2)))

type op = Ins of float * float | Del of float * float

let op_gen =
  QCheck2.Gen.(
    oneof [ map (fun (k, k2) -> Ins (k, k2)) key_gen; map (fun (k, k2) -> Del (k, k2)) key_gen ])

let ops_gen = QCheck2.Gen.(list_size (int_range 0 400) op_gen)
let cmp = Cq_util.Order.float_pair

(* Reference model: a sorted list of (key, key2, value), lexicographic
   on the pair; duplicates kept in insertion order among equals (the
   B-tree appends an equal pair to the right and deletes the leftmost
   match, so values with equal pairs form a FIFO). *)
module Model = struct
  type t = (float * float * int) list

  let key (k, k2, _) = (k, k2)

  let insert (m : t) k k2 v =
    let rec go = function
      | e :: rest when cmp (key e) (k, k2) <= 0 -> e :: go rest
      | rest -> (k, k2, v) :: rest
    in
    go m

  let remove_first (m : t) k k2 pred =
    let rec go = function
      | [] -> None
      | ((_, _, v) as e) :: rest when cmp (key e) (k, k2) = 0 && pred v -> Some rest
      | e :: rest -> Option.map (fun r -> e :: r) (go rest)
    in
    go m

  let ge (m : t) p = List.filter (fun e -> cmp (key e) p >= 0) m
  let lt (m : t) p = List.filter (fun e -> cmp (key e) p < 0) m
  let seek_ge m p = List.nth_opt (ge m p) 0
  let seek_le m p = List.nth_opt (List.rev (List.filter (fun e -> cmp (key e) p <= 0) m)) 0
end

let entry c = (Bt.key c, Bt.key2 c, Bt.value c)

let apply_ops ?(order = 2) ops =
  let t = Bt.create ~order () in
  let model = ref [] in
  let fresh = ref 0 in
  List.iter
    (fun op ->
      match op with
      | Ins (k, k2) ->
          incr fresh;
          Bt.insert t k k2 !fresh;
          model := Model.insert !model k k2 !fresh
      | Del (k, k2) -> (
          let removed = Bt.remove_first t k k2 (fun _ -> true) in
          match Model.remove_first !model k k2 (fun _ -> true) with
          | Some m ->
              if not removed then QCheck2.Test.fail_report "model removed but tree did not";
              model := m
          | None -> if removed then QCheck2.Test.fail_report "tree removed but model did not"))
    ops;
  (t, !model)

let prop_btree_models_sorted_list =
  QCheck2.Test.make ~name:"btree: to_list matches model" ~count:300 ops_gen (fun ops ->
      let t, model = apply_ops ops in
      Bt.check_invariants t;
      Bt.to_list t = model)

let prop_btree_seeks =
  QCheck2.Test.make ~name:"btree: seek_ge/seek_le match model" ~count:200
    QCheck2.Gen.(pair ops_gen (list_size (int_range 1 30) key_gen))
    (fun (ops, probes) ->
      let t, model = apply_ops ops in
      List.for_all
        (fun (k, k2) ->
          (* Among equal pairs seek_ge must be the leftmost and seek_le
             the rightmost, as the model's filters give. *)
          Option.map entry (Bt.seek_ge t k k2) = Model.seek_ge model (k, k2)
          && Option.map entry (Bt.seek_le t k k2) = Model.seek_le model (k, k2))
        probes)

let prop_btree_range =
  QCheck2.Test.make ~name:"btree: iter_range matches model filter" ~count:200
    QCheck2.Gen.(triple ops_gen key_gen key_gen)
    (fun (ops, a, b) ->
      let (lo, lo2), (hi, hi2) = if cmp a b <= 0 then (a, b) else (b, a) in
      let t, model = apply_ops ops in
      let got = ref [] in
      Bt.iter_range t lo lo2 hi hi2 (fun v -> got := v :: !got);
      let inside e = cmp (Model.key e) (lo, lo2) >= 0 && cmp (Model.key e) (hi, hi2) <= 0 in
      List.rev !got = List.filter_map (fun ((_, _, v) as e) -> if inside e then Some v else None) model
      && Bt.count_range t lo lo2 hi hi2 = List.length !got)

let prop_btree_bulk_load =
  QCheck2.Test.make ~name:"btree: of_sorted valid and faithful" ~count:200
    QCheck2.Gen.(list_size (int_range 0 600) key_gen)
    (fun keys ->
      let sorted = List.stable_sort cmp keys in
      let entries = Array.of_list (List.mapi (fun i (k, k2) -> (k, k2, i)) sorted) in
      let t = Bt.of_sorted ~order:3 entries in
      Bt.check_invariants t;
      Bt.to_list t = Array.to_list entries)

let prop_btree_cursor_walk =
  QCheck2.Test.make ~name:"btree: cursor walks forward and back" ~count:200 ops_gen (fun ops ->
      let t, model = apply_ops ops in
      let rec forward acc = function
        | None -> List.rev acc
        | Some c -> forward (entry c :: acc) (Bt.next c)
      in
      let rec backward acc = function
        | None -> acc
        | Some c -> backward (entry c :: acc) (Bt.prev c)
      in
      forward [] (Bt.seek_ge t neg_infinity neg_infinity) = model
      && backward [] (Bt.seek_le t infinity infinity) = model)

(* The finger runs at the smallest order (duplicates straddle many
   leaves) and the default one. *)
let bt_of_ops ~order ops = fst (apply_ops ~order ops)

(* Targets reach past both ends of [key_gen]'s grid, secondaries
   included. *)
let target_gen =
  QCheck2.Gen.(
    pair
      (map (fun i -> float_of_int i /. 2.0) (int_range (-4) 44))
      (oneof [ map float_of_int (int_range (-1) 3); oneofl [ neg_infinity; infinity ] ]))

(* The entry at the finger and the one before it, read from the leaf
   columns: what a STEP 1 reads as its two anchors. *)
let anchors f =
  let i = Bt.finger_index f and j = Bt.finger_back_index f in
  let at = if i < Bt.finger_count f then Some ((Bt.finger_keys f).(i), (Bt.finger_keys2 f).(i)) else None in
  let before =
    if j >= 0 then Some ((Bt.finger_back_keys f).(j), (Bt.finger_back_keys2 f).(j)) else None
  in
  (at, before)

let last l = List.nth_opt (List.rev l) 0

(* After each seek the finger must sit where [seek_ge] lands (the
   first entry [finger_iter_le] visits is that entry), read the keys
   at and before that entry, and walk exactly what [iter_range] walks.
   Targets are replayed rising, then in generated order (which goes
   backwards), on one finger. *)
let prop_btree_finger =
  QCheck2.Test.make ~name:"btree: finger seeks match seek_ge" ~count:300
    QCheck2.Gen.(
      quad (oneofl [ 2; 16 ]) ops_gen
        (list_size (int_range 1 40) target_gen)
        (map float_of_int (int_bound 6)))
    (fun (order, ops, targets, width) ->
      let t, model = apply_ops ~order ops in
      let f = Bt.finger t in
      let check (k, k2) =
        Bt.finger_seek f k k2;
        let walked = ref [] in
        Bt.finger_iter_le f (k +. width) k2 () (fun () v -> walked := v :: !walked);
        let expected = ref [] in
        Bt.iter_range t k k2 (k +. width) k2 (fun v -> expected := v :: !expected);
        let at = ref None in
        Bt.finger_iter_le f infinity infinity () (fun () v -> if !at = None then at := Some v);
        let ge = Bt.seek_ge t k k2 in
        !walked = !expected
        && !at = Option.map Bt.value ge
        && anchors f
           = (Option.map Model.key (Model.seek_ge model (k, k2)), Option.map Model.key (last (Model.lt model (k, k2))))
      in
      let rising = List.for_all check (List.sort cmp targets) in
      Bt.finger_reset f;
      rising && List.for_all check targets)

(* The backward walk from a finger is the tree's listing below the
   same key, cut at [lo], from the largest down.  Targets on the key
   grid land on runs of duplicates (which straddle leaves at order 2),
   targets past the top leave the finger at the end, and an
   all-deleted op list leaves the tree empty; [lo] ranges from below
   every key to above the target. *)
let prop_btree_finger_back =
  QCheck2.Test.make ~name:"btree: finger_iter_back_ge matches the listing below the key" ~count:300
    QCheck2.Gen.(
      quad (oneofl [ 2; 16 ]) ops_gen
        (list_size (int_range 1 40) target_gen)
        (map (fun i -> float_of_int i -. 1.0) (int_bound 8)))
    (fun (order, ops, targets, depth) ->
      let t = bt_of_ops ~order ops in
      let f = Bt.finger t in
      List.for_all
        (fun (k, k2) ->
          Bt.finger_seek f k k2;
          List.for_all
            (fun (lo, lo2) ->
              let walked = ref [] in
              Bt.finger_iter_back_ge f lo lo2 () (fun () v -> walked := v :: !walked);
              let expected =
                List.filter_map
                  (fun (a, a2, v) -> if cmp (a, a2) (lo, lo2) >= 0 && cmp (a, a2) (k, k2) < 0 then Some v else None)
                  (Bt.to_list t)
              in
              !walked = expected)
            [ (k -. depth, k2); (k, neg_infinity); (neg_infinity, neg_infinity) ])
        targets)

(* The one tree against a sorted-list reference, interleaved: inserts
   of exact duplicate pairs, deletes of the first duplicate a predicate
   accepts, and finger seeks, at order 2 so leaves split and merge.
   After each seek the finger's two anchors (the entries at and before
   it, read from the leaf columns), [seek_ge] and both walks must match
   the reference; after each update the finger is reset, as the
   contract requires. *)
type step = Put of float * float | Drop of float * float * bool | Look of (float * float) * (float * float) * (float * float)

let step_gen =
  let small = QCheck2.Gen.(pair (map float_of_int (int_bound 5)) (map float_of_int (int_bound 2))) in
  QCheck2.Gen.(
    frequency
      [
        (4, map (fun (k, k2) -> Put (k, k2)) small);
        (2, map2 (fun (k, k2) odd -> Drop (k, k2, odd)) small bool);
        ( 3,
          map3
            (fun p lo hi -> Look (p, lo, hi))
            target_gen target_gen target_gen );
      ])

let prop_btree_reference =
  QCheck2.Test.make ~name:"btree: one (B, C) tree against a sorted-list reference" ~count:300
    QCheck2.Gen.(list_size (int_range 0 300) step_gen)
    (fun steps ->
      let t = Bt.create ~order:2 () in
      let f = Bt.finger t in
      let model = ref [] and fresh = ref 0 in
      let fail fmt = QCheck2.Test.fail_reportf fmt in
      let step = function
        | Put (k, k2) ->
            incr fresh;
            Bt.insert t k k2 !fresh;
            model := Model.insert !model k k2 !fresh;
            Bt.finger_reset f
        | Drop (k, k2, odd) ->
            let pred v = v land 1 = Bool.to_int odd in
            let removed = Bt.remove_first t k k2 pred in
            (match Model.remove_first !model k k2 pred with
            | Some m ->
                if not removed then fail "(%g, %g): the reference removed, the tree did not" k k2;
                model := m
            | None -> if removed then fail "(%g, %g): the tree removed, the reference did not" k k2);
            Bt.finger_reset f
        | Look (((k, k2) as p), (lo, lo2), (hi, hi2)) ->
            Bt.finger_seek f k k2;
            let ge = Model.ge !model p and lt = Model.lt !model p in
            if anchors f <> (Option.map Model.key (List.nth_opt ge 0), Option.map Model.key (last lt)) then
              fail "(%g, %g): anchors differ" k k2;
            if Option.map entry (Bt.seek_ge t k k2) <> List.nth_opt ge 0 then fail "(%g, %g): seek_ge differs" k k2;
            let fwd = ref [] and back = ref [] in
            Bt.finger_iter_le f hi hi2 () (fun () v -> fwd := v :: !fwd);
            Bt.finger_iter_back_ge f lo lo2 () (fun () v -> back := v :: !back);
            let rec take_while p = function x :: xs when p x -> x :: take_while p xs | _ -> [] in
            let value (_, _, v) = v in
            let want_fwd = List.map value (take_while (fun e -> cmp (Model.key e) (hi, hi2) <= 0) ge) in
            let want_back =
              List.map value (take_while (fun e -> cmp (Model.key e) (lo, lo2) >= 0) (List.rev lt))
            in
            if List.rev !fwd <> want_fwd then fail "(%g, %g): forward walk differs" k k2;
            if List.rev !back <> want_back then fail "(%g, %g): backward walk differs" k k2
      in
      List.iter step steps;
      Bt.check_invariants t;
      Bt.to_list t = !model)

(* The leaf accessors against [seek_ge] and the listing: after each
   seek the key at the finger's slot is the entry [seek_ge] finds (the
   slot is the leaf's count at the end) and the back slot holds the key
   before it (-1 at the start), and from a reset finger the leaves
   chained by [finger_next_leaf] list every key in order.  Orders 2
   and 16, targets past both ends, empty trees included. *)
let prop_btree_leaf_access =
  QCheck2.Test.make ~name:"btree: leaf accessors match seek_ge and the leaf chain" ~count:300
    QCheck2.Gen.(triple (oneofl [ 2; 16 ]) ops_gen (list_size (int_range 1 40) target_gen))
    (fun (order, ops, targets) ->
      let t = bt_of_ops ~order ops in
      let f = Bt.finger t in
      let placed (k, k2) =
        Bt.finger_seek f k k2;
        let ge = Bt.seek_ge t k k2 in
        let before =
          match ge with
          | Some c -> Bt.prev c
          | None -> Bt.seek_le t infinity infinity
        in
        let key c = (Bt.key c, Bt.key2 c) in
        anchors f = (Option.map key ge, Option.map key before)
      in
      let listed = List.map (fun (k, k2, _) -> (k, k2)) (Bt.to_list t) in
      Bt.finger_reset f;
      let leaf () =
        List.init (Bt.finger_count f) (fun i -> ((Bt.finger_keys f).(i), (Bt.finger_keys2 f).(i)))
      in
      let rec chain acc =
        let l = leaf () in
        if Bt.finger_next_leaf f then chain (List.rev_append l acc) else List.rev_append acc l
      in
      chain [] = listed && List.for_all placed targets)

(* A finger put by a descent from the root lands where [finger_seek]
   does, from wherever it was (here: the end of the tree, or stale after
   an insert); the shifted seek, from wherever the last check left its
   finger, lands where the seek to (col.(i) + shift, -∞) does; and a
   copy designates the same entry as its source, keeps it while the
   source moves, and seeks from it as a fresh finger would.  Orders 2
   and 16, targets past both ends. *)
let prop_btree_finger_descend_copy =
  QCheck2.Test.make ~name:"btree: finger_descend, finger_seek_shifted and finger_copy" ~count:300
    QCheck2.Gen.(triple (oneofl [ 2; 16 ]) ops_gen (list_size (int_range 1 40) (pair target_gen target_gen)))
    (fun (order, ops, targets) ->
      let t = bt_of_ops ~order ops in
      let f = Bt.finger t and g = Bt.finger t and h = Bt.finger t in
      let col = [| 0.0; 0.0 |] and shift = [| 0.0 |] in
      (* The keys at and before the finger, and the value at it, so
         two entries with equal keys are told apart. *)
      let anchors f =
        let at = ref None in
        Bt.finger_iter_le f infinity infinity () (fun () v -> if !at = None then at := Some v);
        (anchors f, !at)
      in
      let placed (k, k2) (k', k2') =
        Bt.finger_seek h k k2;
        Bt.finger_seek f infinity infinity;
        Bt.finger_descend f k k2;
        let at_seek = anchors f = anchors h in
        col.(1) <- k -. 3.0;
        shift.(0) <- 3.0;
        Bt.finger_seek h (col.(1) +. shift.(0)) neg_infinity;
        Bt.finger_seek_shifted g col 1 shift;
        let shifted = anchors g = anchors h in
        Bt.finger_descend f k k2;
        Bt.finger_copy g ~from:f;
        let copied = anchors g = anchors f in
        Bt.finger_seek f k' k2';
        Bt.finger_descend h k k2;
        let kept = anchors g = anchors h in
        Bt.finger_seek g k' k2';
        at_seek && shifted && copied && kept && anchors g = anchors f
      in
      let before_insert = List.for_all (fun (a, b) -> placed a b) targets in
      (* A finger left stale by an update. *)
      Bt.finger_seek f 2.0 0.0;
      Bt.insert t 2.0 0.0 (-1);
      let stale =
        List.for_all
          (fun (k, k2) ->
            Bt.finger_descend f k k2;
            snd (anchors f) = Option.map Bt.value (Bt.seek_ge t k k2))
          (List.map fst targets)
      in
      before_insert && stale)

let test_btree_finger_empty () =
  let t = Bt.create ~order:2 () in
  let f = Bt.finger t in
  List.iter
    (fun k ->
      Bt.finger_seek f k 0.0;
      Alcotest.(check int) "at the end" (Bt.finger_count f) (Bt.finger_index f);
      Alcotest.(check int) "nothing before" (-1) (Bt.finger_back_index f);
      Bt.finger_iter_le f infinity infinity () (fun () _ -> Alcotest.fail "visited an entry");
      Bt.finger_iter_back_ge f neg_infinity neg_infinity () (fun () _ -> Alcotest.fail "visited an entry"))
    [ 1.0; neg_infinity; infinity; 0.0 ]

(* The neighbours of a primary key: the rightmost entry with primary
   <= k (secondary +∞) and the leftmost with primary >= k (secondary
   -∞), one entry per primary here, with secondaries 1 and 2 on 5. *)
let test_btree_neighbours () =
  let t = Bt.create ~order:2 () in
  List.iter (fun (k, k2) -> Bt.insert t k k2 (int_of_float (k *. 10.0 +. k2))) [ (1.0, 0.0); (3.0, 0.0); (5.0, 1.0); (5.0, 2.0); (7.0, 0.0) ];
  let neighbours k =
    (Option.map Bt.value (Bt.seek_le t k infinity), Option.map Bt.value (Bt.seek_ge t k neg_infinity))
  in
  let pair = Alcotest.(pair (option int) (option int)) in
  Alcotest.check pair "between" (Some 30, Some 51) (neighbours 4.0);
  Alcotest.check pair "exact: both ends of the run" (Some 52, Some 51) (neighbours 5.0);
  Alcotest.check pair "below min" (None, Some 10) (neighbours 0.0);
  Alcotest.check pair "above max" (Some 70, None) (neighbours 8.0);
  Alcotest.(check (option int)) "inside a run" (Some 52) (Option.map Bt.value (Bt.seek_ge t 5.0 1.5))

let test_btree_find_all_duplicates () =
  let t = Bt.create ~order:2 () in
  for i = 1 to 20 do
    Bt.insert t 5.0 1.0 i;
    Bt.insert t (100.0 +. float_of_int i) 0.0 (-i)
  done;
  let got = ref [] in
  Bt.iter_range t 5.0 1.0 5.0 1.0 (fun v -> got := v :: !got);
  Alcotest.(check (list int)) "duplicates in order" (List.init 20 (fun i -> i + 1)) (List.rev !got);
  Alcotest.(check int) "count_range" 20 (Bt.count_range t 5.0 neg_infinity 5.0 infinity);
  Alcotest.(check int) "other secondary" 0 (Bt.count_range t 5.0 0.0 5.0 0.0)

let test_btree_empty () =
  let t : int Bt.t = Bt.create () in
  Alcotest.(check bool) "is_empty" true (Bt.is_empty t);
  Alcotest.(check bool) "seek on empty" true (Bt.seek_ge t 1.0 0.0 = None);
  Alcotest.(check bool) "remove on empty" false (Bt.remove_first t 1.0 0.0 (fun _ -> true));
  Bt.check_invariants t

(* --------------------------- Interval tree ---------------------------- *)

let interval_gen =
  QCheck2.Gen.(
    map2
      (fun a b -> if a <= b then I.make a b else I.make b a)
      (map float_of_int (int_bound 100))
      (map float_of_int (int_bound 100)))

let of_list ivs =
  let t = Flat.create () in
  List.iteri (fun i iv -> Flat.add t iv i) ivs;
  t

(* The reference for the emission-order contract: live (interval, id)
   entries sorted stably by (lo, hi), so equal keys stay in insertion
   order.  The select processors' delivery order and the lazy
   partition's group choice both rest on the tree reporting in this
   order. *)
let by_key (a, _) (b, _) = I.compare_lo a b
let model_of ivs = List.stable_sort by_key (List.mapi (fun i iv -> (iv, i)) ivs)
let model_add model iv id = List.stable_sort by_key (model @ [ (iv, id) ])

let model_first_overlap model w =
  Option.map snd (List.find_opt (fun (iv, _) -> I.overlaps iv w) model)

let prop_itree_stab_matches_brute =
  QCheck2.Test.make ~name:"interval tree: stab = brute force" ~count:300
    QCheck2.Gen.(pair (list_size (int_range 0 200) interval_gen) (list_size (int_range 1 20) (map float_of_int (int_bound 100))))
    (fun (ivs, probes) ->
      let t = of_list ivs in
      Flat.check_invariants t;
      List.for_all
        (fun x ->
          let got = ref [] in
          Flat.stab t x (fun p -> got := p :: !got);
          let want =
            List.mapi (fun i iv -> (i, iv)) ivs
            |> List.filter (fun (_, iv) -> I.stabs iv x)
            |> List.map fst
          in
          List.sort compare !got = want && Flat.stab_count t x = List.length want)
        probes)

let prop_itree_remove =
  QCheck2.Test.make ~name:"interval tree: add/remove round trip" ~count:300
    QCheck2.Gen.(list_size (int_range 0 150) interval_gen)
    (fun ivs ->
      let t = of_list ivs in
      (* Remove every other element; survivors must be exactly the rest. *)
      List.iteri
        (fun i iv ->
          if i mod 2 = 0 && not (Flat.remove t iv (fun p -> p = i)) then
            QCheck2.Test.fail_report "expected removal to succeed")
        ivs;
      Flat.check_invariants t;
      let survivors = List.sort compare (List.map (fun (_, _, p) -> p) (Flat.to_list t)) in
      survivors = List.filter (fun i -> i mod 2 = 1) (List.mapi (fun i _ -> i) ivs))

let prop_itree_query_overlaps =
  QCheck2.Test.make ~name:"interval tree: window query = first overlap in the list model" ~count:200
    QCheck2.Gen.(pair (list_size (int_range 0 150) interval_gen) interval_gen)
    (fun (ivs, w) -> Flat.first_overlap (of_list ivs) w = model_first_overlap (model_of ivs) w)

let test_itree_remove_missing () =
  let t = of_list [ I.make 0.0 1.0 ] in
  Alcotest.(check bool) "absent interval" false (Flat.remove t (I.make 5.0 6.0) (fun _ -> true));
  Alcotest.(check bool) "wrong payload" false (Flat.remove t (I.make 0.0 1.0) (fun p -> p = 9));
  Alcotest.(check bool) "empty window" true (Flat.first_overlap t I.empty = None)

let test_itree_mutable_facade () =
  let m = Flat.create () in
  Flat.add m (I.make 0.0 10.0) "a";
  Flat.add m (I.make 5.0 15.0) "b";
  Alcotest.(check int) "stab count" 2 (Flat.stab_count m 7.0);
  Alcotest.(check bool) "remove" true (Flat.remove m (I.make 0.0 10.0) (fun _ -> true));
  Alcotest.(check int) "size after" 1 (Flat.size m)

(* ------------------------------- Treap -------------------------------- *)

module TE = struct
  type t = { iv : I.t; id : int }

  let compare a b =
    let c = Float.compare (I.lo a.iv) (I.lo b.iv) in
    if c <> 0 then c
    else
      let c = Float.compare (I.hi a.iv) (I.hi b.iv) in
      if c <> 0 then c else Int.compare a.id b.id

  let interval e = e.iv
end

module T = Cq_index.Treap.Make (TE)

let treap_elems_gen =
  QCheck2.Gen.(list_size (int_range 0 200) interval_gen)

let build_treap ivs =
  let rng = Rng.create 99 in
  T.of_list rng (List.mapi (fun i iv -> { TE.iv; id = i }) ivs)

let prop_treap_sorted =
  QCheck2.Test.make ~name:"treap: to_list sorted, isect exact" ~count:300 treap_elems_gen
    (fun ivs ->
      let t = build_treap ivs in
      T.check_invariants t;
      let l = T.to_list t in
      let sorted = List.sort TE.compare l in
      let want_isect =
        List.fold_left (fun acc e -> I.inter acc (TE.interval e)) (I.make neg_infinity infinity) l
      in
      l = sorted && List.length l = List.length ivs && I.equal (T.isect t) want_isect)

let prop_treap_split_join =
  QCheck2.Test.make ~name:"treap: split_lo_le then join is identity" ~count:300
    QCheck2.Gen.(pair treap_elems_gen (map float_of_int (int_bound 100)))
    (fun (ivs, x) ->
      let t = build_treap ivs in
      let l, r = T.split_lo_le x t in
      T.check_invariants l;
      T.check_invariants r;
      let ok_l = List.for_all (fun e -> I.lo (TE.interval e) <= x) (T.to_list l) in
      let ok_r = List.for_all (fun e -> I.lo (TE.interval e) > x) (T.to_list r) in
      let j = T.join l r in
      T.check_invariants j;
      ok_l && ok_r && T.to_list j = T.to_list t)

let prop_treap_remove =
  QCheck2.Test.make ~name:"treap: remove each element once" ~count:200 treap_elems_gen
    (fun ivs ->
      let elems = List.mapi (fun i iv -> { TE.iv; id = i }) ivs in
      let t = build_treap ivs in
      let t =
        List.fold_left
          (fun acc e ->
            match T.remove e acc with
            | Some acc' -> acc'
            | None -> QCheck2.Test.fail_report "element should be present")
          t
          (List.filteri (fun i _ -> i mod 3 = 0) elems)
      in
      T.check_invariants t;
      T.size t = List.length (List.filteri (fun i _ -> i mod 3 <> 0) elems))

(* ------------------------------- R-tree ------------------------------- *)

let rect_gen =
  QCheck2.Gen.(
    map2 (fun x y -> Rect.make ~x ~y)
      (map2 (fun a b -> if a <= b then I.make a b else I.make b a)
         (map float_of_int (int_bound 50))
         (map float_of_int (int_bound 50)))
      (map2 (fun a b -> if a <= b then I.make a b else I.make b a)
         (map float_of_int (int_bound 50))
         (map float_of_int (int_bound 50))))

let prop_rtree_stab =
  QCheck2.Test.make ~name:"rtree: point stab = brute force" ~count:200
    QCheck2.Gen.(pair (list_size (int_range 0 150) rect_gen)
                    (list_size (int_range 1 15) (pair (map float_of_int (int_bound 50)) (map float_of_int (int_bound 50)))))
    (fun (rects, probes) ->
      let t = Rtree.create ~max_entries:4 () in
      List.iteri (fun i r -> Rtree.insert t r i) rects;
      Rtree.check_invariants t;
      List.for_all
        (fun (x, y) ->
          let got = ref [] in
          Rtree.stab t ~x ~y (fun p -> got := p :: !got);
          let want =
            List.filteri (fun _ _ -> true) (List.mapi (fun i r -> (i, r)) rects)
            |> List.filter (fun (_, r) -> Rect.contains_point r ~x ~y)
            |> List.map fst
          in
          List.sort compare !got = List.sort compare want)
        probes)

let prop_rtree_search =
  QCheck2.Test.make ~name:"rtree: window search = brute force" ~count:200
    QCheck2.Gen.(pair (list_size (int_range 0 150) rect_gen) rect_gen)
    (fun (rects, w) ->
      let t = Rtree.create ~max_entries:5 () in
      List.iteri (fun i r -> Rtree.insert t r i) rects;
      let got = ref [] in
      Rtree.search t w (fun p -> got := p :: !got);
      let want = List.mapi (fun i r -> (i, r)) rects
                 |> List.filter (fun (_, r) -> Rect.intersects r w)
                 |> List.map fst in
      List.sort compare !got = List.sort compare want)

let prop_rtree_delete =
  QCheck2.Test.make ~name:"rtree: delete half, survivors intact" ~count:150
    QCheck2.Gen.(list_size (int_range 0 120) rect_gen)
    (fun rects ->
      let t = Rtree.create ~max_entries:4 () in
      List.iteri (fun i r -> Rtree.insert t r i) rects;
      List.iteri
        (fun i r ->
          if i mod 2 = 0 then
            if not (Rtree.remove t r (fun p -> p = i)) then
              QCheck2.Test.fail_report "expected delete to succeed")
        rects;
      Rtree.check_invariants t;
      let got = ref [] in
      Rtree.iter t (fun _ p -> got := p :: !got);
      let want = List.mapi (fun i _ -> i) rects |> List.filter (fun i -> i mod 2 = 1) in
      List.sort compare !got = List.sort compare want)

(* Grid intervals on [0, 10], some zero-width and some unbounded on one
   side, so rectangles share edges and stabs land on them. *)
let grid_iv_gen =
  QCheck2.Gen.(
    map3
      (fun a b shape ->
        let lo = Float.min a b and hi = Float.max a b in
        match shape with
        | 0 -> I.make neg_infinity hi
        | 1 -> I.make lo infinity
        | 2 -> I.make lo lo
        | _ -> I.make lo hi)
      (map float_of_int (int_bound 10))
      (map float_of_int (int_bound 10))
      (int_bound 7))

type rtree_op = Ins of Rect.t | Del of int | Stab of float * float

let rtree_op_gen =
  let coord = QCheck2.Gen.(map (fun k -> float_of_int k /. 2.0) (int_bound 22)) in
  QCheck2.Gen.(
    frequency
      [
        (5, map2 (fun x y -> Ins (Rect.make ~x ~y)) grid_iv_gen grid_iv_gen);
        (3, map (fun k -> Del k) nat);
        (3, map2 (fun x y -> Stab (x, y)) coord coord);
      ])

(* Inserts, removes and stabs interleaved: the invariants (each stored
   MBR exact, occupancy, depth) hold after every remove, and every stab
   reports exactly the live entries containing the point. *)
let prop_rtree_interleaved m =
  QCheck2.Test.make
    ~name:(Printf.sprintf "rtree: interleaved insert/remove/stab (M = %d)" m)
    ~count:200
    QCheck2.Gen.(list_size (int_range 0 300) rtree_op_gen)
    (fun ops ->
      let t = Rtree.create ~max_entries:m () in
      let live = ref [] and next = ref 0 in
      List.iter
        (function
          | Ins r ->
              Rtree.insert t r !next;
              live := !live @ [ (!next, r) ];
              incr next
          | Del k ->
              (match !live with
              | [] ->
                  if Rtree.remove t (Rect.make ~x:(I.make 0. 1.) ~y:(I.make 0. 1.)) (fun _ -> true)
                  then QCheck2.Test.fail_report "remove from an empty tree succeeded"
              | l ->
                  let id, r = List.nth l (k mod List.length l) in
                  if not (Rtree.remove t r (fun p -> p = id)) then
                    QCheck2.Test.fail_reportf "remove of live entry %d failed" id;
                  live := List.filter (fun (id', _) -> id' <> id) l);
              Rtree.check_invariants t;
              if Rtree.size t <> List.length !live then
                QCheck2.Test.fail_report "size disagrees with the model"
          | Stab (x, y) ->
              let got = ref [] in
              Rtree.stab t ~x ~y (fun p -> got := p :: !got);
              let want =
                List.filter_map
                  (fun (id, r) -> if Rect.contains_point r ~x ~y then Some id else None)
                  !live
              in
              if List.sort compare !got <> want then
                QCheck2.Test.fail_reportf "stab (%g, %g): %d hits, %d expected" x y
                  (List.length !got) (List.length want))
        ops;
      true)

let test_rtree_empty_rect_rejected () =
  let t = Rtree.create () in
  Alcotest.check_raises "empty rect" (Invalid_argument "Rtree.insert: empty rectangle")
    (fun () -> Rtree.insert t Rect.empty 0)


let test_btree_validation () =
  Alcotest.check_raises "order < 2" (Invalid_argument "Btree.create: order must be >= 2")
    (fun () -> ignore (Bt.create ~order:1 () : int Bt.t));
  Alcotest.check_raises "unsorted bulk load"
    (Invalid_argument "Btree.of_sorted: input not sorted") (fun () ->
      ignore (Bt.of_sorted [| (2.0, 0.0, 0); (1.0, 0.0, 1) |]));
  Alcotest.check_raises "unsorted secondaries"
    (Invalid_argument "Btree.of_sorted: input not sorted") (fun () ->
      ignore (Bt.of_sorted [| (1.0, 1.0, 0); (1.0, 0.0, 1) |]));
  (* Bulk loads at many sizes keep the invariants. *)
  List.iter
    (fun n ->
      let t = Bt.of_sorted ~order:4 (Array.init n (fun i -> (float_of_int (i / 3), float_of_int i, i))) in
      Bt.check_invariants t;
      Alcotest.(check int) "size" n (Bt.length t))
    [ 0; 1; 3; 7; 8; 9; 63; 64; 65; 1000 ]

let test_treap_extras () =
  let rng = Rng.create 5 in
  let mk lo hi id = { TE.iv = I.make lo hi; id } in
  let t = T.of_list rng [ mk 0.0 5.0 0; mk 1.0 4.0 1; mk 2.0 9.0 2 ] in
  Alcotest.(check bool) "mem present" true (T.mem (mk 1.0 4.0 1) t);
  Alcotest.(check bool) "mem absent" false (T.mem (mk 1.0 4.0 9) t);
  (match T.min_elt t with
  | Some e -> Alcotest.(check int) "min by lo" 0 e.TE.id
  | None -> Alcotest.fail "nonempty treap");
  Alcotest.(check int) "fold counts" 3 (T.fold (fun acc _ -> acc + 1) 0 t);
  Alcotest.(check bool) "isect" true
    (I.equal (I.make 2.0 4.0) (T.isect t));
  Alcotest.(check bool) "empty isect is full line" true
    (I.stabs (T.isect T.empty) 1e18)

(* ------------------- flat interval tree / stab_batch ------------------ *)

(* The flat tree against the list model under churn: stab emission
   order is compared unsorted, and the overlap lookup must pick the
   model's first overlapping entry. *)
let prop_flat_matches_list_model_under_churn =
  QCheck2.Test.make ~name:"flat itree: agrees with a stable (lo, hi) list model under churn"
    ~count:200
    QCheck2.Gen.(
      list_size (int_range 1 200) (pair (frequencyl [ (3, true); (2, false) ]) interval_gen))
    (fun ops ->
      let ft : int Flat.t = Flat.create () in
      let model = ref [] in
      let live = ref [] in
      let next = ref 0 in
      List.iter
        (fun (is_add, iv) ->
          if is_add then begin
            let id = !next in
            incr next;
            Flat.add ft iv id;
            model := model_add !model iv id;
            live := (iv, id) :: !live
          end
          else
            match !live with
            | [] -> ()
            | (iv, id) :: rest ->
                if not (Flat.remove ft iv (fun p -> p = id)) then
                  QCheck2.Test.fail_report "flat tree remove failed";
                model := List.filter (fun (_, p) -> p <> id) !model;
                live := rest)
        ops;
      Flat.check_invariants ft;
      let ok = ref true in
      for x = 0 to 100 do
        let xf = float_of_int x in
        let got = ref [] in
        Flat.stab ft xf (fun p -> got := p :: !got);
        let want = List.filter_map (fun (iv, p) -> if I.stabs iv xf then Some p else None) !model in
        if List.rev !got <> want then ok := false;
        let w = I.make xf (xf +. 3.0) in
        if Flat.first_overlap ft w <> model_first_overlap !model w then ok := false
      done;
      !ok && Flat.size ft = List.length !model)

(* The flat tree's batched descent must agree with a loop of scalar
   stabs, key by key, in the exact per-key order. *)
let prop_stab_batch_matches_stab_loop =
  QCheck2.Test.make ~name:"stab_batch = per-key stab loop (flat tree)" ~count:150
    QCheck2.Gen.(
      pair (list_size (int_range 0 60) interval_gen)
        (list_size (int_range 0 20) (float_bound_inclusive 100.0)))
    (fun (ivs, key_list) ->
      let keys = Array.of_list key_list in
      let t = Flat.create () in
      List.iteri (fun i iv -> Flat.add t iv i) ivs;
      let per_idx = Array.make (Array.length keys) [] in
      Flat.stab_batch t ~keys ~f:(fun ~idx p -> per_idx.(idx) <- p :: per_idx.(idx));
      let ok = ref true in
      Array.iteri
        (fun i key ->
          let want = ref [] in
          Flat.stab t key (fun p -> want := p :: !want);
          if per_idx.(i) <> !want then ok := false)
        keys;
      !ok)

(* ---------------------------- Sweep store ----------------------------- *)

module Store = Cq_index.Sweep_store

(* Windows on a coarse grid, so duplicate, nested and zero-width
   windows are common; one in eight is unbounded on one side. *)
let window_gen =
  QCheck2.Gen.(
    frequency
      [
        ( 6,
          map2
            (fun a w -> I.make (float_of_int a) (float_of_int (a + w)))
            (int_bound 30)
            (frequencyl [ (1, 0); (3, 1); (3, 3); (1, 12) ]) );
        (1, map (fun a -> I.make neg_infinity (float_of_int a)) (int_bound 30));
        (1, map (fun a -> I.make (float_of_int a) infinity) (int_bound 30));
      ])

type store_op = Add of I.t | Remove_nth of int | Remove_absent of I.t

(* Adds outweigh removes, so runs grow past several 64-window chunks;
   long runs of removes then drain chunks under 16 and merge them. *)
let store_ops_gen =
  QCheck2.Gen.(
    list_size (int_range 0 600)
      (frequency
         [
           (5, map (fun iv -> Add iv) window_gen);
           (3, map (fun k -> Remove_nth k) (int_bound 1000));
           (1, map (fun iv -> Remove_absent iv) window_gen);
         ]))

(* The model: (interval, id) sorted stably by (lo, hi); an add goes
   after its equal keys and a remove takes the first match. *)
let store_key (iv, _) = (I.lo iv, I.hi iv)

let store_model_add model iv id =
  let before (iv', _) = Cq_util.Order.float_pair (store_key (iv', ())) (store_key (iv, ())) <= 0 in
  let rec go = function e :: rest when before e -> e :: go rest | rest -> (iv, id) :: rest in
  go model

let prop_store_models_sorted_list =
  QCheck2.Test.make ~name:"sweep store: add/remove match a sorted-list model" ~count:200
    store_ops_gen (fun ops ->
      let t = Store.create () and flat = Flat.create () in
      let model = ref [] and ok = ref true in
      List.iteri
        (fun id op ->
          (match op with
          | Add iv ->
              Store.add t iv id;
              Flat.add flat iv id;
              model := store_model_add !model iv id
          | Remove_nth k -> (
              match List.nth_opt !model (if !model = [] then 0 else k mod List.length !model) with
              | None -> if Store.remove t (I.make 0.0 0.0) (fun _ -> true) then ok := false
              | Some (iv, victim) ->
                  if not (Store.remove t iv (fun p -> p = victim)) then ok := false;
                  ignore (Flat.remove flat iv (fun p -> p = victim));
                  model := List.filter (fun (_, p) -> p <> victim) !model)
          | Remove_absent iv -> if Store.remove t iv (fun p -> p < 0) then ok := false);
          Store.check_invariants t;
          let listed = Store.to_list t in
          if
            List.map (fun (lo, hi, p) -> (I.make lo hi, p)) listed <> !model
            || Store.size t <> List.length !model
          then ok := false)
        ops;
      (* Same adds and removes, same order as the flat interval tree. *)
      let in_order iter x =
        let acc = ref [] in
        iter x (fun p -> acc := p :: !acc);
        List.rev !acc
      in
      !ok && in_order Store.iter t = in_order Flat.iter flat)

(* Chunk boundaries, driven to each case: ascending adds fill a chunk
   to 64 and split it on the 65th, leaving [0..31] and [32..86] after
   87 adds.  Draining the first chunk under 16 evens the pair out
   (15 + 55 > 64); draining the second merges it back into the first
   (32 + 15 <= 64); draining everything empties the store.  Every step
   is checked against the listing the adds and removes imply. *)
let test_store_chunk_boundaries () =
  let window i = I.make (float_of_int i) (float_of_int i +. 0.5) in
  let check what t live =
    Store.check_invariants t;
    Alcotest.(check (list int)) what live (List.map (fun (_, _, p) -> p) (Store.to_list t))
  in
  let fill n =
    let t = Store.create () in
    for i = 0 to n - 1 do
      Store.add t (window i) i
    done;
    t
  in
  let drop t live ids =
    List.iter
      (fun i -> Alcotest.(check bool) "removed" true (Store.remove t (window i) (Int.equal i)))
      ids;
    List.filter (fun i -> not (List.mem i ids)) live
  in
  let t = fill 64 in
  check "one full chunk" t (List.init 64 Fun.id);
  Store.add t (window 64) 64;
  check "split on the 65th" t (List.init 65 Fun.id);
  let all = List.init 87 Fun.id in
  let t = fill 87 in
  let live = drop t all (List.init 17 Fun.id) in
  check "first chunk drained under 16: evened out" t live;
  let t = fill 87 in
  let live = drop t all (List.init 40 (fun i -> 86 - i)) in
  check "second chunk drained under 16: merged" t live;
  let live = drop t live live in
  check "drained" t live;
  Alcotest.(check int) "empty" 0 (Store.size t);
  Alcotest.(check bool) "remove from empty" false (Store.remove t (window 0) (fun _ -> true));
  (* Infinite ends sort to the two ends of the listing. *)
  Store.add t (I.make 1.0 infinity) 1;
  Store.add t (I.make neg_infinity 5.0) 0;
  Store.add t (I.make 1.0 2.0) 2;
  check "infinite ends" t [ 0; 2; 1 ]

(* The sweep driven the way a band event drives it: a cursor over a
   sorted key array cut into leaves of [leaf] keys, moved by [hop] and
   a linear [descend].  Returns the hit payloads in order and the
   number of leaf moves; every hit also checks that the finger (moved
   by a load or by [sync]) is on the first key at or above its shifted
   lo. *)
let sweep_keys ?(leaf = 1) t keys shift =
  let n = Array.length keys in
  let start = ref 0 and moves = ref 0 and synced = ref (-1) in
  let load (c : Store.cursor) from idx =
    start := from;
    c.keys <- Array.sub keys from (Int.min leaf (n - from));
    c.nkeys <- Array.length c.keys;
    c.idx <- idx;
    c.synced <- idx;
    synced := from + idx
  in
  let first_ge x =
    let i = ref 0 in
    while !i < n && keys.(!i) < x do
      incr i
    done;
    !i
  in
  let hop c =
    incr moves;
    !start + leaf < n
    && begin
         load c (!start + leaf) 0;
         true
       end
  in
  let descend (c : Store.cursor) lo i =
    incr moves;
    let j = first_ge (lo.(i) +. c.shift.(0)) in
    if j < n then load c (j / leaf * leaf) (j mod leaf)
    else
      let last = (n - 1) / leaf * leaf in
      load c last (n - last)
  in
  let c = Store.cursor ~hop ~descend ~sync:(fun c -> synced := !start + c.idx) in
  c.shift.(0) <- shift;
  if n > 0 then load c 0 0;
  let hits = ref [] and placed = ref true in
  Store.sweep t c (fun ((lo, _, _) as p) ->
      if !synced <> first_ge (lo +. shift) then placed := false;
      hits := p :: !hits);
  (List.rev !hits, !moves, !placed)

let reference_sweep t keys shift =
  List.filter_map
    (fun (lo, hi, p) ->
      if Array.exists (fun k -> lo +. shift <= k && k <= hi +. shift) keys then Some p else None)
    (Store.to_list t)

let prop_store_sweep_matches_filter =
  QCheck2.Test.make ~name:"sweep store: sweep = in-order windows holding a shifted key" ~count:300
    QCheck2.Gen.(
      quad
        (list_size (int_range 0 300) window_gen)
        (list_size (int_range 0 12) (int_range (-5) 40))
        (int_range (-10) 10) (int_range 1 4))
    (fun (ivs, key_list, shift, leaf) ->
      let keys = Array.of_list (List.sort Float.compare (List.map float_of_int key_list)) in
      let shift = float_of_int shift in
      let t = Store.create () in
      List.iteri (fun i iv -> Store.add t iv (I.lo iv, I.hi iv, i)) ivs;
      let got, _, placed = sweep_keys ~leaf t keys shift in
      got = reference_sweep t keys shift && placed)

(* Edge cases, one key per leaf so every move past a key is a hop or a
   descent: a cursor that starts at or beyond every target never
   moves; a target past a leaf's last key hops when the next leaf
   reaches it and descends when not; a cursor past the last key ends
   the sweep, even before a window that never ends.  Block pruning is
   invisible here (a pruned window's target is never past the cursor);
   the property above checks that it drops no hit. *)
let test_store_sweep_pruned_cases () =
  let t = Store.create () in
  List.iter
    (fun (lo, hi) -> Store.add t (I.make lo hi) (lo, hi, 0))
    [ (0., 10.); (2., 3.); (2., 3.); (4., 4.); (5., 30.); (8., 9.); (20., 25.); (22., infinity) ];
  let check name keys shift ~moves ~hits =
    let got, n, placed = sweep_keys t keys shift in
    Alcotest.(check int) (name ^ ": moves") moves n;
    Alcotest.(check int) (name ^ ": hits") hits (List.length got);
    Alcotest.(check bool) (name ^ ": finger placed") true placed
  in
  check "keys beyond every finite window" [| 100.; 200. |] 0.0 ~moves:0 ~hits:1;
  check "keys beyond after the shift" [| 10.; 20. |] (-50.0) ~moves:0 ~hits:1;
  (* The first window hops to -40, which is still short, then
     descends past the end. *)
  check "keys before every window" [| -50.; -40. |] 0.0 ~moves:2 ~hits:0;
  check "no keys" [||] 3.0 ~moves:0 ~hits:0;
  (* [0,10] and both [2,3] hold 2.5 from the start; [4,4] finds no
     next leaf, which ends the sweep before [22, inf]. *)
  check "one key, three windows" [| 2.5 |] 0.0 ~moves:1 ~hits:3;
  (* Keys 1, 2, 3, 9: [2,3] hops from 1 to 2; [4,4] hops to 3, still
     short, descends to 9 and misses; [5,30] and [8,9] hold 9; [20,25]
     finds no next leaf. *)
  check "hop, then descend" [| 1.; 2.; 3.; 9. |] 0.0 ~moves:4 ~hits:5;
  let got, n, _ = sweep_keys (Store.create ()) [| 1. |] 0.0 in
  Alcotest.(check int) "empty store: no move" 0 n;
  Alcotest.(check int) "empty store: no hit" 0 (List.length got);
  (* 200 windows [10i, 10i + 1] against one key at 1005.5, between
     two of them: the windows below it never move the cursor, the
     first above it runs past the end, and nothing hits. *)
  let wide = Store.create () in
  for i = 0 to 199 do
    let lo = 10.0 *. float_of_int i in
    Store.add wide (I.make lo (lo +. 1.0)) (lo, lo +. 1.0, i)
  done;
  let got, n, _ = sweep_keys wide [| 1005.5 |] 0.0 in
  Alcotest.(check int) "key between windows: moves" 1 n;
  Alcotest.(check int) "key between windows: hits" 0 (List.length got)

(* The block exit and the sweep's end, two keys per leaf so a move is
   either within a leaf (no count, a later hit must [sync]) or a hop or
   descent.  Each case lists the exact hits, as windows. *)
let test_store_sweep_block_exit () =
  let check name ?(shift = 0.0) windows keys ~moves ~hits =
    let t = Store.create () in
    List.iteri (fun i (lo, hi) -> Store.add t (I.make lo hi) (lo, hi, i)) windows;
    let got, n, placed = sweep_keys ~leaf:2 t keys shift in
    Alcotest.(check int) (name ^ ": moves") moves n;
    Alcotest.(check (list (pair (float 0.0) (float 0.0))))
      (name ^ ": hits") hits
      (List.map (fun (lo, hi, _) -> (lo, hi)) got);
    Alcotest.(check bool) (name ^ ": finger placed") true placed
  in
  (* [2,3] hops from key 0 to the leaf [10, 11], past the first block's
     max hi 8, so the block ends; [9,10] in the next block holds the
     same key 10, and [10.5,12] moves within the leaf to 11. *)
  let first_block = [ (2., 3.); (2.5, 3.5); (3., 4.); (4., 5.); (5., 6.); (6., 7.); (7., 8.); (7.5, 8.) ] in
  check "advance past the block's max hi" (first_block @ [ (9., 10.); (10.5, 12.) ])
    [| 0.; 1.; 10.; 11. |] ~moves:1
    ~hits:[ (9., 10.); (10.5, 12.) ];
  (* Shifted by 1, [1,2] hops to key 5, which equals the block's max hi
     4 + 1: the block goes on, and [1.5,4] holds 5. *)
  check "advance onto the block's max hi" ~shift:1.0
    [ (1., 2.); (1.5, 4.); (3., 3.5) ]
    [| 0.; 1.; 5.; 6. |] ~moves:1
    ~hits:[ (1.5, 4.) ];
  (* The hop lands on 4, inside the block: [2.5,5] and [4,4.5] hold it,
     and [4.5,6] moves within the leaf to 6. *)
  check "advance inside the block"
    [ (2., 3.); (2.5, 5.); (4., 4.5); (4.5, 6.) ]
    [| 0.; 1.; 4.; 6. |] ~moves:1
    ~hits:[ (2.5, 5.); (4., 4.5); (4.5, 6.) ];
  (* [4,4.5], the fifth of 20 windows in one chunk, finds no next leaf:
     the sweep ends there, before [12.25, inf]. *)
  check "failed hop in mid-chunk"
    ((12.25, infinity) :: List.init 20 (fun i -> (float_of_int i, float_of_int i +. 0.5)))
    [| 0.; 1.; 2.; 3. |] ~moves:2
    ~hits:[ (0., 0.5); (1., 1.5); (2., 2.5); (3., 3.5) ]

(* The sweep allocates nothing: 10k windows [i/10, i/10 + 0.05] against
   S.B keys 0..999 through [Table.cursor_on], where every move stays in
   the leaf or hops to the next one, and then, through a cursor that
   counts [Table.cursor_on]'s descents, ten windows 100 keys apart,
   each reached by a descent from the root. *)
let test_store_sweep_allocates_nothing () =
  let tree = Bt.create () in
  for k = 0 to 999 do
    Bt.insert tree (float_of_int k) 0.0 k
  done;
  let t = Store.create () in
  for i = 0 to 9_999 do
    let lo = float_of_int i /. 10.0 in
    Store.add t (I.make lo (lo +. 0.05)) i
  done;
  let finger = Bt.finger tree in
  let c = Cq_relation.Table.cursor_on finger in
  let hits = ref 0 in
  let hit _ = incr hits in
  let sweep () =
    Bt.finger_reset finger;
    Cq_relation.Table.load_cursor c finger;
    Store.sweep t c hit
  in
  sweep ();
  let w0 = Gc.minor_words () in
  sweep ();
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "hits" 2_000 !hits;
  Alcotest.(check (float 0.0)) "minor words" 0.0 words;
  let far = Store.create () in
  for j = 0 to 9 do
    Store.add far (I.make (100.0 *. float_of_int j) ((100.0 *. float_of_int j) +. 0.05)) j
  done;
  let descents = ref 0 in
  let counted =
    Store.cursor ~hop:c.hop ~sync:c.sync ~descend:(fun cur lo i ->
        incr descents;
        c.descend cur lo i)
  in
  let sweep_far () =
    Bt.finger_reset finger;
    Cq_relation.Table.load_cursor counted finger;
    Store.sweep far counted hit
  in
  sweep_far ();
  hits := 0;
  descents := 0;
  let w0 = Gc.minor_words () in
  sweep_far ();
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "far hits" 10 !hits;
  Alcotest.(check bool) "far windows descend" true (!descents >= 5);
  Alcotest.(check (float 0.0)) "minor words with descents" 0.0 words

(* The cursor on S.B itself ([Table.cursor_on]): B-trees of order 2
   (many leaves, duplicates straddling them) and 16 built by inserts
   and deletes, windows whose shifted lo ends jump over many leaves or
   stay in one, keys on and off the window grid, an emptied tree and
   targets past the last key.  The sweep must report what the model
   reports, in order, and on every hit the finger must sit on the
   first entry at or above the window's shifted lo. *)
let prop_store_sweep_on_btree =
  QCheck2.Test.make ~name:"sweep store: cursor sweep over B-tree leaves = the model" ~count:300
    QCheck2.Gen.(
      quad (oneofl [ 2; 16 ])
        (list_size (int_range 0 200) window_gen)
        ops_gen (int_range (-10) 10))
    (fun (order, ivs, ops, shift) ->
      let tree = bt_of_ops ~order ops in
      let keys = Array.of_list (List.map (fun (k, _, _) -> k) (Bt.to_list tree)) in
      let shift = float_of_int shift in
      let t = Store.create () in
      List.iteri (fun i iv -> Store.add t iv (I.lo iv, I.hi iv, i)) ivs;
      let finger = Bt.finger tree in
      let c = Cq_relation.Table.cursor_on finger in
      Bt.finger_reset finger;
      c.shift.(0) <- shift;
      Cq_relation.Table.load_cursor c finger;
      let got = ref [] and placed = ref true in
      Store.sweep t c (fun ((lo, _, _) as p) ->
          let at = ref None in
          Bt.finger_iter_le finger infinity infinity () (fun () v -> if !at = None then at := Some v);
          if !at <> Option.map Bt.value (Bt.seek_ge tree (lo +. shift) neg_infinity) then placed := false;
          got := p :: !got);
      List.rev !got = reference_sweep t keys shift && !placed)

(* The anchored walk against its contract on the store's own listing:
   the longest prefix with lo <= a1, then the later windows with
   hi >= a2.  Anchors fall on the window grid (equal keys), between
   it, at both infinities and at NaN, together and apart; up to 300
   windows cross block and chunk boundaries. *)
let anchor_gen =
  QCheck2.Gen.(
    frequency
      [
        (6, map (fun i -> float_of_int i /. 2.0) (int_range (-4) 90));
        (1, oneofl [ neg_infinity; infinity; nan ]);
      ])

let prop_store_walk_anchored =
  QCheck2.Test.make ~name:"sweep store: anchored walk = the prefix, then the reaching tail"
    ~count:300
    QCheck2.Gen.(triple (list_size (int_range 0 300) window_gen) anchor_gen anchor_gen)
    (fun (ivs, a1, a2) ->
      let t = Store.create () in
      List.iteri (fun i iv -> Store.add t iv i) ivs;
      let walked = ref [] in
      Store.walk_anchored t [| a1; a2 |] (fun p -> walked := p :: !walked);
      let rec prefix = function
        | (lo, _, p) :: rest when lo <= a1 -> p :: prefix rest
        | rest -> List.filter_map (fun (_, hi, p) -> if hi >= a2 then Some p else None) rest
      in
      List.rev !walked = prefix (Store.to_list t))

(* A stale block maximum would let the sweep skip windows that reach a
   key: [check_invariants] must see it. *)
let test_store_corruption_caught () =
  let t = Store.create () in
  for i = 0 to 99 do
    Store.add t (I.make (float_of_int i) (float_of_int (i + 5))) i
  done;
  Store.check_invariants t;
  Alcotest.(check bool) "corrupted" true (Store.Testing.lower_block_max t);
  Alcotest.(check bool)
    "stale block max caught" true
    (match Store.check_invariants t with
    | () -> false
    | exception Cq_util.Error.Cq_error _ -> true);
  Alcotest.(check bool) "empty store: nothing to corrupt" false
    (Store.Testing.lower_block_max (Store.create ()))

(* ------------------------ Instrumented stab index --------------------- *)

module ITI = Cq_index.Stab_backend.Instrumented_interval_tree
module M = Cq_obs.Metrics

let with_metrics on f =
  let was = M.enabled () in
  M.set_enabled on;
  Fun.protect ~finally:(fun () -> M.set_enabled was) f

(* With metrics on, the instrumented tree must report exactly what the
   bare flat tree reports, in the same order, under add/remove churn. *)
let prop_instrumented_matches_flat =
  QCheck2.Test.make ~name:"instrumented = flat tree" ~count:100
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 120) (pair (frequencyl [ (3, true); (1, false) ]) interval_gen))
        (list_size (int_range 0 12) (float_bound_inclusive 100.0)))
    (fun (ops, key_list) ->
      with_metrics true @@ fun () ->
      let keys = Array.of_list key_list in
      let it = ITI.create ~seed:0 and ft = Flat.create () in
      let stabs_agree () =
        Array.for_all
          (fun x ->
            let a = ref [] and b = ref [] in
            ITI.stab it x (fun p -> a := p :: !a);
            Flat.stab ft x (fun p -> b := p :: !b);
            !a = !b)
          keys
        &&
        let a = ref [] and b = ref [] in
        ITI.stab_batch it ~keys ~f:(fun ~idx p -> a := (idx, p) :: !a);
        Flat.stab_batch ft ~keys ~f:(fun ~idx p -> b := (idx, p) :: !b);
        !a = !b
      in
      let ok = ref true in
      List.iteri
        (fun i (add, iv) ->
          if add then begin
            ITI.add it iv i;
            Flat.add ft iv i
          end
          else if ITI.remove it iv (fun _ -> true) <> Flat.remove ft iv (fun _ -> true) then
            ok := false;
          if i mod 10 = 0 && not (stabs_agree ()) then ok := false)
        ops;
      ITI.check_invariants it;
      !ok && stabs_agree () && ITI.size it = Flat.size ft)

(* One sample per timed call while metrics are on; the hit histogram
   sums to the reported payloads of the timed stabs; nothing is
   recorded while off, and [stab_batch] passes through untimed. *)
let test_instrumented_records () =
  let hist = M.histogram in
  let names = [ "stab_ns"; "add_ns"; "remove_ns"; "stab_hits" ] in
  let count n = M.hist_count (hist ("stab.interval_tree." ^ n)) in
  let exercise () =
    let t = ITI.create ~seed:0 in
    for i = 0 to 9 do
      ITI.add t (I.make (float_of_int i) (float_of_int (i + 2))) i
    done;
    ignore (ITI.remove t (I.make 0.0 2.0) (fun _ -> true) : bool);
    let hits = ref 0 in
    ITI.stab t 3.0 (fun _ -> incr hits);
    ITI.stab_batch t ~keys:[| 1.0; 5.0; 50.0 |] ~f:(fun ~idx:_ _ -> incr hits);
    !hits
  in
  M.reset ();
  let hits = with_metrics false exercise in
  List.iter (fun n -> Alcotest.(check int) (n ^ " off") 0 (count n)) names;
  Alcotest.(check int) "hits with metrics off" 7 hits;
  let hits = with_metrics true exercise in
  Alcotest.(check int) "hits with metrics on" 7 hits;
  Alcotest.(check int) "add_ns" 10 (count "add_ns");
  Alcotest.(check int) "remove_ns" 1 (count "remove_ns");
  Alcotest.(check int) "stab_ns" 1 (count "stab_ns");
  Alcotest.(check int) "one stab_hits sample per stab call" 1 (count "stab_hits");
  Alcotest.(check (float 0.0)) "stab_hits sum" 3.0 (M.hist_sum (hist "stab.interval_tree.stab_hits"));
  M.reset ()

(* --------------------------------------------------------------------- *)

let qc = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "cq_index"
    [
      ( "btree",
        [
          qc prop_btree_models_sorted_list;
          qc prop_btree_seeks;
          qc prop_btree_range;
          qc prop_btree_bulk_load;
          qc prop_btree_cursor_walk;
          qc prop_btree_finger;
          qc prop_btree_finger_back;
          qc prop_btree_reference;
          qc prop_btree_leaf_access;
          qc prop_btree_finger_descend_copy;
          Alcotest.test_case "neighbours" `Quick test_btree_neighbours;
          Alcotest.test_case "duplicates" `Quick test_btree_find_all_duplicates;
          Alcotest.test_case "empty tree" `Quick test_btree_empty;
          Alcotest.test_case "finger on an empty tree" `Quick test_btree_finger_empty;
          Alcotest.test_case "validation + bulk sizes" `Quick test_btree_validation;
        ] );
      ( "interval_tree",
        [
          qc prop_itree_stab_matches_brute;
          qc prop_itree_remove;
          qc prop_itree_query_overlaps;
          Alcotest.test_case "remove missing" `Quick test_itree_remove_missing;
          Alcotest.test_case "mutable facade" `Quick test_itree_mutable_facade;
        ] );
      ( "treap",
        [
          qc prop_treap_sorted;
          qc prop_treap_split_join;
          qc prop_treap_remove;
          Alcotest.test_case "mem/min/fold/isect" `Quick test_treap_extras;
        ] );
      ( "flat_interval_tree",
        [
          qc prop_flat_matches_list_model_under_churn;
          qc prop_stab_batch_matches_stab_loop;
        ] );
      ( "sweep_store",
        [
          qc prop_store_models_sorted_list;
          Alcotest.test_case "chunk split and merge boundaries" `Quick test_store_chunk_boundaries;
          qc prop_store_sweep_matches_filter;
          Alcotest.test_case "sweep: pruned and empty cases" `Quick test_store_sweep_pruned_cases;
          Alcotest.test_case "sweep: block exit and the end" `Quick test_store_sweep_block_exit;
          Alcotest.test_case "sweep: allocates nothing" `Quick test_store_sweep_allocates_nothing;
          qc prop_store_sweep_on_btree;
          qc prop_store_walk_anchored;
          Alcotest.test_case "stale block max caught" `Quick test_store_corruption_caught;
        ] );
      ( "rtree",
        [
          qc prop_rtree_stab;
          qc prop_rtree_search;
          qc prop_rtree_delete;
          qc (prop_rtree_interleaved 4);
          qc (prop_rtree_interleaved 8);
          Alcotest.test_case "empty rect rejected" `Quick test_rtree_empty_rect_rejected;
        ] );
      (* Alcotest truncates test names to fit beside the widest suite
         name; this one's 20 characters keep the names above stable. *)
      ( "stab_backend_metrics",
        [
          qc prop_instrumented_matches_flat;
          Alcotest.test_case "records only while enabled" `Quick test_instrumented_records;
        ] );
    ]

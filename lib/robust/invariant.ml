module I = Cq_interval.Interval

type violation = { structure : string; check : string; detail : string }
type report = (unit, violation list) result

let pp_violation fmt v = Format.fprintf fmt "[%s/%s] %s" v.structure v.check v.detail

let pp_report fmt = function
  | Ok () -> Format.fprintf fmt "ok"
  | Error vs ->
      Format.fprintf fmt "%d violation(s):" (List.length vs);
      List.iter (fun v -> Format.fprintf fmt "@,  %a" pp_violation v) vs

(* Violations accumulate so one audit reports every broken invariant,
   not just the first; [guard] converts the Corrupt-raising
   check_invariants style (Cq_util.Error.corrupt) into a recorded
   violation. *)
type ctx = { structure : string; mutable acc : violation list }

let ctx structure = { structure; acc = [] }
let push c check detail = c.acc <- { structure = c.structure; check; detail } :: c.acc
let pushf c check fmt = Printf.ksprintf (push c check) fmt

let guard c check f =
  try f () with
  | Cq_util.Error.Cq_error (Corrupt { detail; _ }) -> push c check detail
  | Cq_util.Error.Cq_error e -> push c check (Cq_util.Error.to_string e)
  | Failure msg -> push c check msg
  | exn -> push c check (Printexc.to_string exn)

let seal c = match List.rev c.acc with [] -> Ok () | vs -> Error vs

let merge reports =
  let vs =
    List.concat_map (function Ok () -> [] | Error vs -> vs) reports
  in
  if List.is_empty vs then Ok () else Error vs

(* Cap the quadratic cross-checks: probe at most [limit] positions
   spread evenly over the entries. *)
let sample limit xs =
  let n = List.length xs in
  if n <= limit then xs
  else
    let step = n / limit in
    List.filteri (fun i _ -> i mod step = 0) xs

let stab_probes entries = sample 24 (List.concat_map (fun iv -> [ I.lo iv; I.hi iv ]) entries)

(* ------------------------------------------------------------------ *)
(* Interval tree                                                        *)
(* ------------------------------------------------------------------ *)

let interval_tree ~(interval : 'a -> I.t) (t : 'a Cq_index.Flat_interval_tree.t) : report =
  let module T = Cq_index.Flat_interval_tree in
  let c = ctx "stab:interval_tree" in
  guard c "internal" (fun () -> T.check_invariants t);
  let entries = ref [] in
  T.iter t (fun p -> entries := interval p :: !entries);
  let entries = !entries in
  let n = List.length entries in
  if n <> T.size t then pushf c "size" "size reports %d but %d entries listed" (T.size t) n;
  List.iter (fun iv -> if I.is_empty iv then push c "entries" "stored interval is empty") entries;
  List.iter
    (fun x ->
      let want = List.length (List.filter (fun iv -> I.stabs iv x) entries) in
      let got = ref 0 in
      T.stab t x (fun p ->
          incr got;
          if not (I.stabs (interval p) x) then
            pushf c "stab" "reported interval %s misses %g" (I.to_string (interval p)) x);
      if !got <> want then
        pushf c "stab" "stab at %g visits %d entries, expected %d" x !got want)
    (stab_probes entries);
  seal c

(* ------------------------------------------------------------------ *)
(* R-tree                                                               *)
(* ------------------------------------------------------------------ *)

module Rect = Cq_index.Rect
module Rtree = Cq_index.Rtree

let rtree (t : 'a Rtree.t) : report =
  let c = ctx "rtree" in
  guard c "mbr" (fun () -> Rtree.check_invariants t);
  let rects = ref [] in
  Rtree.iter t (fun r _ -> rects := r :: !rects);
  let rects = !rects in
  let n = List.length rects in
  if n <> Rtree.size t then pushf c "size" "size reports %d but %d entries listed" (Rtree.size t) n;
  List.iter (fun r -> if Rect.is_empty r then push c "entries" "stored rectangle is empty") rects;
  List.iter
    (fun (r : Rect.t) ->
      let x = I.midpoint r.x and y = I.midpoint r.y in
      let want = List.length (List.filter (fun r' -> Rect.contains_point r' ~x ~y) rects) in
      let got = Rtree.stab_count t ~x ~y in
      if got <> want then
        pushf c "stab" "stab_count at (%g, %g) is %d, expected %d" x y got want)
    (sample 16 rects);
  seal c

(* ------------------------------------------------------------------ *)
(* Sweep store                                                          *)
(* ------------------------------------------------------------------ *)

let sweep_store (t : 'a Cq_index.Sweep_store.t) : report =
  let module S = Cq_index.Sweep_store in
  let c = ctx "sweep_store" in
  guard c "internal" (fun () -> S.check_invariants t);
  let entries = S.to_list t in
  let n = List.length entries in
  if n <> S.size t then pushf c "size" "size reports %d but %d entries listed" (S.size t) n;
  let rec ordered = function
    | (lo1, hi1, _) :: ((lo2, hi2, _) :: _ as rest) ->
        let r = Float.compare lo1 lo2 in
        if r > 0 || (r = 0 && Float.compare hi1 hi2 > 0) then
          pushf c "order" "[%g, %g] listed before [%g, %g]" lo1 hi1 lo2 hi2
        else ordered rest
    | _ -> ()
  in
  ordered entries;
  seal c

(* ------------------------------------------------------------------ *)
(* B+-tree                                                              *)
(* ------------------------------------------------------------------ *)

let btree (t : 'a Cq_index.Btree.t) : report =
  let module B = Cq_index.Btree in
  let c = ctx "btree" in
  guard c "structure" (fun () -> B.check_invariants t);
  let keys = List.map (fun (k, k2, _) -> (k, k2)) (B.to_list t) in
  let n = List.length keys in
  if n <> B.length t then pushf c "size" "length reports %d but %d entries listed" (B.length t) n;
  let cmp = Cq_util.Order.float_pair in
  let rec sorted = function
    | k1 :: (k2 :: _ as tl) -> cmp k1 k2 <= 0 && sorted tl
    | _ -> true
  in
  if not (sorted keys) then push c "order" "to_list is not in key order";
  (match (keys, List.rev keys) with
  | (k0, k02) :: _, (kn, kn2) :: _ ->
      let spanned = B.count_range t k0 k02 kn kn2 in
      if spanned <> n then pushf c "count_range" "full span counts %d of %d entries" spanned n
  | _ -> ());
  let lands_on key = function
    | Some cur -> cmp (B.key cur, B.key2 cur) key = 0
    | None -> false
  in
  List.iter
    (fun ((k, k2) as key) ->
      let want = List.length (List.filter (fun k' -> cmp key k' = 0) keys) in
      let found = B.count_range t k k2 k k2 in
      if found <> want then pushf c "count_range" "point range finds %d duplicates, expected %d" found want;
      if not (lands_on key (B.seek_ge t k k2)) then push c "seek_ge" "seek_ge misses a listed key";
      if not (lands_on key (B.seek_le t k k2)) then push c "seek_le" "seek_le misses a listed key")
    (sample 16 keys);
  seal c

(* ------------------------------------------------------------------ *)
(* Treap                                                                *)
(* ------------------------------------------------------------------ *)

module Treap (E : Cq_index.Treap.ELEMENT) (T : module type of Cq_index.Treap.Make (E)) =
struct
  let audit (t : T.t) : report =
    let c = ctx "treap" in
    guard c "heap+bst+isect" (fun () -> T.check_invariants t);
    let xs = T.to_list t in
    let n = List.length xs in
    if n <> T.size t then pushf c "size" "size reports %d but %d elements listed" (T.size t) n;
    let rec sorted = function
      | a :: (b :: _ as tl) -> E.compare a b <= 0 && sorted tl
      | _ -> true
    in
    if not (sorted xs) then push c "order" "to_list is not in element order";
    List.iter (fun e -> if not (T.mem e t) then push c "mem" "listed element fails mem") (sample 32 xs);
    (match (T.min_elt t, xs) with
    | Some m, x :: _ -> if E.compare m x <> 0 then push c "min_elt" "min_elt disagrees with to_list"
    | None, [] -> ()
    | _ -> push c "min_elt" "min_elt presence disagrees with to_list");
    (* The root augmentation must equal the members' true common
       intersection exactly — the refined partition trusts it. *)
    let want =
      List.fold_left (fun acc e -> I.inter acc (E.interval e)) (I.make neg_infinity infinity) xs
    in
    let got = T.isect t in
    if n > 0 && not (I.equal got want) then
      pushf c "isect" "augmented intersection %s, recomputed %s" (I.to_string got)
        (I.to_string want);
    seal c
end

(* ------------------------------------------------------------------ *)
(* Stabbing partitions (lazy and refined)                               *)
(* ------------------------------------------------------------------ *)

module Partition
    (E : Hotspot_core.Partition_intf.ELEMENT)
    (P : Hotspot_core.Partition_intf.S with type elt = E.t) =
struct
  let audit ?(name = "partition") (p : P.t) : report =
    let c = ctx name in
    guard c "internal" (fun () -> P.check_invariants p);
    let groups = P.groups p in
    if not (Hotspot_core.Stabbing.is_valid_partition E.interval groups) then
      push c "stabbing" "some member is not stabbed by its group's stabbing point";
    if List.length groups <> P.num_groups p then
      pushf c "groups" "num_groups reports %d but %d groups listed" (P.num_groups p)
        (List.length groups);
    let members = List.concat_map snd groups in
    if List.length members <> P.size p then
      pushf c "size" "groups hold %d elements but size reports %d" (List.length members) (P.size p);
    List.iter
      (fun e ->
        if not (P.mem p e) then push c "mem" "listed element fails mem";
        guard c "group_of" (fun () ->
            let gid = P.group_of p e in
            let gms = P.group_members p gid in
            if not (List.exists (fun e' -> E.compare e e' = 0) gms) then
              Cq_util.Error.corrupt ~structure:"partition" "group_of does not round-trip through group_members"))
      (sample 48 members);
    seal c
end

(* ------------------------------------------------------------------ *)
(* Hotspot tracker                                                      *)
(* ------------------------------------------------------------------ *)

module Tracker
    (E : Hotspot_core.Partition_intf.ELEMENT)
    (T : module type of Hotspot_core.Hotspot_tracker.Make (E)) =
struct
  let audit (tr : T.t) : report =
    let c = ctx "hotspot_tracker" in
    guard c "I1-I3" (fun () -> T.check_invariants tr);
    let hotspots = T.hotspots tr in
    let scattered = T.scattered tr in
    if List.length hotspots <> T.num_hotspots tr then
      pushf c "hot" "num_hotspots reports %d but %d groups listed" (T.num_hotspots tr)
        (List.length hotspots);
    if List.length scattered <> T.scattered_count tr then
      pushf c "scattered" "scattered_count reports %d but %d elements listed"
        (T.scattered_count tr) (List.length scattered);
    let hot_total = List.fold_left (fun acc (_, _, ms) -> acc + List.length ms) 0 hotspots in
    if hot_total + List.length scattered <> T.size tr then
      pushf c "size" "%d hot + %d scattered but size reports %d" hot_total
        (List.length scattered) (T.size tr);
    List.iter
      (fun (gid, stab, members) ->
        if List.is_empty members then pushf c "hot" "hotspot %d has no members" gid;
        List.iter
          (fun e ->
            if not (I.stabs (E.interval e) stab) then
              pushf c "hot" "hotspot %d: member not stabbed by the group point %g" gid stab;
            (match T.hotspot_of tr e with
            | Some g when g = gid -> ()
            | Some g -> pushf c "where_hot" "member of hotspot %d resolves to hotspot %d" gid g
            | None -> pushf c "where_hot" "member of hotspot %d resolves to no hotspot" gid);
            if not (T.mem tr e) then pushf c "mem" "hotspot %d member fails mem" gid)
          members)
      hotspots;
    List.iter
      (fun e ->
        (match T.hotspot_of tr e with
        | Some g -> pushf c "scattered" "scattered element resolves to hotspot %d" g
        | None -> ());
        if not (T.mem tr e) then push c "mem" "scattered element fails mem")
      (sample 48 scattered);
    let cov = T.coverage tr in
    if cov < -.1e-9 || cov > 1.0 +. 1e-9 then pushf c "coverage" "coverage %g outside [0, 1]" cov;
    seal c
end

(* ------------------------------------------------------------------ *)
(* Engine                                                               *)
(* ------------------------------------------------------------------ *)

let engine (e : Cq_engine.Engine.t) : report =
  let c = ctx "engine" in
  guard c "internal" (fun () -> Cq_engine.Engine.check_invariants e);
  seal c

let parallel (p : Cq_engine.Parallel.t) : report =
  let c = ctx "parallel" in
  guard c "internal" (fun () -> Cq_engine.Parallel.check_invariants p);
  seal c

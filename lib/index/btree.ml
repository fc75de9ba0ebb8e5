(* Leaves hold slack columns: fixed capacity 2*order+1 with an explicit
   count, updated by in-place blits.  A leaf allocates only when it is
   created (empty-root laziness aside) or split, so steady-state
   insert/remove churn costs zero heap words — this is the allocation
   dominator on the ingest hot path.  A removed slot keeps its old
   value reference until overwritten (bounded by one leaf's capacity
   per leaf; harmless for the tuple values stored here).

   Internal nodes keep exactly-sized arrays that are replaced on
   update: internal updates happen only on child split/merge, so the
   O(order) copies amortise away and the rebalancing code stays free
   of capacity bookkeeping. *)

let array_insert a i x =
  let n = Array.length a in
  Array.init (n + 1) (fun j -> if j < i then a.(j) else if j = i then x else a.(j - 1))

let array_remove a i =
  let n = Array.length a in
  Array.init (n - 1) (fun j -> if j < i then a.(j) else a.(j + 1))

type 'a leaf = {
  (* The primary and secondary key columns; capacity 2*order+1 once
     allocated, [||] only in the empty root. *)
  mutable lkeys : float array;
  mutable lkeys2 : float array;
  mutable lvals : 'a array;
  mutable lcount : int;
  mutable lnext : 'a leaf option;
  mutable lprev : 'a leaf option;
}

type 'a node =
  | Leaf of 'a leaf
  | Internal of 'a internal

and 'a internal = {
  mutable seps : float array;
  mutable seps2 : float array;
  (* |kids| = |seps| + 1.  All keys in [kids.(i)] lie in
     [sep (i-1), sep i] (closed on both sides; duplicates may touch a
     separator from either side), where [sep i] is the pair
     ([seps.(i)], [seps2.(i)]). *)
  mutable kids : 'a node array;
}

type 'a t = {
  mutable root : 'a node;
  mutable size : int;
  order : int; (* minimum occupancy b; max is 2b *)
}

(* ------------------------------------------------------------------ *)
(* Key order                                                           *)
(* ------------------------------------------------------------------ *)

(* Lexicographic order on (primary, secondary), read from two flat
   float columns at slot [i]: monomorphic reads, so no key is boxed. *)
let[@cq.hot] [@inline] compare_at (ks : float array) (ks2 : float array) i (k : float) (k2 : float) =
  let c = Float.compare (Array.unsafe_get ks i) k in
  if c <> 0 then c else Float.compare (Array.unsafe_get ks2 i) k2

(* The node search: the first slot in [from, count) whose pair is >= (k,
   k2), or with [past_equal] > (k, k2); [count] when there is none.
   The compares are written out so no step calls out of line.  Callers
   pass [0 <= from <= count <= length]. *)
let[@cq.hot] bound ~past_equal (ks : float array) (ks2 : float array) from count (k : float)
    (k2 : float) =
  let lo = ref from and hi = ref count in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let c = Float.compare (Array.unsafe_get ks mid) k in
    let c = if c <> 0 then c else Float.compare (Array.unsafe_get ks2 mid) k2 in
    if c < 0 || (past_equal && c = 0) then lo := mid + 1 else hi := mid
  done;
  !lo

let[@cq.hot] lower_bound ks ks2 from count k k2 = bound ~past_equal:false ks ks2 from count k k2
let[@cq.hot] upper_bound ks ks2 from count k k2 = bound ~past_equal:true ks ks2 from count k k2

let leaf_capacity order = (2 * order) + 1

let create ?(order = 16) () =
  if order < 2 then invalid_arg "Btree.create: order must be >= 2";
  {
    root =
      Leaf { lkeys = [||]; lkeys2 = [||]; lvals = [||]; lcount = 0; lnext = None; lprev = None };
    size = 0;
    order;
  }

let length t = t.size
let is_empty t = t.size = 0

(* A fresh full-capacity leaf, every slot filled with the given entry
   (the filler is immediately overwritten where it matters). *)
let alloc_leaf t k k2 v ~count ~lnext ~lprev =
  let cap = leaf_capacity t.order in
  {
    lkeys = Array.make cap k;
    lkeys2 = Array.make cap k2;
    lvals = Array.make cap v;
    lcount = count;
    lnext;
    lprev;
  }

(* Number of separators <= the key: the child index used for inserts
   (duplicates go right) and for seek_le descents. *)
let child_right nd k k2 = upper_bound nd.seps nd.seps2 0 (Array.length nd.seps) k k2

(* First child index i whose separator is >= the key (else the last
   child): the descent for seek_ge. *)
let child_left nd k k2 = lower_bound nd.seps nd.seps2 0 (Array.length nd.seps) k k2

(* ------------------------------------------------------------------ *)
(* Insertion                                                           *)
(* ------------------------------------------------------------------ *)

(* Copy [n] entries from slot [src] of [a] to slot [dst] of [b]. *)
let leaf_blit a src b dst n =
  Array.blit a.lkeys src b.lkeys dst n;
  Array.blit a.lkeys2 src b.lkeys2 dst n;
  Array.blit a.lvals src b.lvals dst n

let leaf_insert_at l i k k2 v =
  leaf_blit l i l (i + 1) (l.lcount - i);
  l.lkeys.(i) <- k;
  l.lkeys2.(i) <- k2;
  l.lvals.(i) <- v;
  l.lcount <- l.lcount + 1

let leaf_remove_at l i =
  leaf_blit l (i + 1) l i (l.lcount - i - 1);
  l.lcount <- l.lcount - 1

(* Returns [Some (sep, sep2, right)] when the node split. *)
let rec insert_node t node k k2 v : (float * float * 'a node) option =
  match node with
  | Leaf l ->
      if Array.length l.lkeys = 0 then begin
        (* The lazily-allocated empty root. *)
        let cap = leaf_capacity t.order in
        l.lkeys <- Array.make cap k;
        l.lkeys2 <- Array.make cap k2;
        l.lvals <- Array.make cap v;
        l.lcount <- 1;
        None
      end
      else begin
        (* After every equal pair: equal pairs keep insertion order. *)
        leaf_insert_at l (upper_bound l.lkeys l.lkeys2 0 l.lcount k k2) k k2 v;
        if l.lcount <= 2 * t.order then None
        else begin
          let n = l.lcount in
          let mid = n / 2 in
          let right =
            alloc_leaf t l.lkeys.(mid) l.lkeys2.(mid) l.lvals.(mid) ~count:(n - mid)
              ~lnext:l.lnext ~lprev:(Some l)
          in
          leaf_blit l mid right 0 (n - mid);
          (match l.lnext with Some nx -> nx.lprev <- Some right | None -> ());
          l.lcount <- mid;
          l.lnext <- Some right;
          Some (right.lkeys.(0), right.lkeys2.(0), Leaf right)
        end
      end
  | Internal nd -> (
      let ci = child_right nd k k2 in
      match insert_node t nd.kids.(ci) k k2 v with
      | None -> None
      | Some (sep, sep2, right) ->
          nd.seps <- array_insert nd.seps ci sep;
          nd.seps2 <- array_insert nd.seps2 ci sep2;
          nd.kids <- array_insert nd.kids (ci + 1) right;
          let n = Array.length nd.seps in
          if n <= 2 * t.order then None
          else begin
            let mid = n / 2 in
            let right =
              {
                seps = Array.sub nd.seps (mid + 1) (n - mid - 1);
                seps2 = Array.sub nd.seps2 (mid + 1) (n - mid - 1);
                kids = Array.sub nd.kids (mid + 1) (n - mid);
              }
            in
            let up = nd.seps.(mid) and up2 = nd.seps2.(mid) in
            nd.seps <- Array.sub nd.seps 0 mid;
            nd.seps2 <- Array.sub nd.seps2 0 mid;
            nd.kids <- Array.sub nd.kids 0 (mid + 1);
            Some (up, up2, Internal right)
          end)

let insert t k k2 v =
  (match insert_node t t.root k k2 v with
  | None -> ()
  | Some (sep, sep2, right) ->
      t.root <- Internal { seps = [| sep |]; seps2 = [| sep2 |]; kids = [| t.root; right |] });
  t.size <- t.size + 1

(* ------------------------------------------------------------------ *)
(* Deletion                                                            *)
(* ------------------------------------------------------------------ *)

let occupancy = function
  | Leaf l -> l.lcount
  | Internal nd -> Array.length nd.seps

let leaf_of = function Leaf l -> l | Internal _ -> assert false
let internal_of = function Internal n -> n | Leaf _ -> assert false

(* Drop separator [si] of [nd] and the child to its right. *)
let drop_sep nd si =
  nd.seps <- array_remove nd.seps si;
  nd.seps2 <- array_remove nd.seps2 si;
  nd.kids <- array_remove nd.kids (si + 1)

(* Rebalance the underfull child [ci] of internal node [nd] by
   borrowing from a sibling or merging with one. *)
let rebalance t nd ci =
  let nkids = Array.length nd.kids in
  let try_left = ci > 0 && occupancy nd.kids.(ci - 1) > t.order in
  let try_right = ci < nkids - 1 && occupancy nd.kids.(ci + 1) > t.order in
  (* A merge folds child [si + 1] into child [si] (prefer the left
     sibling); the combined count is < order + order, within
     capacity. *)
  let si = if ci > 0 then ci - 1 else ci in
  match (nd.kids.(ci), try_left, try_right) with
  | Leaf l, true, _ ->
      (* Move the last entry of the left sibling to the front of l. *)
      let left = leaf_of nd.kids.(ci - 1) in
      let j = left.lcount - 1 in
      leaf_insert_at l 0 left.lkeys.(j) left.lkeys2.(j) left.lvals.(j);
      left.lcount <- j;
      nd.seps.(ci - 1) <- l.lkeys.(0);
      nd.seps2.(ci - 1) <- l.lkeys2.(0)
  | Leaf l, false, true ->
      (* Move the first entry of the right sibling to the end of l. *)
      let right = leaf_of nd.kids.(ci + 1) in
      leaf_insert_at l l.lcount right.lkeys.(0) right.lkeys2.(0) right.lvals.(0);
      leaf_remove_at right 0;
      nd.seps.(ci) <- right.lkeys.(0);
      nd.seps2.(ci) <- right.lkeys2.(0)
  | Leaf _, false, false ->
      let a = leaf_of nd.kids.(si) and b = leaf_of nd.kids.(si + 1) in
      leaf_blit b 0 a a.lcount b.lcount;
      a.lcount <- a.lcount + b.lcount;
      a.lnext <- b.lnext;
      (match b.lnext with Some nx -> nx.lprev <- Some a | None -> ());
      drop_sep nd si
  | Internal c, true, _ ->
      (* Rotate through the parent separator from the left sibling. *)
      let left = internal_of nd.kids.(ci - 1) in
      let j = Array.length left.seps - 1 in
      c.seps <- array_insert c.seps 0 nd.seps.(ci - 1);
      c.seps2 <- array_insert c.seps2 0 nd.seps2.(ci - 1);
      c.kids <- array_insert c.kids 0 left.kids.(j + 1);
      nd.seps.(ci - 1) <- left.seps.(j);
      nd.seps2.(ci - 1) <- left.seps2.(j);
      left.seps <- Array.sub left.seps 0 j;
      left.seps2 <- Array.sub left.seps2 0 j;
      left.kids <- Array.sub left.kids 0 (j + 1)
  | Internal c, false, true ->
      let right = internal_of nd.kids.(ci + 1) in
      c.seps <- Array.append c.seps [| nd.seps.(ci) |];
      c.seps2 <- Array.append c.seps2 [| nd.seps2.(ci) |];
      c.kids <- Array.append c.kids [| right.kids.(0) |];
      nd.seps.(ci) <- right.seps.(0);
      nd.seps2.(ci) <- right.seps2.(0);
      right.seps <- array_remove right.seps 0;
      right.seps2 <- array_remove right.seps2 0;
      right.kids <- array_remove right.kids 0
  | Internal _, false, false ->
      let a = internal_of nd.kids.(si) and b = internal_of nd.kids.(si + 1) in
      a.seps <- Array.concat [ a.seps; [| nd.seps.(si) |]; b.seps ];
      a.seps2 <- Array.concat [ a.seps2; [| nd.seps2.(si) |]; b.seps2 ];
      a.kids <- Array.append a.kids b.kids;
      drop_sep nd si

(* Delete the leftmost entry with key = (k, k2) satisfying [pred].
   Equal keys may straddle separators, so every child whose key range
   can contain the key is tried left-to-right. *)
let rec remove_node t node k k2 pred =
  match node with
  | Leaf l ->
      let rec scan i =
        i < l.lcount
        && compare_at l.lkeys l.lkeys2 i k k2 = 0
        &&
        if pred l.lvals.(i) then begin
          leaf_remove_at l i;
          true
        end
        else scan (i + 1)
      in
      scan (lower_bound l.lkeys l.lkeys2 0 l.lcount k k2)
  | Internal nd ->
      let last = child_right nd k k2 in
      let rec try_child ci =
        ci <= last
        &&
        if remove_node t nd.kids.(ci) k k2 pred then begin
          if occupancy nd.kids.(ci) < t.order then rebalance t nd ci;
          true
        end
        else try_child (ci + 1)
      in
      try_child (child_left nd k k2)

let remove_first t k k2 pred =
  remove_node t t.root k k2 pred
  && begin
       (match t.root with
       | Internal nd when Array.length nd.seps = 0 -> t.root <- nd.kids.(0)
       | _ -> ());
       t.size <- t.size - 1;
       true
     end

(* ------------------------------------------------------------------ *)
(* Cursors and searches                                                *)
(* ------------------------------------------------------------------ *)

type 'a cursor = { cleaf : 'a leaf; cidx : int }

let key c = c.cleaf.lkeys.(c.cidx)
let key2 c = c.cleaf.lkeys2.(c.cidx)
let value c = c.cleaf.lvals.(c.cidx)

let rec first_of_leaf leaf =
  if leaf.lcount > 0 then Some { cleaf = leaf; cidx = 0 }
  else match leaf.lnext with Some nx -> first_of_leaf nx | None -> None

let rec last_of_leaf leaf =
  let n = leaf.lcount in
  if n > 0 then Some { cleaf = leaf; cidx = n - 1 }
  else match leaf.lprev with Some pv -> last_of_leaf pv | None -> None

let next c =
  if c.cidx + 1 < c.cleaf.lcount then Some { c with cidx = c.cidx + 1 }
  else match c.cleaf.lnext with Some nx -> first_of_leaf nx | None -> None

let prev c =
  if c.cidx > 0 then Some { c with cidx = c.cidx - 1 }
  else match c.cleaf.lprev with Some pv -> last_of_leaf pv | None -> None

let rec descend_ge node k k2 =
  match node with
  | Leaf l -> l
  | Internal nd -> descend_ge nd.kids.(child_left nd k k2) k k2

let rec descend_le node k k2 =
  match node with
  | Leaf l -> l
  | Internal nd -> descend_le nd.kids.(child_right nd k k2) k k2

let seek_ge t k k2 =
  let l = descend_ge t.root k k2 in
  let i = lower_bound l.lkeys l.lkeys2 0 l.lcount k k2 in
  if i < l.lcount then Some { cleaf = l; cidx = i }
  else match l.lnext with Some nx -> first_of_leaf nx | None -> None

let seek_le t k k2 =
  let l = descend_le t.root k k2 in
  (* Last index with key <= (k, k2) is upper_bound - 1. *)
  let i = upper_bound l.lkeys l.lkeys2 0 l.lcount k k2 - 1 in
  if i >= 0 then Some { cleaf = l; cidx = i }
  else match l.lprev with Some pv -> last_of_leaf pv | None -> None

let rec leftmost_leaf = function
  | Leaf l -> l
  | Internal nd -> leftmost_leaf nd.kids.(0)

(* ------------------------------------------------------------------ *)
(* Fingers                                                             *)
(* ------------------------------------------------------------------ *)

(* A finger designates the entry at [fidx] of [fleaf], or, with
   [fidx = fleaf.lcount], the end of the tree: only the last leaf (or
   the empty root) is ever left at its count, because a seek that
   runs off a leaf moves to the first slot of the next one. *)
type 'a finger = {
  ftree : 'a t;
  mutable fleaf : 'a leaf;
  mutable fidx : int;
}

let finger_reset f =
  f.fleaf <- leftmost_leaf f.ftree.root;
  f.fidx <- 0

let finger t = { ftree = t; fleaf = leftmost_leaf t.root; fidx = 0 }

(* Whether every entry before the finger is < the key: the keys are
   sorted, so it is enough to look at the one just before it. *)
let[@cq.hot] before_lt f k k2 =
  let l = f.fleaf and i = f.fidx in
  if i > 0 then compare_at l.lkeys l.lkeys2 (i - 1) k k2 < 0
  else
    match l.lprev with
    | Some p -> compare_at p.lkeys p.lkeys2 (p.lcount - 1) k k2 < 0
    | None -> true

(* Put the finger on slot [i] of [l], or on the next leaf's first slot
   when [i] is past [l]'s last entry and there is a next leaf. *)
let[@cq.hot] finger_land f l i =
  match l.lnext with
  | Some nx when i = l.lcount ->
      f.fleaf <- nx;
      f.fidx <- 0
  | _ ->
      f.fleaf <- l;
      f.fidx <- i

let[@cq.hot] finger_descend f k k2 =
  let l = descend_ge f.ftree.root k k2 in
  finger_land f l (lower_bound l.lkeys l.lkeys2 0 l.lcount k k2)

let finger_copy f ~from =
  f.fleaf <- from.fleaf;
  f.fidx <- from.fidx

(* The first slot in [from, count) of [ks] at or above the target
   [col.(i) + shift.(0)].  The target is taken as (column, slot,
   shift) and added up here, where it is only compared: a float passed
   to a function that is not inlined is boxed. *)
let[@cq.hot] lower_bound_shifted (ks : float array) from count (col : float array) i
    (shift : float array) =
  let x = Array.unsafe_get col i +. Array.unsafe_get shift 0 in
  let lo = ref from and hi = ref count in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Float.compare (Array.unsafe_get ks mid) x < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* With a secondary of -∞, (k, -∞) <= (k', k2') iff k <= k' (no
   secondary is NaN), so the descent and the leaf search compare the
   primaries alone. *)
let[@cq.hot] rec descend_shifted node col i shift =
  match node with
  | Leaf l -> l
  | Internal nd ->
      descend_shifted
        nd.kids.(lower_bound_shifted nd.seps 0 (Array.length nd.seps) col i shift)
        col i shift

(* [finger_seek]'s steps on primaries alone: from the finger when the
   entry before it is below the target and the target lies in its leaf
   or the next one, else from the root. *)
let[@cq.hot] finger_seek_shifted f (col : float array) i (shift : float array) =
  let x = Array.unsafe_get col i +. Array.unsafe_get shift 0 in
  let l = f.fleaf and j = f.fidx in
  let n = l.lcount in
  let before_lt =
    if j > 0 then Float.compare (Array.unsafe_get l.lkeys (j - 1)) x < 0
    else
      match l.lprev with
      | Some p -> Float.compare (Array.unsafe_get p.lkeys (p.lcount - 1)) x < 0
      | None -> true
  in
  if before_lt && j = n then ()
  else if before_lt && Float.compare (Array.unsafe_get l.lkeys (n - 1)) x >= 0 then
    f.fidx <- lower_bound_shifted l.lkeys j n col i shift
  else
    match l.lnext with
    | Some nx when before_lt && Float.compare (Array.unsafe_get nx.lkeys (nx.lcount - 1)) x >= 0 ->
        f.fleaf <- nx;
        f.fidx <- lower_bound_shifted nx.lkeys 0 nx.lcount col i shift
    | _ ->
        let l = descend_shifted f.ftree.root col i shift in
        finger_land f l (lower_bound_shifted l.lkeys 0 l.lcount col i shift)

(* When everything before the finger is < the key, the target lies at
   or after the finger: at the end if the finger is there, else in its
   leaf when the leaf's last key is >= the key, else in the next leaf
   when that one's is.  Any other target (one that went backwards, or
   jumped more than a leaf ahead) re-descends from the root. *)
let[@cq.hot] finger_seek f k k2 =
  let l = f.fleaf and i = f.fidx in
  let n = l.lcount in
  if before_lt f k k2 then begin
    if i = n then ()
    else if compare_at l.lkeys l.lkeys2 (n - 1) k k2 >= 0 then
      f.fidx <- lower_bound l.lkeys l.lkeys2 i n k k2
    else
      match l.lnext with
      | Some nx when compare_at nx.lkeys nx.lkeys2 (nx.lcount - 1) k k2 >= 0 ->
          f.fleaf <- nx;
          f.fidx <- lower_bound nx.lkeys nx.lkeys2 0 nx.lcount k k2
      | _ -> finger_descend f k k2
  end
  else finger_descend f k k2

(* The leaf accessors a caller's own loop reads the finger's leaf
   through.  The finger keeps designating its entry: only
   [finger_set_index] and [finger_next_leaf] move it. *)
let finger_keys f = f.fleaf.lkeys
let finger_keys2 f = f.fleaf.lkeys2
let finger_count f = f.fleaf.lcount
let finger_index f = f.fidx
let finger_set_index f i = f.fidx <- i

let finger_next_leaf f =
  match f.fleaf.lnext with
  | Some nx ->
      f.fleaf <- nx;
      f.fidx <- 0;
      true
  | None -> false

(* The leaf holding the entry just before the finger. *)
let back_leaf f =
  match f.fleaf.lprev with Some p when f.fidx = 0 -> p | _ -> f.fleaf

let finger_back_keys f = (back_leaf f).lkeys
let finger_back_keys2 f = (back_leaf f).lkeys2

let finger_back_index f =
  if f.fidx > 0 then f.fidx - 1
  else match f.fleaf.lprev with Some p -> p.lcount - 1 | None -> -1

(* A module-level loop rather than a local closure over the bound and
   [x]/[g], so a walk allocates nothing. *)
let[@cq.hot] rec iter_le_from l i hi hi2 x g =
  if i < l.lcount then begin
    if compare_at l.lkeys l.lkeys2 i hi hi2 <= 0 then begin
      g x l.lvals.(i);
      iter_le_from l (i + 1) hi hi2 x g
    end
  end
  else match l.lnext with Some nx -> iter_le_from nx 0 hi hi2 x g | None -> ()

let[@cq.hot] finger_iter_le f hi hi2 x g = iter_le_from f.fleaf f.fidx hi hi2 x g

(* The mirror loop: slot [i] of [l] and leftwards, while key >= the
   bound. *)
let[@cq.hot] rec iter_back_ge_from l i lo lo2 x g =
  if i >= 0 then begin
    if compare_at l.lkeys l.lkeys2 i lo lo2 >= 0 then begin
      g x l.lvals.(i);
      iter_back_ge_from l (i - 1) lo lo2 x g
    end
  end
  else
    match l.lprev with
    | Some p -> iter_back_ge_from p (p.lcount - 1) lo lo2 x g
    | None -> ()

let[@cq.hot] finger_iter_back_ge f lo lo2 x g = iter_back_ge_from f.fleaf (f.fidx - 1) lo lo2 x g

(* ------------------------------------------------------------------ *)
(* Whole-tree and range walks                                          *)
(* ------------------------------------------------------------------ *)

let iter_entries t f =
  let rec walk leaf =
    for i = 0 to leaf.lcount - 1 do
      f leaf.lkeys.(i) leaf.lkeys2.(i) leaf.lvals.(i)
    done;
    match leaf.lnext with Some nx -> walk nx | None -> ()
  in
  walk (leftmost_leaf t.root)

let iter t f = iter_entries t (fun _ _ v -> f v)

let to_list t =
  let acc = ref [] in
  iter_entries t (fun k k2 v -> acc := (k, k2, v) :: !acc);
  List.rev !acc

let apply f v = f v

let iter_range t lo lo2 hi hi2 f =
  let l = descend_ge t.root lo lo2 in
  iter_le_from l (lower_bound l.lkeys l.lkeys2 0 l.lcount lo lo2) hi hi2 f apply

let count_range t lo lo2 hi hi2 =
  let n = ref 0 in
  iter_range t lo lo2 hi hi2 (fun _ -> incr n);
  !n

(* ------------------------------------------------------------------ *)
(* Bulk loading                                                        *)
(* ------------------------------------------------------------------ *)

let compare_entries (a, a2, _) (b, b2, _) =
  let c = Float.compare a b in
  if c <> 0 then c else Float.compare a2 b2

let of_sorted ?(order = 16) entries =
  if order < 2 then invalid_arg "Btree.of_sorted: order must be >= 2";
  let n = Array.length entries in
  for i = 1 to n - 1 do
    if compare_entries entries.(i - 1) entries.(i) > 0 then
      invalid_arg "Btree.of_sorted: input not sorted"
  done;
  let t = create ~order () in
  (* Choose a number of chunks so that even division yields sizes in
     [order, 2*order] (single chunk allowed below [order]: the root
     leaf is exempt).  Target 3/2*order leaves headroom for inserts
     and deletes alike. *)
  let clamp x lo hi = max lo (min hi x) in
  let pick_groups m ~target ~min_size ~max_size =
    let lo = (m + max_size - 1) / max_size in
    let hi = max 1 (m / min_size) in
    if hi < lo then 1 else clamp ((m + target - 1) / target) lo hi
  in
  if n = 0 then t
  else begin
    let nchunks = pick_groups n ~target:(3 * order / 2) ~min_size:order ~max_size:(2 * order) in
    let leaves =
      Array.init nchunks (fun c ->
          let start = c * n / nchunks in
          let stop = (c + 1) * n / nchunks in
          let k0, k02, v0 = entries.(start) in
          let l = alloc_leaf t k0 k02 v0 ~count:(stop - start) ~lnext:None ~lprev:None in
          for i = start to stop - 1 do
            let k, k2, v = entries.(i) in
            l.lkeys.(i - start) <- k;
            l.lkeys2.(i - start) <- k2;
            l.lvals.(i - start) <- v
          done;
          l)
    in
    Array.iteri
      (fun i l ->
        if i > 0 then l.lprev <- Some leaves.(i - 1);
        if i < nchunks - 1 then l.lnext <- Some leaves.(i + 1))
      leaves;
    (* Build internal levels bottom-up.  [mins.(i)]/[mins2.(i)] is the
       smallest key under node [i]; group boundaries use it as
       separator. *)
    let rec build (nodes : 'a node array) mins mins2 =
      let m = Array.length nodes in
      if m = 1 then nodes.(0)
      else begin
        (* Group sizes (children per parent) in [order+1, 2*order+1],
           i.e. separator counts within occupancy bounds; a single
           group is fine — it becomes the root. *)
        let ngroups =
          pick_groups m ~target:((3 * order / 2) + 1) ~min_size:(order + 1)
            ~max_size:((2 * order) + 1)
        in
        let first g = g * m / ngroups in
        let parents =
          Array.init ngroups (fun g ->
              let start = first g and stop = first (g + 1) in
              Internal
                {
                  seps = Array.sub mins (start + 1) (stop - start - 1);
                  seps2 = Array.sub mins2 (start + 1) (stop - start - 1);
                  kids = Array.sub nodes start (stop - start);
                })
        in
        build parents
          (Array.init ngroups (fun g -> mins.(first g)))
          (Array.init ngroups (fun g -> mins2.(first g)))
      end
    in
    t.root <-
      build
        (Array.map (fun l -> Leaf l) leaves)
        (Array.map (fun l -> l.lkeys.(0)) leaves)
        (Array.map (fun l -> l.lkeys2.(0)) leaves);
    t.size <- n;
    t
  end

(* ------------------------------------------------------------------ *)
(* Invariant checking (test support)                                   *)
(* ------------------------------------------------------------------ *)

let check_invariants t =
  let fail fmt = Cq_util.Error.corrupt ~structure:"btree" fmt in
  let b = t.order in
  let sorted ks ks2 n what =
    for i = 1 to n - 1 do
      if compare_at ks ks2 (i - 1) ks.(i) ks2.(i) > 0 then fail "%s out of order" what
    done
  in
  (* Returns (depth, bounds, entry_count), each bound a (leaf, slot)
     pair; bounds are None for empty subtrees (only the empty root). *)
  let rec check ~is_root node =
    match node with
    | Leaf l ->
        let n = l.lcount and cap = Array.length l.lkeys in
        if Array.length l.lvals <> cap || Array.length l.lkeys2 <> cap then
          fail "leaf column capacity mismatch";
        if n > cap then fail "leaf count exceeds capacity";
        if cap > 0 && cap <> leaf_capacity b then
          fail "leaf capacity %d not %d" cap (leaf_capacity b);
        if (not is_root) && n < b then fail "leaf underflow: %d < %d" n b;
        if n > 2 * b then fail "leaf overflow: %d > %d" n (2 * b);
        sorted l.lkeys l.lkeys2 n "leaf keys";
        let bounds = if n = 0 then None else Some ((l, 0), (l, n - 1)) in
        (1, bounds, n)
    | Internal nd ->
        let ns = Array.length nd.seps in
        if Array.length nd.kids <> ns + 1 || Array.length nd.seps2 <> ns then
          fail "internal kids/seps mismatch";
        if (not is_root) && ns < b then fail "internal underflow";
        if ns > 2 * b then fail "internal overflow";
        if is_root && ns < 1 then fail "internal root with < 1 separator";
        sorted nd.seps nd.seps2 ns "separators";
        let depth = ref 0 and total = ref 0 in
        let lo_bound = ref None and hi_bound = ref None in
        Array.iteri
          (fun i kid ->
            let d, bounds, cnt = check ~is_root:false kid in
            if !depth = 0 then depth := d else if d <> !depth then fail "non-uniform depth";
            total := !total + cnt;
            match bounds with
            | None -> fail "empty non-root child"
            | Some (((ml, mi) as mn), ((xl, xi) as mx)) ->
                if i = 0 then lo_bound := Some mn;
                if i = Array.length nd.kids - 1 then hi_bound := Some mx;
                if i > 0 && compare_at ml.lkeys ml.lkeys2 mi nd.seps.(i - 1) nd.seps2.(i - 1) < 0
                then fail "separator above child's min key";
                if i < ns && compare_at xl.lkeys xl.lkeys2 xi nd.seps.(i) nd.seps2.(i) > 0 then
                  fail "child's max key above separator")
          nd.kids;
        let bounds =
          match (!lo_bound, !hi_bound) with Some a, Some b -> Some (a, b) | _ -> None
        in
        (!depth + 1, bounds, !total)
  in
  let _, _, total = check ~is_root:true t.root in
  if total <> t.size then fail "size mismatch: counted %d, recorded %d" total t.size;
  (* The leaf chain must visit every entry in order. *)
  let chain_count = ref 0 in
  let last = ref None in
  let rec walk leaf =
    for i = 0 to leaf.lcount - 1 do
      (match !last with
      | Some (pk, pk2) when compare_at leaf.lkeys leaf.lkeys2 i pk pk2 < 0 ->
          fail "leaf chain out of order"
      | _ -> ());
      last := Some (leaf.lkeys.(i), leaf.lkeys2.(i));
      incr chain_count
    done;
    match leaf.lnext with
    | Some nx ->
        (match nx.lprev with Some back when back == leaf -> () | _ -> fail "broken lprev link");
        walk nx
    | None -> ()
  in
  walk (leftmost_leaf t.root);
  if !chain_count <> t.size then fail "leaf chain count mismatch"

module type ORDERED = sig
  type t

  val compare : t -> t -> int
  val compare_at : t array -> int -> t -> int
  val lower_bound : t array -> int -> int -> t -> int
  val upper_bound : t array -> int -> int -> t -> int
end

(* Leaves hold slack arrays: fixed capacity 2*order+1 with an explicit
   count, updated by in-place blits.  A leaf allocates only when it is
   created (empty-root laziness aside) or split, so steady-state
   insert/remove churn costs zero heap words — this is the allocation
   dominator on the ingest hot path.  A removed slot keeps its old
   key/value reference until overwritten (bounded by one leaf's
   capacity per leaf; harmless for the numeric keys and tuple values
   stored here).

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

let array_concat a b = Array.append a b

module Make (K : ORDERED) = struct
  type 'a leaf = {
    mutable lkeys : K.t array; (* capacity 2*order+1 once allocated; [||] only in the empty root *)
    mutable lvals : 'a array;
    mutable lcount : int;
    mutable lnext : 'a leaf option;
    mutable lprev : 'a leaf option;
  }

  type 'a node =
    | Leaf of 'a leaf
    | Internal of 'a internal

  and 'a internal = {
    mutable seps : K.t array;
    (* |kids| = |seps| + 1.  All keys in [kids.(i)] lie in
       [seps.(i-1), seps.(i)] (closed on both sides; duplicates may
       touch a separator from either side). *)
    mutable kids : 'a node array;
  }

  type 'a t = {
    mutable root : 'a node;
    mutable size : int;
    order : int; (* minimum occupancy b; max is 2b *)
  }

  let leaf_capacity order = (2 * order) + 1

  let create ?(order = 16) () =
    if order < 2 then invalid_arg "Btree.create: order must be >= 2";
    {
      root = Leaf { lkeys = [||]; lvals = [||]; lcount = 0; lnext = None; lprev = None };
      size = 0;
      order;
    }

  let length t = t.size
  let is_empty t = t.size = 0

  (* A fresh full-capacity leaf, every slot filled with [key]/[v] (the
     filler is immediately overwritten where it matters). *)
  let alloc_leaf t ~key ~v ~count ~lnext ~lprev =
    let cap = leaf_capacity t.order in
    { lkeys = Array.make cap key; lvals = Array.make cap v; lcount = count; lnext; lprev }

  (* Every node search is one call into the key module, which runs the
     binary search with its own monomorphic compares. *)

  (* Number of separators <= key: the child index used for inserts
     (duplicates go right) and for seek_le descents. *)
  let child_right seps key = K.upper_bound seps 0 (Array.length seps) key

  (* First child index i such that seps.(i) >= key (else the last
     child): the descent for seek_ge. *)
  let child_left seps key = K.lower_bound seps 0 (Array.length seps) key

  (* Position of the first key > [key] among the live prefix of a leaf
     (insert point keeping duplicates contiguous, new duplicate
     rightmost). *)
  let leaf_upper_bound keys count key = K.upper_bound keys 0 count key

  (* Position of the first key >= [key] among the slots [from, count)
     of a leaf, all of whose slots before [from] hold keys < [key]. *)
  let lower_bound_from keys from count key = K.lower_bound keys from count key

  (* Position of the first key >= [key] among the live prefix. *)
  let leaf_lower_bound keys count key = lower_bound_from keys 0 count key

  (* ------------------------------------------------------------------ *)
  (* Insertion                                                           *)
  (* ------------------------------------------------------------------ *)

  let leaf_insert_at l i key v =
    Array.blit l.lkeys i l.lkeys (i + 1) (l.lcount - i);
    Array.blit l.lvals i l.lvals (i + 1) (l.lcount - i);
    l.lkeys.(i) <- key;
    l.lvals.(i) <- v;
    l.lcount <- l.lcount + 1

  let leaf_remove_at l i =
    Array.blit l.lkeys (i + 1) l.lkeys i (l.lcount - i - 1);
    Array.blit l.lvals (i + 1) l.lvals i (l.lcount - i - 1);
    l.lcount <- l.lcount - 1

  (* Returns [Some (sep, right)] when the node split. *)
  let rec insert_node t node key v : (K.t * 'a node) option =
    match node with
    | Leaf l ->
        if Array.length l.lkeys = 0 then begin
          (* The lazily-allocated empty root. *)
          let cap = leaf_capacity t.order in
          l.lkeys <- Array.make cap key;
          l.lvals <- Array.make cap v;
          l.lcount <- 1;
          None
        end
        else begin
          let i = leaf_upper_bound l.lkeys l.lcount key in
          leaf_insert_at l i key v;
          if l.lcount <= 2 * t.order then None
          else begin
            let n = l.lcount in
            let mid = n / 2 in
            let right =
              alloc_leaf t ~key:l.lkeys.(mid) ~v:l.lvals.(mid) ~count:(n - mid)
                ~lnext:l.lnext ~lprev:(Some l)
            in
            Array.blit l.lkeys mid right.lkeys 0 (n - mid);
            Array.blit l.lvals mid right.lvals 0 (n - mid);
            (match l.lnext with Some nx -> nx.lprev <- Some right | None -> ());
            l.lcount <- mid;
            l.lnext <- Some right;
            Some (right.lkeys.(0), Leaf right)
          end
        end
    | Internal nd -> (
        let ci = child_right nd.seps key in
        match insert_node t nd.kids.(ci) key v with
        | None -> None
        | Some (sep, right) ->
            nd.seps <- array_insert nd.seps ci sep;
            nd.kids <- array_insert nd.kids (ci + 1) right;
            let n = Array.length nd.seps in
            if n <= 2 * t.order then None
            else begin
              let mid = n / 2 in
              let up = nd.seps.(mid) in
              let rseps = Array.sub nd.seps (mid + 1) (n - mid - 1) in
              let rkids = Array.sub nd.kids (mid + 1) (n - mid) in
              nd.seps <- Array.sub nd.seps 0 mid;
              nd.kids <- Array.sub nd.kids 0 (mid + 1);
              Some (up, Internal { seps = rseps; kids = rkids })
            end)

  let insert t key v =
    (match insert_node t t.root key v with
    | None -> ()
    | Some (sep, right) -> t.root <- Internal { seps = [| sep |]; kids = [| t.root; right |] });
    t.size <- t.size + 1

  (* ------------------------------------------------------------------ *)
  (* Deletion                                                            *)
  (* ------------------------------------------------------------------ *)

  let node_underflows t = function
    | Leaf l -> l.lcount < t.order
    | Internal nd -> Array.length nd.seps < t.order

  (* Rebalance the underfull child [ci] of internal node [nd] by
     borrowing from a sibling or merging with one. *)
  let rebalance t nd ci =
    let borrowable = function
      | Leaf l -> l.lcount > t.order
      | Internal n -> Array.length n.seps > t.order
    in
    let nkids = Array.length nd.kids in
    let try_left = ci > 0 && borrowable nd.kids.(ci - 1) in
    let try_right = ci < nkids - 1 && borrowable nd.kids.(ci + 1) in
    match (nd.kids.(ci), try_left, try_right) with
    | Leaf l, true, _ ->
        (* Move last entry of the left sibling to the front of l. *)
        let left = (match nd.kids.(ci - 1) with Leaf x -> x | Internal _ -> assert false) in
        let ln = left.lcount in
        let k = left.lkeys.(ln - 1) and v = left.lvals.(ln - 1) in
        left.lcount <- ln - 1;
        leaf_insert_at l 0 k v;
        nd.seps.(ci - 1) <- k
    | Leaf l, false, true ->
        (* Move first entry of the right sibling to the end of l. *)
        let right = (match nd.kids.(ci + 1) with Leaf x -> x | Internal _ -> assert false) in
        let k = right.lkeys.(0) and v = right.lvals.(0) in
        leaf_remove_at right 0;
        leaf_insert_at l l.lcount k v;
        nd.seps.(ci) <- right.lkeys.(0)
    | Leaf l, false, false ->
        (* Merge with a sibling (prefer the left one); the combined
           count is < order + order, within capacity. *)
        if ci > 0 then begin
          let left = (match nd.kids.(ci - 1) with Leaf x -> x | Internal _ -> assert false) in
          Array.blit l.lkeys 0 left.lkeys left.lcount l.lcount;
          Array.blit l.lvals 0 left.lvals left.lcount l.lcount;
          left.lcount <- left.lcount + l.lcount;
          left.lnext <- l.lnext;
          (match l.lnext with Some nx -> nx.lprev <- Some left | None -> ());
          nd.seps <- array_remove nd.seps (ci - 1);
          nd.kids <- array_remove nd.kids ci
        end
        else begin
          let right = (match nd.kids.(ci + 1) with Leaf x -> x | Internal _ -> assert false) in
          Array.blit right.lkeys 0 l.lkeys l.lcount right.lcount;
          Array.blit right.lvals 0 l.lvals l.lcount right.lcount;
          l.lcount <- l.lcount + right.lcount;
          l.lnext <- right.lnext;
          (match right.lnext with Some nx -> nx.lprev <- Some l | None -> ());
          nd.seps <- array_remove nd.seps ci;
          nd.kids <- array_remove nd.kids (ci + 1)
        end
    | Internal c, true, _ ->
        (* Rotate through the parent separator from the left sibling. *)
        let left = (match nd.kids.(ci - 1) with Internal x -> x | Leaf _ -> assert false) in
        let ln = Array.length left.seps in
        let up = left.seps.(ln - 1) in
        let moved = left.kids.(ln) in
        left.seps <- Array.sub left.seps 0 (ln - 1);
        left.kids <- Array.sub left.kids 0 ln;
        c.seps <- array_insert c.seps 0 nd.seps.(ci - 1);
        c.kids <- array_insert c.kids 0 moved;
        nd.seps.(ci - 1) <- up
    | Internal c, false, true ->
        let right = (match nd.kids.(ci + 1) with Internal x -> x | Leaf _ -> assert false) in
        let up = right.seps.(0) in
        let moved = right.kids.(0) in
        right.seps <- array_remove right.seps 0;
        right.kids <- array_remove right.kids 0;
        c.seps <- array_concat c.seps [| nd.seps.(ci) |];
        c.kids <- array_concat c.kids [| moved |];
        nd.seps.(ci) <- up
    | Internal c, false, false ->
        if ci > 0 then begin
          let left = (match nd.kids.(ci - 1) with Internal x -> x | Leaf _ -> assert false) in
          left.seps <- array_concat left.seps (array_concat [| nd.seps.(ci - 1) |] c.seps);
          left.kids <- array_concat left.kids c.kids;
          nd.seps <- array_remove nd.seps (ci - 1);
          nd.kids <- array_remove nd.kids ci
        end
        else begin
          let right = (match nd.kids.(ci + 1) with Internal x -> x | Leaf _ -> assert false) in
          c.seps <- array_concat c.seps (array_concat [| nd.seps.(ci) |] right.seps);
          c.kids <- array_concat c.kids right.kids;
          nd.seps <- array_remove nd.seps ci;
          nd.kids <- array_remove nd.kids (ci + 1)
        end

  (* Delete the leftmost entry with key = [key] satisfying [pred].
     Equal keys may straddle separators, so every child whose key range
     can contain [key] is tried left-to-right. *)
  let rec remove_node t node key pred =
    match node with
    | Leaf l ->
        let n = l.lcount in
        let rec scan i =
          if i >= n || K.compare l.lkeys.(i) key > 0 then false
          else if K.compare l.lkeys.(i) key = 0 && pred l.lvals.(i) then begin
            leaf_remove_at l i;
            true
          end
          else scan (i + 1)
        in
        scan (leaf_lower_bound l.lkeys l.lcount key)
    | Internal nd ->
        let first = child_left nd.seps key in
        let last = child_right nd.seps key in
        let rec try_child ci =
          if ci > last then false
          else if remove_node t nd.kids.(ci) key pred then begin
            if node_underflows t nd.kids.(ci) then rebalance t nd ci;
            true
          end
          else try_child (ci + 1)
        in
        try_child first

  let collapse_root t =
    match t.root with
    | Internal nd when Array.length nd.seps = 0 -> t.root <- nd.kids.(0)
    | _ -> ()

  let remove_first t key pred =
    if remove_node t t.root key pred then begin
      collapse_root t;
      t.size <- t.size - 1;
      true
    end
    else false

  (* ------------------------------------------------------------------ *)
  (* Cursors and searches                                                *)
  (* ------------------------------------------------------------------ *)

  type 'a cursor = { cleaf : 'a leaf; cidx : int }

  let key c = c.cleaf.lkeys.(c.cidx)
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

  let rec descend_ge node key =
    match node with
    | Leaf l -> l
    | Internal nd -> descend_ge nd.kids.(child_left nd.seps key) key

  let rec descend_le node key =
    match node with
    | Leaf l -> l
    | Internal nd -> descend_le nd.kids.(child_right nd.seps key) key

  let seek_ge t k =
    let l = descend_ge t.root k in
    let i = leaf_lower_bound l.lkeys l.lcount k in
    if i < l.lcount then Some { cleaf = l; cidx = i }
    else match l.lnext with Some nx -> first_of_leaf nx | None -> None

  let seek_le t k =
    let l = descend_le t.root k in
    (* Last index with key <= k is upper_bound - 1. *)
    let i = leaf_upper_bound l.lkeys l.lcount k - 1 in
    if i >= 0 then Some { cleaf = l; cidx = i }
    else match l.lprev with Some pv -> last_of_leaf pv | None -> None

  let neighbours t k =
    let pack = Option.map (fun c -> (key c, value c)) in
    (pack (seek_le t k), pack (seek_ge t k))

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

  (* Whether every entry before the finger is < [k]: the keys are
     sorted, so it is enough to look at the one just before it. *)
  let[@cq.hot] before_lt f k =
    let l = f.fleaf and i = f.fidx in
    if i > 0 then K.compare_at l.lkeys (i - 1) k < 0
    else
      match l.lprev with
      | Some p -> K.compare_at p.lkeys (p.lcount - 1) k < 0
      | None -> true

  let[@cq.hot] finger_descend f k =
    let l = descend_ge f.ftree.root k in
    let i = leaf_lower_bound l.lkeys l.lcount k in
    match l.lnext with
    | Some nx when i = l.lcount ->
        f.fleaf <- nx;
        f.fidx <- 0
    | _ ->
        f.fleaf <- l;
        f.fidx <- i

  (* When everything before the finger is < [k], the target lies at or
     after the finger: at the end if the finger is there, else in its
     leaf when the leaf's last key is >= [k], else in the next leaf
     when that one's is.  Any other target (one that went backwards,
     or jumped more than a leaf ahead) re-descends from the root. *)
  let[@cq.hot] finger_seek f k =
    let l = f.fleaf and i = f.fidx in
    let n = l.lcount in
    if before_lt f k then begin
      if i = n then ()
      else if K.compare_at l.lkeys (n - 1) k >= 0 then f.fidx <- lower_bound_from l.lkeys i n k
      else
        match l.lnext with
        | Some nx when K.compare_at nx.lkeys (nx.lcount - 1) k >= 0 ->
            f.fleaf <- nx;
            f.fidx <- lower_bound_from nx.lkeys 0 nx.lcount k
        | _ -> finger_descend f k
    end
    else finger_descend f k

  (* The leaf accessors a caller's own loop reads the finger's leaf
     through.  The finger keeps designating its entry: only
     [finger_set_index] and [finger_next_leaf] move it. *)
  let finger_keys f = f.fleaf.lkeys
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

  let finger_back_keys f =
    if f.fidx > 0 then f.fleaf.lkeys
    else match f.fleaf.lprev with Some p -> p.lkeys | None -> f.fleaf.lkeys

  let finger_back_index f =
    if f.fidx > 0 then f.fidx - 1
    else match f.fleaf.lprev with Some p -> p.lcount - 1 | None -> -1

  let finger_key f ~default =
    let l = f.fleaf in
    if f.fidx < l.lcount then l.lkeys.(f.fidx) else default

  let finger_prev_key f ~default =
    let l = f.fleaf and i = f.fidx in
    if i > 0 then l.lkeys.(i - 1)
    else match l.lprev with Some p -> p.lkeys.(p.lcount - 1) | None -> default

  (* A module-level loop rather than a local closure over [hi]/[x]/[g],
     so a walk allocates nothing. *)
  let[@cq.hot] rec iter_le_from l i hi x g =
    if i < l.lcount then begin
      if K.compare_at l.lkeys i hi <= 0 then begin
        g x l.lvals.(i);
        iter_le_from l (i + 1) hi x g
      end
    end
    else match l.lnext with Some nx -> iter_le_from nx 0 hi x g | None -> ()

  let[@cq.hot] finger_iter_le f hi x g = iter_le_from f.fleaf f.fidx hi x g

  (* The mirror loop: slot [i] of [l] and leftwards, while key >= [lo]. *)
  let[@cq.hot] rec iter_back_ge_from l i lo x g =
    if i >= 0 then begin
      if K.compare_at l.lkeys i lo >= 0 then begin
        g x l.lvals.(i);
        iter_back_ge_from l (i - 1) lo x g
      end
    end
    else match l.lprev with Some p -> iter_back_ge_from p (p.lcount - 1) lo x g | None -> ()

  let[@cq.hot] finger_iter_back_ge f lo x g = iter_back_ge_from f.fleaf (f.fidx - 1) lo x g

  let rec rightmost_leaf = function
    | Leaf l -> l
    | Internal nd -> rightmost_leaf nd.kids.(Array.length nd.kids - 1)

  let min_entry t =
    match first_of_leaf (leftmost_leaf t.root) with
    | Some c -> Some (key c, value c)
    | None -> None

  let max_entry t =
    match last_of_leaf (rightmost_leaf t.root) with
    | Some c -> Some (key c, value c)
    | None -> None

  let iter t f =
    let rec walk leaf =
      for i = 0 to leaf.lcount - 1 do
        f leaf.lkeys.(i) leaf.lvals.(i)
      done;
      match leaf.lnext with Some nx -> walk nx | None -> ()
    in
    walk (leftmost_leaf t.root)

  (* From the leftmost entry >= [lo] along the leaf chain, while the
     key is <= [hi]. *)
  let iter_range t ~lo ~hi f =
    let rec walk l i =
      if i < l.lcount then begin
        let k = l.lkeys.(i) in
        if K.compare k hi <= 0 then begin
          f k l.lvals.(i);
          walk l (i + 1)
        end
      end
      else match l.lnext with Some nx -> walk nx 0 | None -> ()
    in
    let l = descend_ge t.root lo in
    walk l (leaf_lower_bound l.lkeys l.lcount lo)

  let fold_range t ~lo ~hi f acc =
    let acc = ref acc in
    iter_range t ~lo ~hi (fun k v -> acc := f !acc k v);
    !acc

  let count_range t ~lo ~hi = fold_range t ~lo ~hi (fun n _ _ -> n + 1) 0

  let find_all t k =
    List.rev (fold_range t ~lo:k ~hi:k (fun acc _ v -> v :: acc) [])

  let to_list t =
    let acc = ref [] in
    iter t (fun k v -> acc := (k, v) :: !acc);
    List.rev !acc

  (* ------------------------------------------------------------------ *)
  (* Bulk loading                                                        *)
  (* ------------------------------------------------------------------ *)

  let of_sorted ?(order = 16) entries =
    if order < 2 then invalid_arg "Btree.of_sorted: order must be >= 2";
    let n = Array.length entries in
    for i = 1 to n - 1 do
      if K.compare (fst entries.(i - 1)) (fst entries.(i)) > 0 then
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
      let nchunks =
        pick_groups n ~target:(3 * order / 2) ~min_size:order ~max_size:(2 * order)
      in
      let leaves =
        Array.init nchunks (fun c ->
            let start = c * n / nchunks in
            let stop = (c + 1) * n / nchunks in
            let k0, v0 = entries.(start) in
            let l = alloc_leaf t ~key:k0 ~v:v0 ~count:(stop - start) ~lnext:None ~lprev:None in
            for i = start to stop - 1 do
              l.lkeys.(i - start) <- fst entries.(i);
              l.lvals.(i - start) <- snd entries.(i)
            done;
            l)
      in
      Array.iteri
        (fun i l ->
          if i > 0 then l.lprev <- Some leaves.(i - 1);
          if i < nchunks - 1 then l.lnext <- Some leaves.(i + 1))
        leaves;
      (* Build internal levels bottom-up.  [mins.(i)] is the smallest
         key under node [i]; group boundaries use it as separator. *)
      let rec build (nodes : 'a node array) (mins : K.t array) =
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
          let parents =
            Array.init ngroups (fun g ->
                let start = g * m / ngroups in
                let stop = (g + 1) * m / ngroups in
                let kids = Array.sub nodes start (stop - start) in
                let seps = Array.init (stop - start - 1) (fun i -> mins.(start + i + 1)) in
                Internal { seps; kids })
          in
          let pmins = Array.init ngroups (fun g -> mins.(g * m / ngroups)) in
          build parents pmins
        end
      in
      let lnodes = Array.map (fun l -> Leaf l) leaves in
      let lmins = Array.map (fun l -> l.lkeys.(0)) leaves in
      t.root <- build lnodes lmins;
      t.size <- n;
      t
    end

  (* ------------------------------------------------------------------ *)
  (* Invariant checking (test support)                                   *)
  (* ------------------------------------------------------------------ *)

  let check_invariants t =
    let fail fmt = Cq_util.Error.corrupt ~structure:"btree" fmt in
    let b = t.order in
    (* Returns (depth, min_key, max_key, entry_count); bounds are None
       for empty subtrees (only the empty root). *)
    let rec check ~is_root node =
      match node with
      | Leaf l ->
          let n = l.lcount in
          if Array.length l.lvals <> Array.length l.lkeys then
            fail "leaf keys/vals capacity mismatch";
          if n > Array.length l.lkeys then fail "leaf count exceeds capacity";
          if Array.length l.lkeys > 0 && Array.length l.lkeys <> leaf_capacity b then
            fail "leaf capacity %d not %d" (Array.length l.lkeys) (leaf_capacity b);
          if (not is_root) && n < b then fail "leaf underflow: %d < %d" n b;
          if n > 2 * b then fail "leaf overflow: %d > %d" n (2 * b);
          for i = 1 to n - 1 do
            if K.compare l.lkeys.(i - 1) l.lkeys.(i) > 0 then fail "leaf keys out of order"
          done;
          let bounds = if n = 0 then None else Some (l.lkeys.(0), l.lkeys.(n - 1)) in
          (1, bounds, n)
      | Internal nd ->
          let ns = Array.length nd.seps in
          if Array.length nd.kids <> ns + 1 then fail "internal kids/seps mismatch";
          if (not is_root) && ns < b then fail "internal underflow";
          if ns > 2 * b then fail "internal overflow";
          if is_root && ns < 1 then fail "internal root with < 1 separator";
          for i = 1 to ns - 1 do
            if K.compare nd.seps.(i - 1) nd.seps.(i) > 0 then fail "separators out of order"
          done;
          let depth = ref 0 and total = ref 0 in
          let lo_bound = ref None and hi_bound = ref None in
          Array.iteri
            (fun i kid ->
              let d, bounds, cnt = check ~is_root:false kid in
              if !depth = 0 then depth := d
              else if d <> !depth then fail "non-uniform depth";
              total := !total + cnt;
              (match bounds with
              | None -> fail "empty non-root child"
              | Some (mn, mx) ->
                  if i = 0 then lo_bound := Some mn;
                  if i = Array.length nd.kids - 1 then hi_bound := Some mx;
                  if i > 0 && K.compare nd.seps.(i - 1) mn > 0 then
                    fail "separator above child's min key";
                  if i < ns && K.compare mx nd.seps.(i) > 0 then
                    fail "child's max key above separator"))
            nd.kids;
          let bounds =
            match (!lo_bound, !hi_bound) with Some a, Some b -> Some (a, b) | _ -> None
          in
          (!depth + 1, bounds, !total)
    in
    let _, _, total = check ~is_root:true t.root in
    if total <> t.size then fail "size mismatch: counted %d, recorded %d" total t.size;
    (* Leaf chain must visit every entry in order. *)
    let chain_count = ref 0 in
    let last = ref None in
    let rec walk leaf =
      for i = 0 to leaf.lcount - 1 do
        let k = leaf.lkeys.(i) in
        (match !last with
        | Some pk when K.compare pk k > 0 -> fail "leaf chain out of order"
        | _ -> ());
        last := Some k;
        incr chain_count
      done;
      match leaf.lnext with
      | Some nx ->
          (match nx.lprev with
          | Some back when back == leaf -> ()
          | _ -> fail "broken lprev link");
          walk nx
      | None -> ()
    in
    walk (leftmost_leaf t.root);
    if !chain_count <> t.size then fail "leaf chain count mismatch"
end

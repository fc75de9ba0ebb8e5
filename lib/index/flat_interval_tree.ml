module I = Cq_interval.Interval

(* Implementation notes.

   An AVL tree on the key (lo, hi) with a max-right-endpoint
   augmentation, laid out as a struct-of-arrays arena: node [i]'s
   fields live at index [i] of the [lo]/[hi]/[maxhi] float columns and
   the [left]/[right]/[height] int columns.  Float columns are
   monomorphic float arrays, so endpoints are stored flat (unboxed);
   child links are immediate ints.  The only boxed word per entry is
   the payload's [Some] cell, allocated once at [add].  A [stab]
   therefore touches no pointers except the payload it reports and
   allocates nothing, where a node-per-entry tree chases one heap node
   per visited entry.

   Freed slots are threaded into a free list through the [left] column
   ([free] holds the head); a released slot drops its payload reference
   immediately so the arena never pins dead user data.  The arena only
   grows (by doubling) — sizing is bounded by the high-water mark of
   live entries, which for the scattered-query population the engine
   stores here is exactly the paper's "few queries are scattered"
   regime.

   Emission order is part of the contract: duplicates of an equal
   (lo, hi) key are inserted to the right and rotations preserve the
   in-order sequence, so it is always the live entries sorted stably
   by (lo, hi) in insertion order.  [stab], [stab_batch] and
   [first_overlap] report in that sequence; the select processors'
   delivery order and the lazy partition's group choice rely on it. *)

let nil = -1

type 'a t = {
  mutable lo : float array;
  mutable hi : float array;
  mutable maxhi : float array; (* max right endpoint over the subtree *)
  mutable left : int array; (* child index, [nil] if none; doubles as the free-list next link *)
  mutable right : int array;
  mutable height : int array;
  mutable payload : 'a option array; (* [None] marks a free slot *)
  mutable root : int;
  mutable size : int;
  mutable free : int; (* free-list head threaded through [left] *)
  mutable limit : int; (* next never-used slot; slots >= limit are virgin *)
}

let create () =
  {
    lo = [||];
    hi = [||];
    maxhi = [||];
    left = [||];
    right = [||];
    height = [||];
    payload = [||];
    root = nil;
    size = 0;
    free = nil;
    limit = 0;
  }

let size t = t.size

let is_empty t = t.size = 0

let corrupt fmt = Cq_util.Error.corrupt ~structure:"flat_interval_tree" fmt

let payload_exn t i =
  match t.payload.(i) with Some p -> p | None -> corrupt "live node %d has no payload" i

(* ------------------------------------------------------------------ *)
(* Arena                                                                *)
(* ------------------------------------------------------------------ *)

let grow t =
  let cap = Array.length t.lo in
  let ncap = if cap = 0 then 16 else 2 * cap in
  let widen a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.lo <- widen t.lo 0.0;
  t.hi <- widen t.hi 0.0;
  t.maxhi <- widen t.maxhi 0.0;
  t.left <- widen t.left nil;
  t.right <- widen t.right nil;
  t.height <- widen t.height 0;
  t.payload <- widen t.payload None

let alloc t ~key_lo ~key_hi p =
  let i =
    if t.free <> nil then begin
      let i = t.free in
      t.free <- t.left.(i);
      i
    end
    else begin
      if t.limit = Array.length t.lo then grow t;
      let i = t.limit in
      t.limit <- t.limit + 1;
      i
    end
  in
  t.lo.(i) <- key_lo;
  t.hi.(i) <- key_hi;
  t.maxhi.(i) <- key_hi;
  t.left.(i) <- nil;
  t.right.(i) <- nil;
  t.height.(i) <- 1;
  t.payload.(i) <- Some p;
  i

let release t i =
  t.payload.(i) <- None;
  t.left.(i) <- t.free;
  t.free <- i

(* ------------------------------------------------------------------ *)
(* AVL plumbing                                                         *)
(* ------------------------------------------------------------------ *)

let h t i = if i = nil then 0 else t.height.(i)

let mh t i = if i = nil then neg_infinity else t.maxhi.(i)

let update t i =
  t.height.(i) <- 1 + max (h t t.left.(i)) (h t t.right.(i));
  t.maxhi.(i) <- Float.max t.hi.(i) (Float.max (mh t t.left.(i)) (mh t t.right.(i)))

let balance_factor t i = h t t.left.(i) - h t t.right.(i)

let rotate_right t i =
  let l = t.left.(i) in
  t.left.(i) <- t.right.(l);
  t.right.(l) <- i;
  update t i;
  update t l;
  l

let rotate_left t i =
  let r = t.right.(i) in
  t.right.(i) <- t.left.(r);
  t.left.(r) <- i;
  update t i;
  update t r;
  r

let rebalance t i =
  let b = balance_factor t i in
  if b > 1 then begin
    if balance_factor t t.left.(i) < 0 then t.left.(i) <- rotate_left t t.left.(i);
    rotate_right t i
  end
  else if b < -1 then begin
    if balance_factor t t.right.(i) > 0 then t.right.(i) <- rotate_right t t.right.(i);
    rotate_left t i
  end
  else i

(* Order by (lo, hi): compare the key [(key_lo, key_hi)] against
   node [j]. *)
let cmp_key t key_lo key_hi j =
  let c = Float.compare key_lo t.lo.(j) in
  if c <> 0 then c else Float.compare key_hi t.hi.(j)

(* ------------------------------------------------------------------ *)
(* Insertion                                                            *)
(* ------------------------------------------------------------------ *)

(* Equal keys go right so duplicates coexist in insertion order. *)
let rec insert_at t i nd =
  if i = nil then nd
  else begin
    if cmp_key t t.lo.(nd) t.hi.(nd) i < 0 then t.left.(i) <- insert_at t t.left.(i) nd
    else t.right.(i) <- insert_at t t.right.(i) nd;
    update t i;
    rebalance t i
  end

let add t iv p =
  let nd = alloc t ~key_lo:(I.lo iv) ~key_hi:(I.hi iv) p in
  t.root <- insert_at t t.root nd;
  t.size <- t.size + 1

(* ------------------------------------------------------------------ *)
(* Removal                                                              *)
(* ------------------------------------------------------------------ *)

(* Detach the minimum node of subtree [i]; returns (new subtree root,
   detached slot).  The detached slot keeps its key and payload. *)
let rec detach_min t i =
  if t.left.(i) = nil then (t.right.(i), i)
  else begin
    let l, m = detach_min t t.left.(i) in
    t.left.(i) <- l;
    update t i;
    (rebalance t i, m)
  end

let not_found = -2

(* Remove one entry with exactly key (key_lo, key_hi) whose payload
   satisfies [pred]; returns the new subtree root or [not_found].  The
   tree is only mutated on the success path. *)
let rec del t i key_lo key_hi pred =
  if i = nil then not_found
  else
    let c = cmp_key t key_lo key_hi i in
    if c < 0 then
      let l = del t t.left.(i) key_lo key_hi pred in
      if l = not_found then not_found
      else begin
        t.left.(i) <- l;
        update t i;
        rebalance t i
      end
    else if c > 0 then
      let r = del t t.right.(i) key_lo key_hi pred in
      if r = not_found then not_found
      else begin
        t.right.(i) <- r;
        update t i;
        rebalance t i
      end
    else if pred (payload_exn t i) then
      if t.left.(i) = nil then begin
        let r = t.right.(i) in
        release t i;
        r
      end
      else if t.right.(i) = nil then begin
        let l = t.left.(i) in
        release t i;
        l
      end
      else begin
        (* Two children: the in-order successor (the minimum of the
           right subtree) takes over this slot's position, which keeps
           the in-order sequence intact. *)
        let r, s = detach_min t t.right.(i) in
        t.left.(s) <- t.left.(i);
        t.right.(s) <- r;
        release t i;
        update t s;
        rebalance t s
      end
    else
      (* Same key, wrong payload: equal keys were inserted to the
         right, but rotations can move them to either side — search
         right first, then left. *)
      let r = del t t.right.(i) key_lo key_hi pred in
      if r <> not_found then begin
        t.right.(i) <- r;
        update t i;
        rebalance t i
      end
      else
        let l = del t t.left.(i) key_lo key_hi pred in
        if l = not_found then not_found
        else begin
          t.left.(i) <- l;
          update t i;
          rebalance t i
        end

let remove t iv pred =
  let r = del t t.root (I.lo iv) (I.hi iv) pred in
  if r = not_found then false
  else begin
    t.root <- r;
    t.size <- t.size - 1;
    true
  end

(* ------------------------------------------------------------------ *)
(* Stabbing                                                             *)
(* ------------------------------------------------------------------ *)

let[@cq.hot] rec stab_at t i x f =
  (* Prune: nothing below contains x if every right endpoint is to its
     left.  Matches are reported in in-order sequence. *)
  if i <> nil && t.maxhi.(i) >= x then begin
    stab_at t t.left.(i) x f;
    if t.lo.(i) <= x then begin
      if x <= t.hi.(i) then f (payload_exn t i);
      (* Keys in the right subtree have lo >= this lo; if this lo is
         already past x, so are theirs. *)
      stab_at t t.right.(i) x f
    end
  end

let[@cq.hot] stab t x f = stab_at t t.root x f

let stab_count t x =
  let n = ref 0 in
  stab t x (fun _ -> incr n);
  !n

let[@cq.hot] stab_batch t ~keys ~f =
  let n = Array.length keys in
  if n = 1 then stab t keys.(0) (fun p -> f ~idx:0 p)
  else if n > 1 then begin
    (* One descent answers every key: sort the key indices (the keys
       array itself is the caller's and is left untouched), then walk
       the tree once, narrowing the live key window [jlo, jhi) at each
       node.  Per key the visited entries and their order are exactly
       those of a scalar [stab] — the window conditions below are the
       per-node conditions of [stab_at] applied to a sorted run. *)
    let perm = Array.make n 0 in
    for j = 0 to n - 1 do
      perm.(j) <- j
    done;
    Array.sort (fun a b -> Float.compare keys.(a) keys.(b)) perm;
    let key j = keys.(perm.(j)) in
    (* First index in [a, b) whose key is > v. *)
    let upper v a b =
      let a = ref a and b = ref b in
      while !a < !b do
        let m = (!a + !b) / 2 in
        if key m <= v then a := m + 1 else b := m
      done;
      !a
    in
    (* First index in [a, b) whose key is >= v. *)
    let lower v a b =
      let a = ref a and b = ref b in
      while !a < !b do
        let m = (!a + !b) / 2 in
        if key m < v then a := m + 1 else b := m
      done;
      !a
    in
    let rec go i jlo jhi =
      if i <> nil && jlo < jhi then begin
        (* maxhi prune: keys above every right endpoint match nothing
           in this subtree. *)
        let jhi = upper t.maxhi.(i) jlo jhi in
        if jlo < jhi then begin
          go t.left.(i) jlo jhi;
          let a = lower t.lo.(i) jlo jhi in
          let b = upper t.hi.(i) a jhi in
          if a < b then begin
            let p = payload_exn t i in
            for j = a to b - 1 do
              f ~idx:perm.(j) p
            done
          end;
          (* Right subtree holds keys with lo >= this lo: only stab
             points >= this lo can match there. *)
          go t.right.(i) a jhi
        end
      end
    in
    go t.root 0 n
  end

(* ------------------------------------------------------------------ *)
(* Overlap lookup                                                       *)
(* ------------------------------------------------------------------ *)

let first_overlap t q =
  if I.is_empty q then None
  else begin
    let qlo = I.lo q and qhi = I.hi q in
    (* An in-order walk under the maxhi pruning of [stab_at] that stops
       at the first entry with lo <= qhi and hi >= qlo. *)
    let rec go i =
      if i = nil || t.maxhi.(i) < qlo then None
      else
        match go t.left.(i) with
        | Some _ as found -> found
        | None ->
            if t.lo.(i) > qhi then None
            else if t.hi.(i) >= qlo then Some (payload_exn t i)
            else go t.right.(i)
    in
    go t.root
  end

(* ------------------------------------------------------------------ *)
(* Iteration                                                            *)
(* ------------------------------------------------------------------ *)

let rec iter_at t i f =
  if i <> nil then begin
    iter_at t t.left.(i) f;
    f (payload_exn t i);
    iter_at t t.right.(i) f
  end

let iter t f = iter_at t t.root f

let to_list t =
  let acc = ref [] in
  let rec go i =
    if i <> nil then begin
      go t.right.(i);
      acc := (t.lo.(i), t.hi.(i), payload_exn t i) :: !acc;
      go t.left.(i)
    end
  in
  go t.root;
  !acc

(* ------------------------------------------------------------------ *)
(* Invariants                                                           *)
(* ------------------------------------------------------------------ *)

let check_invariants t =
  let rec go i =
    if i = nil then (0, neg_infinity, 0)
    else begin
      (match t.payload.(i) with None -> corrupt "reachable node %d has no payload" i | Some _ -> ());
      let hl, ml, cl = go t.left.(i) in
      let hr, mr, cr = go t.right.(i) in
      if abs (hl - hr) > 1 then corrupt "AVL imbalance";
      if t.height.(i) <> 1 + max hl hr then corrupt "stale height";
      let expect = Float.max t.hi.(i) (Float.max ml mr) in
      if t.maxhi.(i) <> expect then corrupt "stale maxhi";
      (if t.left.(i) <> nil then
         let l = t.left.(i) in
         if cmp_key t t.lo.(l) t.hi.(l) i > 0 then corrupt "left key above node");
      (if t.right.(i) <> nil then
         let r = t.right.(i) in
         if cmp_key t t.lo.(r) t.hi.(r) i < 0 then corrupt "right key below node");
      (t.height.(i), t.maxhi.(i), 1 + cl + cr)
    end
  in
  let _, _, live = go t.root in
  if live <> t.size then corrupt "size mismatch: %d reachable nodes, %d recorded" live t.size;
  (* Free slots and reachable nodes must partition the used arena
     prefix exactly: no leaks, no double frees, no payload pinning. *)
  let freec = ref 0 in
  let fi = ref t.free in
  while !fi <> nil do
    if !freec > t.limit then corrupt "free list cycles";
    (match t.payload.(!fi) with
    | Some _ -> corrupt "free slot %d pins a payload" !fi
    | None -> ());
    incr freec;
    fi := t.left.(!fi)
  done;
  if live + !freec <> t.limit then
    corrupt "arena leak: %d reachable + %d free <> %d allocated" live !freec t.limit

module I = Cq_interval.Interval
module Vec = Cq_util.Vec

(* Implementation notes.

   A Guttman R-tree (quadratic split, CondenseTree with re-insertion)
   laid out in flat columns.  A node holds its [n] entries in slots
   [0, n): the bounds of entry [i] are [xlo.(i)], [xhi.(i)], [ylo.(i)]
   and [yhi.(i)], and the entry is the payload [pay.(i)] in a leaf or
   the child [kid.(i)] in an internal node, whose bounds are then that
   child's MBR.  So a node's own MBR lives in its parent's columns and
   the root's is never stored.  Every column has capacity M + 1: an
   overfull node holds its extra entry until the split moves half of
   them out.  A leaf's [kid] is empty, which is how a leaf is told
   apart; a fresh leaf's [pay] stays empty until its first entry gives
   [Array.make] a fill value.

   The float columns are flat float arrays, so [stab] compares unboxed
   floats and allocates nothing.  [insert] and [remove] copy the
   rectangle's bounds into the tree's [q] column once and pass nothing
   else that boxes; the split works on slot indices in a per-tree
   scratch record made at the first split.  The only allocation left is
   the node a split (or a new root) creates.

   Slots past [n] keep stale references after a remove or a split;
   [drop] points them at slot 0's live entry, so a dissolved subtree or
   a deleted payload is not kept alive.

   The tie-breaks the interface fixes (the split's seed pair, PickNext's
   swap-remove, the pops of a forced assignment, append positions,
   swap-remove on deletion, re-insertion order) and the float
   expressions of every area and enlargement are part of the tree's
   shape, and with it of the select processors' delivery order: keep
   them.  Unbounded sides make some of those expressions NaN (inf - inf,
   or 0 * inf); a NaN never wins a comparison, so a candidate scored NaN
   is passed over, and when every candidate is, the first one is taken. *)

type 'a node = {
  xlo : float array;
  xhi : float array;
  ylo : float array;
  yhi : float array;
  mutable n : int;
  mutable pay : 'a array; (* leaf payloads; empty in an internal node *)
  kid : 'a node array; (* children; empty in a leaf *)
}

(* The quadratic split's working set: the two groups' MBRs in [g]
   (group a at 0..3, group b at 4..7, each xlo, xhi, ylo, yhi), the
   slot indices of each group in assignment order and the unassigned
   slots. *)
type split = {
  g : float array;
  ga : int array;
  gb : int array;
  rem : int array;
}

type 'a t = {
  mutable root : 'a node;
  mutable count : int;
  max_entries : int;
  min_entries : int;
  q : float array; (* bounds of the entry being inserted or removed *)
  dissolved : 'a node Vec.t; (* CondenseTree's dissolved nodes, in order *)
  mutable sp : split option;
}

let cap t = t.max_entries + 1
let is_leaf nd = Array.length nd.kid = 0

let node cap ~pay ~kid =
  {
    xlo = Array.make cap 0.0;
    xhi = Array.make cap 0.0;
    ylo = Array.make cap 0.0;
    yhi = Array.make cap 0.0;
    n = 0;
    pay;
    kid;
  }

let create ?(max_entries = 8) () =
  if max_entries < 4 then invalid_arg "Rtree.create: max_entries must be >= 4";
  {
    root = node (max_entries + 1) ~pay:[||] ~kid:[||];
    count = 0;
    max_entries;
    min_entries = max 2 (max_entries / 2);
    q = Array.make 4 0.0;
    dissolved = Vec.create ();
    sp = None;
  }

let size t = t.count

(* Endpoints are never NaN (Interval.make rejects it), so these agree
   with Float.min/Float.max on every stored bound. *)
let[@inline] fmin (a : float) b = if b < a then b else a
let[@inline] fmax (a : float) b = if b > a then b else a

(* Area of the MBR of [m] and [r], less the area of [m]: the
   enlargement [m] needs to absorb [r]. *)
let[@inline] enlargement mxlo mxhi mylo myhi rxlo rxhi rylo ryhi =
  ((fmax mxhi rxhi -. fmin mxlo rxlo) *. (fmax myhi ryhi -. fmin mylo rylo))
  -. ((mxhi -. mxlo) *. (myhi -. mylo))

let[@inline] area nd i = (nd.xhi.(i) -. nd.xlo.(i)) *. (nd.yhi.(i) -. nd.ylo.(i))

let[@inline] set_bounds nd i xlo xhi ylo yhi =
  nd.xlo.(i) <- xlo;
  nd.xhi.(i) <- xhi;
  nd.ylo.(i) <- ylo;
  nd.yhi.(i) <- yhi

(* Slot [j] of [dst] := the MBR of [nd]'s entries ([nd.n >= 1]). *)
let mbr_into nd dst j =
  let xlo = ref nd.xlo.(0) and xhi = ref nd.xhi.(0) in
  let ylo = ref nd.ylo.(0) and yhi = ref nd.yhi.(0) in
  for i = 1 to nd.n - 1 do
    xlo := fmin !xlo nd.xlo.(i);
    xhi := fmax !xhi nd.xhi.(i);
    ylo := fmin !ylo nd.ylo.(i);
    yhi := fmax !yhi nd.yhi.(i)
  done;
  set_bounds dst j !xlo !xhi !ylo !yhi

(* Point the slots past [n] at slot 0's live entry; an emptied leaf
   (only ever the root) lets go of its payloads. *)
let drop nd =
  if nd.n = 0 then (if is_leaf nd then nd.pay <- [||])
  else if is_leaf nd then Array.fill nd.pay nd.n (Array.length nd.pay - nd.n) nd.pay.(0)
    else Array.fill nd.kid nd.n (Array.length nd.kid - nd.n) nd.kid.(0)

(* Entry [i] of [src] into slot [k] of [dst], a node of the same kind. *)
let move src i dst k =
  set_bounds dst k src.xlo.(i) src.xhi.(i) src.ylo.(i) src.yhi.(i);
  if is_leaf src then dst.pay.(k) <- src.pay.(i) else dst.kid.(k) <- src.kid.(i)

(* Remove slot [i]: the last entry moves into it. *)
let swap_remove nd i =
  let last = nd.n - 1 in
  move nd last nd i;
  nd.n <- last;
  drop nd

(* --------------------------------------------------------------------- *)
(* Quadratic split (Guttman 1984)                                          *)
(* --------------------------------------------------------------------- *)

let split_scratch t =
  match t.sp with
  | Some s -> s
  | None ->
      let c = cap t in
      let s =
        { g = Array.make 8 0.0; ga = Array.make c 0; gb = Array.make c 0; rem = Array.make c 0 }
      in
      t.sp <- Some s;
      s

(* Group [o] (0 for a, 4 for b) absorbs slot [i] of [nd]. *)
let absorb (g : float array) o nd i =
  g.(o) <- fmin g.(o) nd.xlo.(i);
  g.(o + 1) <- fmax g.(o + 1) nd.xhi.(i);
  g.(o + 2) <- fmin g.(o + 2) nd.ylo.(i);
  g.(o + 3) <- fmax g.(o + 3) nd.yhi.(i)

let[@inline] group_enlargement (g : float array) o nd i =
  enlargement g.(o) g.(o + 1) g.(o + 2) g.(o + 3) nd.xlo.(i) nd.xhi.(i) nd.ylo.(i) nd.yhi.(i)

(* Group [o] starts as slot [i] of [nd]. *)
let seed (g : float array) o nd i =
  g.(o) <- nd.xlo.(i);
  g.(o + 1) <- nd.xhi.(i);
  g.(o + 2) <- nd.ylo.(i);
  g.(o + 3) <- nd.yhi.(i)

let[@inline] group_area (g : float array) o = (g.(o + 1) -. g.(o)) *. (g.(o + 3) -. g.(o + 2))

(* Split the overfull [nd] (M + 1 entries) into two groups of at least
   [min_entries]: the first stays in [nd], the second goes to the new
   sibling, which is returned. *)
let split t nd =
  let sp = split_scratch t in
  let n = nd.n and g = sp.g and ga = sp.ga and gb = sp.gb and rem = sp.rem in
  (* Pick seeds: the pair wasting the most area if grouped together. *)
  let seed_a = ref 0 and seed_b = ref 1 and worst = ref neg_infinity in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let whole =
        (fmax nd.xhi.(i) nd.xhi.(j) -. fmin nd.xlo.(i) nd.xlo.(j))
        *. (fmax nd.yhi.(i) nd.yhi.(j) -. fmin nd.ylo.(i) nd.ylo.(j))
      in
      let waste = whole -. area nd i -. area nd j in
      if waste > !worst then begin
        worst := waste;
        seed_a := i;
        seed_b := j
      end
    done
  done;
  let sa = !seed_a and sb = !seed_b in
  seed g 0 nd sa;
  seed g 4 nd sb;
  ga.(0) <- sa;
  gb.(0) <- sb;
  let na = ref 1 and nb = ref 1 and nr = ref 0 in
  for i = 0 to n - 1 do
    if i <> sa && i <> sb then begin
      rem.(!nr) <- i;
      incr nr
    end
  done;
  let min_fill = t.min_entries in
  while !nr > 0 do
    let left = !nr in
    (* Force-assign when a group must take every remaining item to
       reach minimum occupancy: pop them off the end. *)
    if !na + left = min_fill then
      while !nr > 0 do
        decr nr;
        let it = rem.(!nr) in
        absorb g 0 nd it;
        ga.(!na) <- it;
        incr na
      done
    else if !nb + left = min_fill then
      while !nr > 0 do
        decr nr;
        let it = rem.(!nr) in
        absorb g 4 nd it;
        gb.(!nb) <- it;
        incr nb
      done
    else begin
      (* PickNext: the item with the strongest preference, swap-removed
         from the remaining ones. *)
      let best = ref 0 and best_diff = ref neg_infinity in
      for i = 0 to left - 1 do
        let it = rem.(i) in
        let da = group_enlargement g 0 nd it and db = group_enlargement g 4 nd it in
        let diff = Float.abs (da -. db) in
        if diff > !best_diff then begin
          best_diff := diff;
          best := i
        end
      done;
      let it = rem.(!best) in
      decr nr;
      rem.(!best) <- rem.(!nr);
      let da = group_enlargement g 0 nd it and db = group_enlargement g 4 nd it in
      let to_a =
        if da < db then true
        else if db < da then false
        else
          let aa = group_area g 0 and ab = group_area g 4 in
          if aa < ab then true else if ab < aa then false else !na <= !nb
      in
      if to_a then begin
        absorb g 0 nd it;
        ga.(!na) <- it;
        incr na
      end
      else begin
        absorb g 4 nd it;
        gb.(!nb) <- it;
        incr nb
      end
    end
  done;
  (* The new sibling stages both groups, a then b, in assignment
     order; group a moves back into [nd]'s first slots and group b
     down to the sibling's. *)
  let na = !na and nb = !nb and c = cap t in
  let sib =
    if is_leaf nd then node c ~pay:(Array.make c nd.pay.(0)) ~kid:[||]
    else node c ~pay:[||] ~kid:(Array.make c nd.kid.(0))
  in
  for k = 0 to na - 1 do
    move nd ga.(k) sib k
  done;
  for k = 0 to nb - 1 do
    move nd gb.(k) sib (na + k)
  done;
  for k = 0 to na - 1 do
    move sib k nd k
  done;
  for k = 0 to nb - 1 do
    move sib (na + k) sib k
  done;
  nd.n <- na;
  drop nd;
  sib.n <- nb;
  drop sib;
  sib

(* --------------------------------------------------------------------- *)
(* Insertion                                                               *)
(* --------------------------------------------------------------------- *)

(* The child needing the least enlargement to absorb [q], ties to the
   smaller area, then to the first. *)
let choose_child nd (q : float array) =
  let best = ref 0 and best_enl = ref infinity and best_area = ref infinity in
  for i = 0 to nd.n - 1 do
    let enl =
      enlargement nd.xlo.(i) nd.xhi.(i) nd.ylo.(i) nd.yhi.(i) q.(0) q.(1) q.(2) q.(3)
    in
    let a = area nd i in
    if enl < !best_enl || (enl = !best_enl && a < !best_area) then begin
      best := i;
      best_enl := enl;
      best_area := a
    end
  done;
  !best

(* Insert the entry with bounds [t.q] beneath [nd]; returns the new
   sibling when [nd] split, else [nd] itself.  [nd]'s own MBR is its
   parent's business. *)
let rec insert_rec t nd payload =
  let q = t.q in
  if is_leaf nd then begin
    if Array.length nd.pay = 0 then nd.pay <- Array.make (cap t) payload;
    let i = nd.n in
    set_bounds nd i q.(0) q.(1) q.(2) q.(3);
    nd.pay.(i) <- payload;
    nd.n <- i + 1;
    if nd.n <= t.max_entries then nd else split t nd
  end
  else begin
    let ci = choose_child nd q in
    let c = nd.kid.(ci) in
    let s = insert_rec t c payload in
    if s == c then begin
      nd.xlo.(ci) <- fmin nd.xlo.(ci) q.(0);
      nd.xhi.(ci) <- fmax nd.xhi.(ci) q.(1);
      nd.ylo.(ci) <- fmin nd.ylo.(ci) q.(2);
      nd.yhi.(ci) <- fmax nd.yhi.(ci) q.(3);
      nd
    end
    else begin
      mbr_into c nd ci;
      let j = nd.n in
      mbr_into s nd j;
      nd.kid.(j) <- s;
      nd.n <- j + 1;
      if nd.n <= t.max_entries then nd else split t nd
    end
  end

(* Insert the entry with bounds [t.q], growing a new root on a root
   split. *)
let place t payload =
  let root = t.root in
  let s = insert_rec t root payload in
  if s != root then begin
    let r = node (cap t) ~pay:[||] ~kid:(Array.make (cap t) root) in
    mbr_into root r 0;
    mbr_into s r 1;
    r.kid.(1) <- s;
    r.n <- 2;
    t.root <- r
  end;
  t.count <- t.count + 1

let load_q t (r : Rect.t) =
  let q = t.q in
  q.(0) <- r.x.I.lo;
  q.(1) <- r.x.I.hi;
  q.(2) <- r.y.I.lo;
  q.(3) <- r.y.I.hi

let insert t r payload =
  if Rect.is_empty r then invalid_arg "Rtree.insert: empty rectangle";
  load_q t r;
  place t payload

(* --------------------------------------------------------------------- *)
(* Deletion (with CondenseTree re-insertion)                               *)
(* --------------------------------------------------------------------- *)

(* Remove the first entry with bounds [t.q] whose payload satisfies
   [pred] beneath [nd]; [true] if one was.  A non-root node left
   underfull is detached and queued on [t.dissolved]; the others get
   their MBR recomputed in [nd]'s columns. *)
let rec remove_rec t nd pred =
  let q = t.q in
  let found = ref false and i = ref 0 in
  if is_leaf nd then begin
    while (not !found) && !i < nd.n do
      let k = !i in
      if
        nd.xlo.(k) = q.(0)
        && nd.xhi.(k) = q.(1)
        && nd.ylo.(k) = q.(2)
        && nd.yhi.(k) = q.(3)
        && pred nd.pay.(k)
      then begin
        swap_remove nd k;
        found := true
      end
      else incr i
    done;
    !found
  end
  else begin
    while (not !found) && !i < nd.n do
      let k = !i in
      let c = nd.kid.(k) in
      if
        nd.xlo.(k) <= q.(0)
        && q.(1) <= nd.xhi.(k)
        && nd.ylo.(k) <= q.(2)
        && q.(3) <= nd.yhi.(k)
        && remove_rec t c pred
      then begin
        found := true;
        if c.n < t.min_entries then begin
          Vec.push t.dissolved c;
          swap_remove nd k
        end
        else mbr_into c nd k
      end
      else incr i
    done;
    !found
  end

(* Re-insert every entry beneath a dissolved node, depth first. *)
let rec reinsert t nd =
  if is_leaf nd then
    for i = 0 to nd.n - 1 do
      let q = t.q in
      q.(0) <- nd.xlo.(i);
      q.(1) <- nd.xhi.(i);
      q.(2) <- nd.ylo.(i);
      q.(3) <- nd.yhi.(i);
      t.count <- t.count - 1;
      place t nd.pay.(i)
    done
  else
    for i = 0 to nd.n - 1 do
      reinsert t nd.kid.(i)
    done

(* Collapse a root with a single child. *)
let rec collapse t =
  let r = t.root in
  if not (is_leaf r) then
    if r.n = 1 then begin
      t.root <- r.kid.(0);
      collapse t
    end
    else if r.n = 0 then t.root <- node (cap t) ~pay:[||] ~kid:[||]

let remove t r pred =
  if Rect.is_empty r then false
  else begin
    load_q t r;
    let found = remove_rec t t.root pred in
    if found then begin
      t.count <- t.count - 1;
      collapse t;
      let d = t.dissolved in
      for k = 0 to Vec.length d - 1 do
        reinsert t (Vec.get d k)
      done;
      for k = 0 to Vec.length d - 1 do
        Vec.set d k t.root
      done;
      Vec.clear d
    end;
    found
  end

(* --------------------------------------------------------------------- *)
(* Queries                                                                 *)
(* --------------------------------------------------------------------- *)

let[@cq.hot] rec stab_node nd (x : float) (y : float) f =
  if is_leaf nd then
    for i = 0 to nd.n - 1 do
      if nd.xlo.(i) <= x && x <= nd.xhi.(i) && nd.ylo.(i) <= y && y <= nd.yhi.(i) then
        f nd.pay.(i)
    done
  else
    for i = 0 to nd.n - 1 do
      if nd.xlo.(i) <= x && x <= nd.xhi.(i) && nd.ylo.(i) <= y && y <= nd.yhi.(i) then
        stab_node nd.kid.(i) x y f
    done

let[@cq.hot] stab t ~x ~y f = stab_node t.root x y f

let stab_count t ~x ~y =
  let n = ref 0 in
  stab t ~x ~y (fun _ -> incr n);
  !n

let rec search_rec nd (w : Rect.t) f =
  for i = 0 to nd.n - 1 do
    if
      nd.xlo.(i) <= w.x.I.hi
      && w.x.I.lo <= nd.xhi.(i)
      && nd.ylo.(i) <= w.y.I.hi
      && w.y.I.lo <= nd.yhi.(i)
    then if is_leaf nd then f nd.pay.(i) else search_rec nd.kid.(i) w f
  done

let search t w f = if not (Rect.is_empty w) then search_rec t.root w f

let rect nd i =
  Rect.make ~x:(I.make nd.xlo.(i) nd.xhi.(i)) ~y:(I.make nd.ylo.(i) nd.yhi.(i))

let rec iter_rec nd f =
  for i = 0 to nd.n - 1 do
    if is_leaf nd then f (rect nd i) nd.pay.(i) else iter_rec nd.kid.(i) f
  done

let iter t f = iter_rec t.root f

(* --------------------------------------------------------------------- *)
(* Invariants (test support)                                               *)
(* --------------------------------------------------------------------- *)

let check_invariants t =
  let fail fmt = Cq_util.Error.corrupt ~structure:"rtree" fmt in
  let scratch = node 1 ~pay:[||] ~kid:[||] in
  let rec go ~is_root nd =
    let n = nd.n in
    if is_leaf nd then begin
      if (not is_root) && n < t.min_entries then fail "leaf underflow";
      if n > t.max_entries then fail "leaf overflow";
      (1, n)
    end
    else begin
      if (not is_root) && n < t.min_entries then fail "internal underflow";
      if is_root && n < 2 then fail "internal root with < 2 children";
      if n > t.max_entries then fail "internal overflow";
      let depth = ref 0 and total = ref 0 in
      for i = 0 to n - 1 do
        let c = nd.kid.(i) in
        let d, cnt = go ~is_root:false c in
        mbr_into c scratch 0;
        if
          not
            (scratch.xlo.(0) = nd.xlo.(i)
            && scratch.xhi.(0) = nd.xhi.(i)
            && scratch.ylo.(0) = nd.ylo.(i)
            && scratch.yhi.(0) = nd.yhi.(i))
        then fail (if is_leaf c then "stale leaf mbr" else "stale internal mbr");
        if !depth = 0 then depth := d else if d <> !depth then fail "non-uniform depth";
        total := !total + cnt
      done;
      (!depth + 1, !total)
    end
  in
  let _, total = go ~is_root:true t.root in
  if total <> t.count then fail "size mismatch: counted %d, recorded %d" total t.count

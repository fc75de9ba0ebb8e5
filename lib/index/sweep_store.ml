(* Implementation notes.

   A chunk holds up to [cap] windows in slots [0, count) of its [lo],
   [hi] and [pay] columns, sorted by (lo, hi) and, for equal keys, by
   insertion.  The chunks sit in order in [dir], an exactly-sized array
   replaced when a chunk is split off or merged away (as a B-tree's
   internal nodes are): those copies are O(n / cap) pointers once per
   Θ(cap) updates, and every other update moves slots inside one chunk.

   [bmax.(b)] is the largest [hi] of slots [b * block, (b + 1) * block)
   that are below [count], and [neg_infinity] for a block with none;
   [cmax] is the largest [bmax].  Every update recomputes the maxima of
   the blocks from its first moved slot to the chunk's end, O(cap).

   Slots past [count] hold [pay.(0)], so a removed payload is never
   pinned by a stale slot. *)

let cap = 64
let min_fill = 16
let block = 8
let nblocks = cap / block

type 'a chunk = {
  lo : float array;
  hi : float array;
  pay : 'a array;
  bmax : float array;
  mutable cmax : float;
  mutable count : int;
}

type 'a t = {
  mutable dir : 'a chunk array;
  mutable size : int;
}

let create () = { dir = [||]; size = 0 }
let size t = t.size

let corrupt fmt = Cq_util.Error.corrupt ~structure:"sweep_store" fmt

let new_chunk p =
  {
    lo = Array.make cap 0.0;
    hi = Array.make cap 0.0;
    pay = Array.make cap p;
    bmax = Array.make nblocks neg_infinity;
    cmax = neg_infinity;
    count = 0;
  }

(* Recompute the maxima of every block from the one holding slot
   [from] on, and the chunk's. *)
let refresh c from =
  for b = from / block to nblocks - 1 do
    let m = ref neg_infinity in
    for i = b * block to Int.min c.count ((b + 1) * block) - 1 do
      m := Float.max !m c.hi.(i)
    done;
    c.bmax.(b) <- !m
  done;
  let m = ref neg_infinity in
  for b = 0 to nblocks - 1 do
    m := Float.max !m c.bmax.(b)
  done;
  c.cmax <- !m

(* Point the slots [from, cap) past the count at the first payload. *)
let scrub c from =
  for i = from to cap - 1 do
    c.pay.(i) <- c.pay.(0)
  done

(* Move slots [src, src + len) of [a] to [dst] of [b] (any overlap). *)
let blit a src b dst len =
  Array.blit a.lo src b.lo dst len;
  Array.blit a.hi src b.hi dst len;
  Array.blit a.pay src b.pay dst len

(* Order by (lo, hi): the key (lo, hi) against slot [i] of [c]. *)
let cmp lo hi c i =
  let r = Float.compare lo c.lo.(i) in
  if r <> 0 then r else Float.compare hi c.hi.(i)

(* First slot of [c] whose key is > (lo, hi) ([past_equal]) or >= it. *)
let slot_bound ~past_equal lo hi c =
  let a = ref 0 and b = ref c.count in
  while !a < !b do
    let m = (!a + !b) / 2 in
    let r = cmp lo hi c m in
    if r > 0 || (past_equal && r = 0) then a := m + 1 else b := m
  done;
  !a

let dir_insert t k c =
  let n = Array.length t.dir in
  t.dir <- Array.init (n + 1) (fun j -> if j < k then t.dir.(j) else if j = k then c else t.dir.(j - 1))

let dir_remove t k =
  let n = Array.length t.dir in
  t.dir <- Array.init (n - 1) (fun j -> if j < k then t.dir.(j) else t.dir.(j + 1))

(* ------------------------------------------------------------------ *)
(* Add                                                                  *)
(* ------------------------------------------------------------------ *)

let insert_at c i lo hi p =
  blit c i c (i + 1) (c.count - i);
  c.lo.(i) <- lo;
  c.hi.(i) <- hi;
  c.pay.(i) <- p;
  c.count <- c.count + 1;
  if i = 0 then scrub c c.count;
  refresh c i

(* Split the full chunk [k] into two halves. *)
let split t k =
  let c = t.dir.(k) in
  let half = cap / 2 in
  let r = new_chunk c.pay.(half) in
  blit c half r 0 (cap - half);
  r.count <- cap - half;
  c.count <- half;
  scrub c half;
  refresh c half;
  refresh r 0;
  dir_insert t (k + 1) r

let add t (iv : Cq_interval.Interval.t) p =
  let lo = iv.lo and hi = iv.hi in
  if Array.length t.dir = 0 then t.dir <- [| new_chunk p |];
  (* The last chunk whose first key is <= (lo, hi), else the first:
     the new window goes after every equal key. *)
  let a = ref 1 and b = ref (Array.length t.dir) in
  while !a < !b do
    let m = (!a + !b) / 2 in
    if cmp lo hi t.dir.(m) 0 >= 0 then a := m + 1 else b := m
  done;
  let k = !a - 1 in
  let i = slot_bound ~past_equal:true lo hi t.dir.(k) in
  if t.dir.(k).count < cap then insert_at t.dir.(k) i lo hi p
  else begin
    split t k;
    let half = cap / 2 in
    if i <= half then insert_at t.dir.(k) i lo hi p
    else insert_at t.dir.(k + 1) (i - half) lo hi p
  end;
  t.size <- t.size + 1

(* ------------------------------------------------------------------ *)
(* Remove                                                               *)
(* ------------------------------------------------------------------ *)

(* Even out chunks [k] and [k + 1], or merge them when one chunk holds
   both. *)
let rebalance t k =
  let a = t.dir.(k) and b = t.dir.(k + 1) in
  let total = a.count + b.count in
  if total <= cap then begin
    blit b 0 a a.count b.count;
    a.count <- total;
    scrub a total;
    refresh a 0;
    dir_remove t (k + 1)
  end
  else begin
    let want = total / 2 in
    if a.count < want then begin
      let moved = want - a.count in
      blit b 0 a a.count moved;
      blit b moved b 0 (b.count - moved);
      b.count <- b.count - moved;
      a.count <- want;
      scrub a want;
      scrub b b.count;
      refresh a 0;
      refresh b 0
    end
    else begin
      let moved = a.count - want in
      blit b 0 b moved b.count;
      blit a want b 0 moved;
      b.count <- b.count + moved;
      a.count <- want;
      scrub a want;
      scrub b b.count;
      refresh a want;
      refresh b 0
    end
  end

let remove_at t k i =
  let c = t.dir.(k) in
  blit c (i + 1) c i (c.count - i - 1);
  c.count <- c.count - 1;
  (* The vacated slot, or the whole tail when the first payload
     changed. *)
  if i = 0 then scrub c c.count else c.pay.(c.count) <- c.pay.(0);
  refresh c i;
  t.size <- t.size - 1;
  let n = Array.length t.dir in
  if c.count = 0 && n = 1 then t.dir <- [||]
  else if c.count < min_fill && n > 1 then rebalance t (if k + 1 < n then k else k - 1)

let remove t (iv : Cq_interval.Interval.t) pred =
  let lo = iv.lo and hi = iv.hi in
  let n = Array.length t.dir in
  (* The first chunk whose last key is >= (lo, hi): equal keys start
     there and run forward, possibly over several chunks. *)
  let a = ref 0 and b = ref n in
  while !a < !b do
    let m = (!a + !b) / 2 in
    let c = t.dir.(m) in
    if cmp lo hi c (c.count - 1) > 0 then a := m + 1 else b := m
  done;
  let rec scan k i =
    if k >= n then false
    else
      let c = t.dir.(k) in
      if i >= c.count then scan (k + 1) 0
      else if cmp lo hi c i <> 0 then false
      else if pred c.pay.(i) then begin
        remove_at t k i;
        true
      end
      else scan k (i + 1)
  in
  !a < n && scan !a (slot_bound ~past_equal:false lo hi t.dir.(!a))

(* ------------------------------------------------------------------ *)
(* Sweep against a sorted key sequence                                  *)
(* ------------------------------------------------------------------ *)

(* [cells] is [| shift; at; before; key |] and [seek] moves the
   caller's finger to [cells.(3)], refreshing [at] and [before].  A
   window whose shifted lo lies in (before, at] needs no seek: [at] is
   already the first key at or above it.  Shifted lo ends only rise
   along the scan, so every key the finger passed is below every
   window still to come: a block whose max hi + shift is below [at]
   holds no window that reaches a key, and once [at] is past the last
   key ([infinity]) nothing does.  Each loop returns [false] once the
   finger has run off the end, which ends the sweep. *)

(* Windows [i, stop) of chunk [c]. *)
let[@cq.hot] rec sweep_windows c i stop cells seek hit =
  if i >= stop then true
  else begin
    let shift = cells.(0) in
    let lo = c.lo.(i) +. shift in
    if not (cells.(2) < lo && lo <= cells.(1)) then begin
      cells.(3) <- lo;
      seek ()
    end;
    let at = cells.(1) in
    if at < infinity then begin
      if at <= c.hi.(i) +. shift then hit c.pay.(i);
      sweep_windows c (i + 1) stop cells seek hit
    end
    else false
  end

(* Blocks [b, ..) of chunk [c]. *)
let[@cq.hot] rec sweep_blocks c b cells seek hit =
  let start = b * block in
  if start >= c.count then true
  else if c.bmax.(b) +. cells.(0) < cells.(1) then sweep_blocks c (b + 1) cells seek hit
  else
    sweep_windows c start (Int.min c.count (start + block)) cells seek hit
    && sweep_blocks c (b + 1) cells seek hit

let[@cq.hot] rec sweep_chunks dir k cells seek hit =
  if k < Array.length dir then begin
    let c = dir.(k) in
    if c.cmax +. cells.(0) < cells.(1) || sweep_blocks c 0 cells seek hit then
      sweep_chunks dir (k + 1) cells seek hit
  end

let[@cq.hot] sweep t ~cells ~seek hit = sweep_chunks t.dir 0 cells seek hit

(* ------------------------------------------------------------------ *)
(* Iteration and invariants                                             *)
(* ------------------------------------------------------------------ *)

let iter t f =
  Array.iter
    (fun c ->
      for i = 0 to c.count - 1 do
        f c.pay.(i)
      done)
    t.dir

let to_list t =
  let acc = ref [] in
  for k = Array.length t.dir - 1 downto 0 do
    let c = t.dir.(k) in
    for i = c.count - 1 downto 0 do
      acc := (c.lo.(i), c.hi.(i), c.pay.(i)) :: !acc
    done
  done;
  !acc

let check_invariants t =
  let n = Array.length t.dir in
  let total = ref 0 in
  Array.iteri
    (fun k c ->
      if c.count < 1 || c.count > cap then corrupt "chunk %d holds %d windows" k c.count;
      if n > 1 && c.count < min_fill then corrupt "chunk %d of %d underfull: %d" k n c.count;
      for i = 1 to c.count - 1 do
        if cmp c.lo.(i - 1) c.hi.(i - 1) c i > 0 then corrupt "chunk %d: slot %d out of order" k i
      done;
      (if k > 0 then
         let p = t.dir.(k - 1) in
         if cmp p.lo.(p.count - 1) p.hi.(p.count - 1) c 0 > 0 then
           corrupt "chunk %d starts below chunk %d's end" k (k - 1));
      let cmax = ref neg_infinity in
      for b = 0 to nblocks - 1 do
        let m = ref neg_infinity in
        for i = b * block to Int.min c.count ((b + 1) * block) - 1 do
          m := Float.max !m c.hi.(i)
        done;
        if Float.compare c.bmax.(b) !m <> 0 then
          corrupt "chunk %d: block %d max %g, windows say %g" k b c.bmax.(b) !m;
        cmax := Float.max !cmax !m
      done;
      if Float.compare c.cmax !cmax <> 0 then corrupt "chunk %d: stale max %g" k c.cmax;
      for i = c.count to cap - 1 do
        if c.pay.(i) != c.pay.(0) then corrupt "chunk %d: slot %d pins a payload" k i
      done;
      total := !total + c.count)
    t.dir;
  if !total <> t.size then corrupt "size mismatch: %d windows, %d recorded" !total t.size

module Testing = struct
  let lower_block_max t =
    if Array.length t.dir = 0 then false
    else begin
      let c = t.dir.(0) in
      c.bmax.(0) <- (if c.bmax.(0) > neg_infinity then neg_infinity else infinity);
      true
    end
end

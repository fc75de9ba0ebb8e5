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

type cursor = {
  shift : float array;
  mutable keys : float array;
  mutable nkeys : int;
  mutable idx : int;
  mutable synced : int;
  hop : cursor -> bool;
  descend : cursor -> float array -> int -> unit;
  sync : cursor -> unit;
}

let cursor ~hop ~descend ~sync =
  { shift = [| 0.0 |]; keys = [||]; nkeys = 0; idx = 0; synced = 0; hop; descend; sync }

(* The cursor sits on the first key at or above the last target, so
   every key before it is below every target still to come: shifted lo
   ends only rise along the scan.  A block whose max hi + shift is below
   the cursor's key holds no window that reaches a key, and once the
   cursor is past the last key ([idx = count], only ever in the last
   leaf) nothing does.  Targets are read as [lo.(i) + shift] where they
   are used: a float passed to a function that is not inlined is
   boxed. *)

let scan = 8

(* The first slot in [from, n) of [keys] at or above the target
   [lo.(i) + shift], given that [keys.(n - 1)] is: a scan of up to
   [scan] slots, then a gallop from the last one scanned — probe 1, 2,
   4, ... slots on and binary-search the last gap. *)
let[@cq.hot] slot_ge (keys : float array) from n (lo : float array) i (shift : float array) =
  let x = Array.unsafe_get lo i +. Array.unsafe_get shift 0 in
  let stop = Int.min (n - 1) (from + scan) in
  let j = ref from in
  while !j < stop && Array.unsafe_get keys !j < x do
    incr j
  done;
  if !j < stop || Array.unsafe_get keys !j >= x then !j
  else begin
    (* Every slot up to [a - 1] is below the target, [b] is not. *)
    let a = ref (!j + 1) and b = ref (n - 1) and step = ref 1 in
    while !a + !step - 1 < !b && Array.unsafe_get keys (!a + !step - 1) < x do
      a := !a + !step;
      step := 2 * !step
    done;
    if !a + !step - 1 < !b then b := !a + !step - 1;
    while !a < !b do
      let m = (!a + !b) / 2 in
      if Array.unsafe_get keys m < x then a := m + 1 else b := m
    done;
    !a
  end

(* One loop over chunks, blocks and windows.  The cursor's leaf, count,
   slot and key live in locals; the record is written back only around
   a closure call and at the end.

   A chunk or block whose max hi + shift is below the key is skipped
   whole, and so is each run of windows that end below it: none holds
   a key or moves the cursor.  The next window, which ends at or above
   the key, moves the cursor when its target is above the key: to the
   next key when that one reaches the target, else within the leaf when
   the leaf's last key does, else to the next leaf when that one's does,
   else wherever a descent from the root lands.  When no key reaches the
   target the sweep ends.  The window hits iff the key is then
   <= hi + shift.  After a move, the block ends once the key passes its
   max hi + shift: every later window in it ends below the key, and so
   starts below it, so none hits or moves the cursor. *)
let[@cq.hot] sweep t cur hit =
  let dir = t.dir and shift = cur.shift.(0) in
  let keys = ref cur.keys and n = ref cur.nkeys and idx = ref cur.idx in
  let live = ref (!idx < !n) in
  let key = ref (if !live then Array.unsafe_get !keys !idx else infinity) in
  let k = ref 0 in
  while !live && !k < Array.length dir do
    let c = Array.unsafe_get dir !k in
    if c.cmax +. shift >= !key then begin
      let lo = c.lo and hi = c.hi and b = ref 0 in
      while !live && !b < c.count do
        let stop = Int.min c.count (!b + block) in
        let bmax = Array.unsafe_get c.bmax (!b / block) +. shift in
        let i = ref !b in
        while !live && !i < stop && bmax >= !key do
          let j = ref !i in
          while !j < stop && Array.unsafe_get hi !j +. shift < !key do
            incr j
          done;
          let j = !j in
          if j < stop then begin
            let target = Array.unsafe_get lo j +. shift in
            if !key < target then begin
              if !idx + 1 < !n && Array.unsafe_get !keys (!idx + 1) >= target then incr idx
              else if Array.unsafe_get !keys (!n - 1) >= target then
                idx := slot_ge !keys !idx !n lo j cur.shift
              else begin
                cur.idx <- !idx;
                (if not (cur.hop cur) then cur.idx <- cur.nkeys
                 else if Array.unsafe_get cur.keys (cur.nkeys - 1) >= target then
                   cur.idx <- slot_ge cur.keys 0 cur.nkeys lo j cur.shift
                 else cur.descend cur lo j);
                keys := cur.keys;
                n := cur.nkeys;
                idx := cur.idx
              end;
              live := !idx < !n;
              if !live then key := Array.unsafe_get !keys !idx
            end;
            if !live && !key <= Array.unsafe_get hi j +. shift then begin
              if cur.synced <> !idx then begin
                cur.idx <- !idx;
                cur.sync cur;
                cur.synced <- !idx
              end;
              hit c.pay.(j)
            end
          end;
          i := j + 1
        done;
        b := stop
      done
    end;
    incr k
  done;
  cur.idx <- !idx

(* ------------------------------------------------------------------ *)
(* The anchored walk                                                    *)
(* ------------------------------------------------------------------ *)

(* [anchors] is [| a1; a2 |].  The prefix runs while lo <= a1; from the
   first window past it on, a window is taken when hi >= a2, and a
   block or chunk whose max hi is below a2 is skipped whole.  Every
   comparison with NaN is false, so a NaN a1 takes no prefix; a NaN a2
   would skip every chunk, and is caught first so the tail is not
   walked at all. *)

(* Slots [i, stop) of chunk [c]. *)
let[@cq.hot] rec reach_slots c i stop anchors take =
  if i < stop then begin
    if c.hi.(i) >= anchors.(1) then take c.pay.(i);
    reach_slots c (i + 1) stop anchors take
  end

(* Chunk [c] from slot [i] on, block by block. *)
let[@cq.hot] rec reach_blocks c i anchors take =
  if i < c.count then begin
    let b = i / block in
    let stop = Int.min c.count ((b + 1) * block) in
    if c.bmax.(b) >= anchors.(1) then reach_slots c i stop anchors take;
    reach_blocks c stop anchors take
  end

(* Chunks [k, ..), the first from slot [i]. *)
let[@cq.hot] rec reach_chunks dir k i anchors take =
  if k < Array.length dir then begin
    let c = dir.(k) in
    if c.cmax >= anchors.(1) then reach_blocks c i anchors take;
    reach_chunks dir (k + 1) 0 anchors take
  end

let[@cq.hot] rec prefix_chunks dir k i anchors take =
  if k < Array.length dir then begin
    let c = dir.(k) in
    if i >= c.count then prefix_chunks dir (k + 1) 0 anchors take
    else if c.lo.(i) <= anchors.(0) then begin
      take c.pay.(i);
      prefix_chunks dir k (i + 1) anchors take
    end
    else if anchors.(1) = anchors.(1) (* not NaN *) then reach_chunks dir k i anchors take
  end

let[@cq.hot] walk_anchored t anchors take = prefix_chunks t.dir 0 0 anchors take

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

module Fkey = struct
  type t = float

  let compare = Float.compare

  (* Monomorphic read: the key arrays are flat float arrays, so the
     generic [a.(i)] would box on every comparison of every descent. *)
  let[@cq.hot] compare_at (a : float array) i k = Float.compare (Array.unsafe_get a i) k

  (* The node searches, with the compares unboxed and inline: a seek
     makes one call here per node instead of one [compare_at] call per
     binary-search step.  The tree passes [0 <= from <= count <=
     Array.length a]. *)
  let[@cq.hot] lower_bound (a : float array) from count (k : float) =
    let lo = ref from and hi = ref count in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Float.compare (Array.unsafe_get a mid) k < 0 then lo := mid + 1 else hi := mid
    done;
    !lo

  let[@cq.hot] upper_bound (a : float array) from count (k : float) =
    let lo = ref from and hi = ref count in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Float.compare (Array.unsafe_get a mid) k <= 0 then lo := mid + 1 else hi := mid
    done;
    !lo
end

module Pkey = struct
  type t = float * float

  let compare (a1, a2) (b1, b2) =
    let c = Float.compare a1 b1 in
    if c <> 0 then c else Float.compare a2 b2

  let[@cq.hot] compare_at a i k = compare (Array.unsafe_get a i) k

  (* The same searches with the lexicographic compare written out, so
     no step calls [compare] out of line: [lower_bound] moves past the
     keys < k, [upper_bound] also past the keys = k. *)
  let[@cq.hot] bound ~past_equal (a : t array) from count ((k1, k2) : t) =
    let lo = ref from and hi = ref count in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      let x1, x2 = Array.unsafe_get a mid in
      let c = Float.compare x1 k1 in
      let c = if c <> 0 then c else Float.compare x2 k2 in
      if c < 0 || (past_equal && c = 0) then lo := mid + 1 else hi := mid
    done;
    !lo

  let[@cq.hot] lower_bound a from count k = bound ~past_equal:false a from count k
  let[@cq.hot] upper_bound a from count k = bound ~past_equal:true a from count k
end

module Fbt = Cq_index.Btree.Make (Fkey)
module Pbt = Cq_index.Btree.Make (Pkey)
module Store = Cq_index.Sweep_store

let[@cq.hot] load_cursor (c : Store.cursor) finger =
  c.keys <- Fbt.finger_keys finger;
  c.nkeys <- Fbt.finger_count finger;
  c.idx <- Fbt.finger_index finger;
  c.synced <- c.idx

(* The cursor's three closures, made once: each moves [finger] and
   reloads the cursor from it, so the two stay on one leaf. *)
let cursor_on finger =
  let hop c =
    Fbt.finger_next_leaf finger
    && begin
         load_cursor c finger;
         true
       end
  in
  let descend (c : Store.cursor) lo i =
    Fbt.finger_seek finger (lo.(i) +. c.shift.(0));
    load_cursor c finger
  in
  let sync (c : Store.cursor) = Fbt.finger_set_index finger c.idx in
  Store.cursor ~hop ~descend ~sync

type s_table = {
  s_b : Tuple.s Fbt.t;
  s_bc : Tuple.s Pbt.t;
}

let create_s () = { s_b = Fbt.create (); s_bc = Pbt.create () }

let insert_s t (s : Tuple.s) =
  Fbt.insert t.s_b s.b s;
  Pbt.insert t.s_bc (s.b, s.c) s

let delete_s t (s : Tuple.s) =
  let hit = Fbt.remove_first t.s_b s.b (fun x -> Tuple.equal_s x s) in
  if hit then ignore (Pbt.remove_first t.s_bc (s.b, s.c) (fun x -> Tuple.equal_s x s));
  hit

let of_s_tuples tuples =
  let by_b = Array.copy tuples in
  Array.sort (fun (a : Tuple.s) b -> Float.compare a.b b.b) by_b;
  let by_bc = Array.copy tuples in
  Array.sort (fun (a : Tuple.s) b -> Pkey.compare (a.b, a.c) (b.b, b.c)) by_bc;
  {
    s_b = Fbt.of_sorted (Array.map (fun (s : Tuple.s) -> (s.b, s)) by_b);
    s_bc = Pbt.of_sorted (Array.map (fun (s : Tuple.s) -> ((s.b, s.c), s)) by_bc);
  }

let of_s_batch b = of_s_tuples (Batch.to_s_tuples b)

let s_size t = Fbt.length t.s_b
let s_by_b t = t.s_b
let s_by_bc t = t.s_bc
let iter_s t f = Fbt.iter t.s_b (fun _ s -> f s)

type r_table = { r_b : Tuple.r Fbt.t }

let create_r () = { r_b = Fbt.create () }
let insert_r t (r : Tuple.r) = Fbt.insert t.r_b r.b r
let delete_r t (r : Tuple.r) = Fbt.remove_first t.r_b r.b (fun x -> Tuple.equal_r x r)

let of_r_tuples tuples =
  let by_b = Array.copy tuples in
  Array.sort (fun (a : Tuple.r) b -> Float.compare a.b b.b) by_b;
  { r_b = Fbt.of_sorted (Array.map (fun (r : Tuple.r) -> (r.b, r)) by_b) }

let r_size t = Fbt.length t.r_b

module Bt = Cq_index.Btree
module Store = Cq_index.Sweep_store

module Fbt = struct
  let seek_ge t b = Bt.seek_ge t b neg_infinity
end

let[@cq.hot] load_cursor (c : Store.cursor) finger =
  c.keys <- Bt.finger_keys finger;
  c.nkeys <- Bt.finger_count finger;
  c.idx <- Bt.finger_index finger;
  c.synced <- c.idx

(* The cursor's three closures, made once: each moves [finger] and
   reloads the cursor from it, so the two stay on one leaf. *)
let cursor_on finger =
  let hop c =
    Bt.finger_next_leaf finger
    && begin
         load_cursor c finger;
         true
       end
  in
  let descend (c : Store.cursor) lo i =
    Bt.finger_seek_shifted finger lo i c.shift;
    load_cursor c finger
  in
  let sync (c : Store.cursor) = Bt.finger_set_index finger c.idx in
  Store.cursor ~hop ~descend ~sync

type s_table = Tuple.s Bt.t

let create_s () = Bt.create ()
let insert_s t (s : Tuple.s) = Bt.insert t s.b s.c s
let delete_s t (s : Tuple.s) = Bt.remove_first t s.b s.c (fun x -> Tuple.equal_s x s)

(* Bulk-load (primary, secondary, value) entries given in any order;
   equal keys keep their input order. *)
let load entries =
  Array.stable_sort
    (fun (b1, c1, _) (b2, c2, _) ->
      let c = Float.compare b1 b2 in
      if c <> 0 then c else Float.compare c1 c2)
    entries;
  Bt.of_sorted entries

let of_s_tuples tuples = load (Array.map (fun (s : Tuple.s) -> (s.b, s.c, s)) tuples)

let of_s_batch b = of_s_tuples (Batch.to_s_tuples b)

let s_size = Bt.length
let s_by_b t = t
let iter_s t f = Bt.iter t f

type r_table = Tuple.r Bt.t

let create_r () = Bt.create ()
let insert_r t (r : Tuple.r) = Bt.insert t r.b r.a r
let delete_r t (r : Tuple.r) = Bt.remove_first t r.b r.a (fun x -> Tuple.equal_r x r)

let of_r_tuples tuples = load (Array.map (fun (r : Tuple.r) -> (r.b, r.a, r)) tuples)

let r_size = Bt.length

module I = Cq_interval.Interval
module Table = Cq_relation.Table
module Tuple = Cq_relation.Tuple
module Fbt = Table.Fbt
module Store = Cq_index.Sweep_store
module Vec = Cq_util.Vec

let[@cq.hot] window_nonempty table w =
  match Fbt.seek_ge (Table.s_by_b table) (I.lo w) with
  | Some c -> Fbt.key c <= I.hi w
  | None -> false

module Make (X : sig
  type q

  val qid : q -> int
  val axis : q -> I.t
end) =
struct
  (* The members in one lo-ordered sweep store, so a membership change
     moves slots in one chunk and STEP 1 is one pass over float
     columns.  [anchors] holds the shifted anchors [| s1 - b; s2 - b |]
     of the current STEP 1, [mark] its acceptance test and [take] the
     preallocated step that offers a member to [mark] and keeps it in
     [scratch], the reusable STEP-1 output: its contents are only valid
     until the next [step1] on the same group (no re-entrant processing
     of one group — the batch-ingest non-reentrancy contract). *)
  type g = {
    store : X.q Store.t;
    anchors : float array;
    scratch : X.q Vec.t;
    mutable mark : X.q -> bool;
    take : X.q -> unit;
  }

  let create () =
    let rec g =
      {
        store = Store.create ();
        anchors = [| nan; nan |];
        scratch = Vec.create ();
        mark = (fun _ -> false);
        take = (fun q -> if g.mark q then Vec.push g.scratch q);
      }
    in
    g

  let add g q = Store.add g.store (X.axis q) q
  let remove g q = ignore (Store.remove g.store (X.axis q) (fun p -> X.qid p = X.qid q))
  let size g = Store.size g.store
  let iter g k = Store.iter g.store k
  let store g = g.store
  let check_invariants g = Store.check_invariants g.store

  (* The anchors around the shifted stabbing point [key]: s2 is the
     leftmost entry >= key (the finger stays on it for STEP 2) and s1
     the entry just before it.  A missing anchor reads as NaN, which
     takes no member on its side.  On an exact match the S-tuple at the
     stabbing point joins with every member: [infinity] as the left
     anchor takes them all in the prefix.  Keys are read from the
     finger's leaf arrays, so no anchor is boxed. *)
  let[@cq.hot] step1 f (r : Tuple.r) g ~stab ~mark =
    let b = r.b in
    let key = stab +. b in
    Vec.clear g.scratch;
    Fbt.finger_seek f key;
    let i = Fbt.finger_index f in
    let s2 = if i < Fbt.finger_count f then Array.unsafe_get (Fbt.finger_keys f) i else nan in
    if s2 = key then g.anchors.(0) <- infinity
    else begin
      let j = Fbt.finger_back_index f in
      let s1 = if j >= 0 then Array.unsafe_get (Fbt.finger_back_keys f) j else nan in
      g.anchors.(0) <- s1 -. b;
      g.anchors.(1) <- s2 -. b
    end;
    g.mark <- mark;
    Store.walk_anchored g.store g.anchors g.take;
    g.scratch
end

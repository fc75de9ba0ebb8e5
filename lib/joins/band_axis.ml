module I = Cq_interval.Interval
module Table = Cq_relation.Table
module Tuple = Cq_relation.Tuple
module Fbt = Table.Fbt
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
  (* Endpoint sequences as B-trees so membership changes cost O(log)
     instead of a rebuild.  [scratch] is the reusable STEP-1 output
     buffer: [step1] clears and refills it, so its contents are only
     valid until the next [step1] on the same group (no re-entrant
     processing of one group — the batch-ingest non-reentrancy
     contract). *)
  type g = {
    by_lo : X.q Fbt.t;
    by_hi : X.q Fbt.t; (* keyed on the right endpoint *)
    scratch : X.q Vec.t;
  }

  let create () = { by_lo = Fbt.create (); by_hi = Fbt.create (); scratch = Vec.create () }

  let add g q =
    Fbt.insert g.by_lo (I.lo (X.axis q)) q;
    Fbt.insert g.by_hi (I.hi (X.axis q)) q

  let remove g q =
    ignore (Fbt.remove_first g.by_lo (I.lo (X.axis q)) (fun p -> X.qid p = X.qid q));
    ignore (Fbt.remove_first g.by_hi (I.hi (X.axis q)) (fun p -> X.qid p = X.qid q))

  let size g = Fbt.length g.by_lo
  let iter g k = Fbt.iter g.by_lo (fun _ q -> k q)

  let check_invariants g =
    Fbt.check_invariants g.by_lo;
    Fbt.check_invariants g.by_hi;
    if Fbt.length g.by_lo <> Fbt.length g.by_hi then
      Cq_util.Error.corrupt ~structure:"band_axis" "endpoint sequences out of sync"

  (* Members in increasing left-endpoint order, stopping when [k]
     returns false (early exit is the point of the sorted sequences).
     Leaf walks, not cursor chains: no allocation per member. *)
  let iter_lo g k = Fbt.walk_ge g.by_lo neg_infinity (fun _ q -> k q)

  (* Members in decreasing right-endpoint order, from the top: a window
     that never ends (hi = +inf) is a member too. *)
  let iter_hi g k = Fbt.walk_le g.by_hi infinity (fun _ q -> k q)

  (* The finger's missing anchors read as NaN: every comparison with
     NaN is false, so a scan from a missing anchor takes no member and
     the right scan skips none on its account. *)
  let step1 f (r : Tuple.r) g ~stab ~mark =
    let b = r.b in
    let key = stab +. b in
    let affected = g.scratch in
    Vec.clear affected;
    (* Anchors around the stabbing point offset: s2 = leftmost entry
       >= key (the finger stays on it for STEP 2); s1 = rightmost entry
       < key.  On an exact match the key's duplicates all sit on the
       forward side, so the two scans never meet. *)
    Fbt.finger_seek f key;
    let s2 = Fbt.finger_key f ~default:nan in
    let consider q = if mark q then Vec.push affected q in
    if s2 = key then
      (* The S-tuple at the stabbing point joins with every member. *)
      iter_lo g (fun q ->
          consider q;
          true)
    else begin
      let s1_shift = Fbt.finger_prev_key f ~default:nan -. b in
      let s2_shift = s2 -. b in
      iter_lo g (fun q -> if I.lo (X.axis q) <= s1_shift then (consider q; true) else false);
      (* A member the left scan took (lo <= s1 - b) reaches both
         anchors: skip it, so each member is offered once. *)
      iter_hi g (fun q ->
          let a = X.axis q in
          if I.hi a >= s2_shift then begin
            if not (I.lo a <= s1_shift) then consider q;
            true
          end
          else false)
    end;
    affected
end

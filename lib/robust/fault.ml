module I = Cq_interval.Interval
module Rng = Cq_util.Rng

type op =
  | Add of { id : int; iv : I.t }
  | Remove of { id : int; iv : I.t }
  | Remove_absent of { id : int; iv : I.t }
  | Re_add of { id : int; iv : I.t }
  | Probe of float

let pp_op fmt = function
  | Add { id; iv } -> Format.fprintf fmt "add %d %s" id (I.to_string iv)
  | Remove { id; iv } -> Format.fprintf fmt "remove %d %s" id (I.to_string iv)
  | Remove_absent { id; iv } -> Format.fprintf fmt "remove-absent %d %s" id (I.to_string iv)
  | Re_add { id; iv } -> Format.fprintf fmt "re-add %d %s" id (I.to_string iv)
  | Probe x -> Format.fprintf fmt "probe %g" x

(* The generator is adversarial on purpose: intervals cluster around a
   handful of hub points (so hotspot groups form, then churn), land on
   an integer-ish grid (so endpoints collide exactly), include
   zero-width points and huge spans, and the add/remove mix oscillates
   in phases so group populations repeatedly cross the αn hotness
   threshold in both directions. *)

let hub_count = 5
let live_cap = 3000
let phase_len = 300

let gen_interval rng hubs =
  let hub = hubs.(Rng.int rng hub_count) in
  match Rng.int rng 10 with
  | 0 ->
      (* zero-width point interval, exactly on the hub *)
      I.make hub hub
  | 1 ->
      (* huge span engulfing everything *)
      I.make (hub -. 1000.) (hub +. 1000.)
  | 2 | 3 ->
      (* tiny cluster: endpoints on a 0.25 grid just around the hub *)
      let lo = hub +. (0.25 *. float_of_int (Rng.int rng 5 - 2)) in
      I.make lo (lo +. (0.25 *. float_of_int (Rng.int rng 3)))
  | 4 | 5 ->
      (* touching endpoints: [hub-k, hub] or [hub, hub+k] *)
      let k = 1. +. float_of_int (Rng.int rng 4) in
      if Rng.bool rng then I.make (hub -. k) hub else I.make hub (hub +. k)
  | _ ->
      (* generic grid interval near the hub *)
      let lo = hub +. float_of_int (Rng.int rng 9 - 4) in
      I.make lo (lo +. float_of_int (1 + Rng.int rng 6))

let gen ~seed ~n =
  let rng = Rng.create seed in
  let hubs = Array.init hub_count (fun i -> float_of_int (i * 20)) in
  let live = ref [] (* (id, iv), most recent first *)
  and live_n = ref 0
  and next_id = ref 0 in
  let pick_live () =
    match !live with
    | [] -> None
    | l ->
        let i = Rng.int rng !live_n in
        Some (List.nth l i)
  in
  let fresh_add () =
    let id = !next_id in
    incr next_id;
    let iv = gen_interval rng hubs in
    live := (id, iv) :: !live;
    incr live_n;
    Add { id; iv }
  in
  let remove_some () =
    match pick_live () with
    | None -> fresh_add ()
    | Some (id, iv) ->
        live := List.filter (fun (id', _) -> id' <> id) !live;
        decr live_n;
        Remove { id; iv }
  in
  Array.init n (fun i ->
      let adding_phase = i / phase_len mod 2 = 0 in
      if !live_n >= live_cap then remove_some ()
      else
        match Rng.int rng 20 with
        | 0 -> Probe (hubs.(Rng.int rng hub_count) +. Rng.float rng -. 0.5)
        | 1 -> (
            (* duplicate of an exact live (id, iv) pair *)
            match pick_live () with
            | Some (id, iv) -> Re_add { id; iv }
            | None -> fresh_add ())
        | 2 -> (
            (* remove something that was never inserted *)
            let id = !next_id + 1_000_000 + Rng.int rng 1000 in
            Remove_absent { id; iv = gen_interval rng hubs })
        | 3 | 4 | 5 | 6 | 7 | 8 -> if adding_phase then fresh_add () else remove_some ()
        | _ -> if adding_phase || !live_n = 0 then fresh_add () else remove_some ())

(* ------------------------------------------------------------------ *)
(* Engine-level operations                                              *)
(* ------------------------------------------------------------------ *)

type engine_op =
  | Sub_band of { range : I.t }
  | Sub_select of { range_a : I.t; range_c : I.t }
  | Unsub_random
  | Ins_r of { a : float; b : float }
  | Ins_s of { b : float; c : float }
  | Del_r_random
  | Del_s_random
  | Reject_ins_r of { a : float; b : float }
  | Reject_sub_band

let pp_engine_op fmt = function
  | Sub_band { range } -> Format.fprintf fmt "sub-band %s" (I.to_string range)
  | Sub_select { range_a; range_c } ->
      Format.fprintf fmt "sub-select %s %s" (I.to_string range_a) (I.to_string range_c)
  | Unsub_random -> Format.fprintf fmt "unsub"
  | Ins_r { a; b } -> Format.fprintf fmt "ins-r %g %g" a b
  | Ins_s { b; c } -> Format.fprintf fmt "ins-s %g %g" b c
  | Del_r_random -> Format.fprintf fmt "del-r"
  | Del_s_random -> Format.fprintf fmt "del-s"
  | Reject_ins_r { a; b } -> Format.fprintf fmt "reject-ins-r %g %g" a b
  | Reject_sub_band -> Format.fprintf fmt "reject-sub-band"

(* ------------------------------------------------------------------ *)
(* Overload burst streams                                               *)
(* ------------------------------------------------------------------ *)

type burst_op =
  | Burst_r of (float * float) array
  | Burst_s of (float * float) array
  | Burst_flush

let pp_burst_op fmt = function
  | Burst_r rows -> Format.fprintf fmt "burst-r[%d]" (Array.length rows)
  | Burst_s rows -> Format.fprintf fmt "burst-s[%d]" (Array.length rows)
  | Burst_flush -> Format.fprintf fmt "burst-flush"

(* Alternating quiet/burst phases.  Quiet phases trickle small batches
   and flush often (the drain keeps up); burst phases fire large
   batches back-to-back with no flush, so the per-shard queues fill and
   the overload machinery — backpressure, rejection, or shedding,
   depending on policy — must engage. *)

let burst_phase_len = 12

let gen_burst ~seed ~n =
  let rng = Rng.create seed in
  let grid () = float_of_int (Rng.int rng 41 - 20) /. 2.0 in
  let rows count = Array.init count (fun _ -> (grid (), grid ())) in
  Array.init n (fun i ->
      let bursting = i / burst_phase_len mod 2 = 1 in
      if bursting then
        let count = 64 + Rng.int rng 193 in
        if Rng.bool rng then Burst_r (rows count) else Burst_s (rows count)
      else
        match Rng.int rng 4 with
        | 0 -> Burst_flush
        | 1 -> Burst_s (rows (1 + Rng.int rng 8))
        | _ -> Burst_r (rows (1 + Rng.int rng 8)))

(* ------------------------------------------------------------------ *)
(* Hotspot-drift streams                                                *)
(* ------------------------------------------------------------------ *)

module Z = Cq_engine.Zipf_model

type drift_op =
  | Drift_register of { range : I.t }
  | Drift_register_select of { range_a : I.t; range_c : I.t }
  | Drift_deregister
  | Drift_r of (float * float) array
  | Drift_s of (float * float) array
  | Drift_flush

let pp_drift_op fmt = function
  | Drift_register { range } -> Format.fprintf fmt "drift-register %s" (I.to_string range)
  | Drift_register_select { range_a; range_c } ->
      Format.fprintf fmt "drift-register-select %s %s" (I.to_string range_a)
        (I.to_string range_c)
  | Drift_deregister -> Format.fprintf fmt "drift-deregister"
  | Drift_r rows -> Format.fprintf fmt "drift-r[%d]" (Array.length rows)
  | Drift_s rows -> Format.fprintf fmt "drift-s[%d]" (Array.length rows)
  | Drift_flush -> Format.fprintf fmt "drift-flush"

(* One strip of Parallel's partition axis is 128 wide; placing the
   drift sites exactly [shards] strips apart parks every Zipf rank on
   the same home shard, so registration mass concentrates there.  The
   lattice then walks by a seeded velocity, carrying the pile-up
   across strip boundaries. *)
let drift_strip_width = 128.0
let drift_flush_every = 6

let gen_drift ?(shards = 4) ~seed ~n () =
  let rng = Rng.create seed in
  let d =
    {
      Z.dr_groups = 3;
      dr_beta = 1.1 +. (Rng.float rng *. 0.6);
      dr_center0 = (drift_strip_width /. 2.0) +. (Rng.float rng *. 20.0) -. 10.0;
      dr_spread = float_of_int shards *. drift_strip_width;
      dr_velocity = 8.0 +. (Rng.float rng *. 32.0);
    }
  in
  let step = ref 0 in
  let site rank = Z.group_center d ~step:!step ~rank in
  let register i =
    (* The first [dr_groups] registrations take one rank each, so at
       least two distinct strips are always populated. *)
    let rank = if i < d.Z.dr_groups then i else Z.sample_rank d ~u:(Rng.float rng) in
    let c = site rank in
    let w = 4.0 +. (Rng.float rng *. 40.0) in
    if Rng.int rng 4 = 0 then
      let a_lo = c -. 500.0 in
      Drift_register_select
        { range_a = I.make a_lo (a_lo +. 1000.0); range_c = I.make (c -. (w /. 2.0)) (c +. (w /. 2.0)) }
    else Drift_register { range = I.make (c -. (w /. 2.0)) (c +. (w /. 2.0)) }
  in
  (* Rows aimed at the hot sites: an R row [(u, u + c)] has band value
     [b - a = c], an S row [(u + c, c)] has select attribute [c], so
     both query kinds at site [c] actually deliver and the delivery
     load tracks the walk. *)
  let rows len =
    Array.init len (fun _ ->
        let c = site (Z.sample_rank d ~u:(Rng.float rng)) in
        let u = (Rng.float rng *. 40.0) -. 20.0 in
        if Rng.bool rng then (u, u +. c) else (u +. c, c))
  in
  let n_reg = ref 0 and live = ref 0 in
  Array.init n (fun i ->
      if i mod drift_flush_every = drift_flush_every - 1 then begin
        incr step;
        Drift_flush
      end
      else if !live < d.Z.dr_groups then begin
        let op = register !n_reg in
        incr n_reg;
        incr live;
        op
      end
      else
        match Rng.int rng 10 with
        | 0 | 1 | 2 ->
            let op = register !n_reg in
            incr n_reg;
            incr live;
            op
        | 3 when !live > d.Z.dr_groups + 2 ->
            decr live;
            Drift_deregister
        | _ ->
            let len = 2 + Rng.int rng 14 in
            if Rng.bool rng then Drift_r (rows len) else Drift_s (rows len))

let tuple_cap = 400
let query_cap = 60

let gen_engine ~seed ~n =
  let rng = Rng.create seed in
  let grid () = float_of_int (Rng.int rng 21 - 10) in
  let window () =
    let lo = grid () in
    I.make lo (lo +. float_of_int (Rng.int rng 5))
  in
  (* Track approximate live counts so the stream stays bounded; exact
     liveness is the driver's business. *)
  let r = ref 0 and s = ref 0 and q = ref 0 in
  Array.init n (fun _ ->
      match Rng.int rng 24 with
      | 0 when !q < query_cap ->
          incr q;
          Sub_band { range = window () }
      | 1 when !q < query_cap ->
          incr q;
          Sub_select { range_a = window (); range_c = window () }
      | 2 when !q > 0 ->
          decr q;
          Unsub_random
      | 3 ->
          let bad = if Rng.bool rng then Float.nan else Float.infinity in
          if Rng.bool rng then Reject_ins_r { a = bad; b = grid () }
          else Reject_ins_r { a = grid (); b = bad }
      | 4 -> Reject_sub_band
      | 5 | 6 | 7 when !r > 0 && !r + !s >= tuple_cap ->
          decr r;
          Del_r_random
      | 8 | 9 | 10 when !s > 0 && !r + !s >= tuple_cap ->
          decr s;
          Del_s_random
      | n when n mod 2 = 0 && !r + !s < tuple_cap ->
          incr r;
          Ins_r { a = grid (); b = grid () }
      | _ when !r + !s < tuple_cap ->
          incr s;
          Ins_s { b = grid (); c = grid () }
      | _ ->
          if !r > 0 then (
            decr r;
            Del_r_random)
          else (
            decr s;
            Del_s_random))

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
(* Engine-level workloads                                               *)
(* ------------------------------------------------------------------ *)

module Par = Cq_engine.Parallel
module Config = Cq_engine.Engine.Config
module Z = Cq_engine.Zipf_model

type query = Band of I.t | Select of I.t * I.t

type step =
  | Sub of query
  | Unsub of int
  | Rows of Par.side * (float * float) array
  | Del of Par.side * int
  | Flush
  | Rate of float
  | Bad_row of Par.side * (float * float)
  | Bad_sub

type workload = {
  name : string;
  seed : int;
  steps : step array;
  overload : Config.overload;
  batch_size : int;
}

let side_char = function Par.R -> 'r' | Par.S -> 's'

let pp_step fmt = function
  | Sub (Band w) -> Format.fprintf fmt "sub-band %s" (I.to_string w)
  | Sub (Select (a, c)) -> Format.fprintf fmt "sub-select %s %s" (I.to_string a) (I.to_string c)
  | Unsub k -> Format.fprintf fmt "unsub #%d" k
  | Rows (side, rows) ->
      Format.fprintf fmt "rows-%c" (side_char side);
      Array.iter (fun (x, y) -> Format.fprintf fmt " (%g, %g)" x y) rows
  | Del (side, k) -> Format.fprintf fmt "del-%c #%d" (side_char side) k
  | Flush -> Format.fprintf fmt "flush"
  | Rate p -> Format.fprintf fmt "rate %g" p
  | Bad_row (side, (x, y)) -> Format.fprintf fmt "bad-row-%c (%g, %g)" (side_char side) x y
  | Bad_sub -> Format.fprintf fmt "bad-sub"

(* A band or select query whose windows are [lo, lo + w] with [lo]
   uniform in [lo0, lo0 + span) and [w] in [w0, w0 + dw). *)
let gen_query rng (lo0, span, w0, dw) =
  let window () =
    let lo = lo0 +. (Rng.float rng *. span) in
    I.make lo (lo +. w0 +. (Rng.float rng *. dw))
  in
  if Rng.bool rng then Band (window ())
  else
    let a = window () in
    Select (a, window ())

let mixed_rates = [| 1.0; 1.0; 1.0; 0.25; 0.5; 0.75 |]

(* Rows uniform over [0, 1000)^2, windows up to 150 wide over the same
   range, so every query kind delivers. *)
let gen_uniform ?(churn = false) ?rates ~seed ~n () =
  let rng = Rng.create seed in
  let query () = gen_query rng (-200.0, 1000.0, 1.0, 150.0) in
  let subs = List.init (8 + Rng.int rng 17) (fun _ -> Sub (query ())) in
  let batch i =
    let rate =
      match rates with
      | None -> []
      | Some rs -> [ Rate (if i = 0 then rs.(0) else rs.(Rng.int rng (Array.length rs))) ]
    in
    let side = if Rng.bool rng then Par.R else Par.S in
    let rows =
      Array.init (1 + Rng.int rng 50) (fun _ -> (Rng.float rng *. 1000.0, Rng.float rng *. 1000.0))
    in
    let sub = if churn && Rng.int rng 3 = 0 then [ Sub (query ()) ] else [] in
    rate @ (Rows (side, rows) :: sub)
  in
  let steps = Array.of_list (subs @ List.concat (List.init (max 4 (n / 40)) batch)) in
  {
    name = ((if churn then "uniform+churn" else "uniform") ^ if Option.is_some rates then "+rates" else "");
    seed;
    steps;
    overload = (if Option.is_some rates then Config.Shed else Config.Block);
    batch_size = 1 + Rng.int rng 64;
  }

(* Low enough that a 400-step stream reaches it and deletes. *)
let tuple_cap = 200
let query_cap = 60

let gen_engine ~seed ~n =
  let rng = Rng.create seed in
  let grid () = float_of_int (Rng.int rng 21 - 10) in
  let window () =
    let lo = grid () in
    I.make lo (lo +. float_of_int (Rng.int rng 5))
  in
  (* Exact live counts, so victims can be drawn as indices into the
     live sets. *)
  let r = ref 0 and s = ref 0 and q = ref 0 in
  let del side count =
    decr count;
    Del (side, Rng.int rng (!count + 1))
  in
  let steps =
    Array.init n (fun _ ->
        match Rng.int rng 24 with
        | 0 when !q < query_cap ->
            incr q;
            Sub (Band (window ()))
        | 1 when !q < query_cap ->
            incr q;
            let a = window () in
            Sub (Select (a, window ()))
        | 2 when !q > 0 ->
            decr q;
            Unsub (Rng.int rng (!q + 1))
        | 3 ->
            let bad = if Rng.bool rng then Float.nan else Float.infinity in
            if Rng.bool rng then Bad_row (Par.R, (bad, grid ()))
            else Bad_row (Par.R, (grid (), bad))
        | 4 -> Bad_sub
        | 5 | 6 | 7 when !r > 0 && !r + !s >= tuple_cap -> del Par.R r
        | 8 | 9 | 10 when !s > 0 && !r + !s >= tuple_cap -> del Par.S s
        | k when k mod 2 = 0 && !r + !s < tuple_cap ->
            incr r;
            let a = grid () in
            Rows (Par.R, [| (a, grid ()) |])
        | _ when !r + !s < tuple_cap ->
            incr s;
            let b = grid () in
            Rows (Par.S, [| (b, grid ()) |])
        | _ -> if !r > 0 then del Par.R r else del Par.S s)
  in
  { name = "engine"; seed; steps; overload = Config.Block; batch_size = Config.default.batch_size }

(* Alternating quiet/burst phases.  Quiet phases trickle small batches
   and flush often (the drain keeps up); burst phases fire large
   batches back-to-back with no flush, so the per-shard queues fill and
   the overload machinery must engage.  The queries are narrow windows
   over the rows' [-10, 10] grid, so matches are dense. *)

let burst_phase_len = 12

let gen_burst ~seed ~n =
  (* The queries draw from their own stream, so the rows stay the ones
     the overload benchmark and [cqctl stats --overload] replay. *)
  let qrng = Rng.create (seed + 0xb5e7) in
  let subs =
    Array.init (4 + Rng.int qrng 9) (fun _ -> Sub (gen_query qrng (-15.0, 30.0, 0.5, 6.0)))
  in
  let rng = Rng.create seed in
  let grid () = float_of_int (Rng.int rng 41 - 20) /. 2.0 in
  let rows count = Array.init count (fun _ -> (grid (), grid ())) in
  let ops =
    Array.init n (fun i ->
        if i / burst_phase_len mod 2 = 1 then
          let count = 64 + Rng.int rng 193 in
          let side = if Rng.bool rng then Par.R else Par.S in
          Rows (side, rows count)
        else
          match Rng.int rng 4 with
          | 0 -> Flush
          | 1 -> Rows (Par.S, rows (1 + Rng.int rng 8))
          | _ -> Rows (Par.R, rows (1 + Rng.int rng 8)))
  in
  { name = "burst"; seed; steps = Array.append subs ops; overload = Config.Shed; batch_size = 8 }

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
    let near = I.make (c -. (w /. 2.0)) (c +. (w /. 2.0)) in
    if Rng.int rng 4 = 0 then
      let a_lo = c -. 500.0 in
      Sub (Select (I.make a_lo (a_lo +. 1000.0), near))
    else Sub (Band near)
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
  let steps =
    Array.init n (fun i ->
        if i mod drift_flush_every = drift_flush_every - 1 then begin
          incr step;
          Flush
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
              Unsub 0
          | _ ->
              let len = 2 + Rng.int rng 14 in
              let side = if Rng.bool rng then Par.R else Par.S in
              Rows (side, rows len))
  in
  { name = "drift"; seed; steps; overload = Config.Block; batch_size = 8 }

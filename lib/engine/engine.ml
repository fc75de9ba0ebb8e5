module I = Cq_interval.Interval
module Table = Cq_relation.Table
module Tuple = Cq_relation.Tuple
module Batch = Cq_relation.Batch
module BQ = Cq_joins.Band_query
module BJ = Cq_joins.Band_join
module SQ = Cq_joins.Select_query
module SJ = Cq_joins.Select_join
module Err = Cq_util.Error
module Metrics = Cq_obs.Metrics
module Trace = Cq_obs.Trace

(* End-to-end event latencies (index probes + group walks + callback
   delivery + the home-table store), and global result/event totals.
   All gated on the metrics switch; one branch each when disabled. *)
let m_ingest_ns = Metrics.histogram "engine.ingest_ns"
let m_retract_ns = Metrics.histogram "engine.retract_ns"
let m_events = Metrics.counter "engine.events"
let m_results = Metrics.counter "engine.results"
let m_shed_kept = Metrics.counter "engine.shed.kept"
let m_shed_dropped = Metrics.counter "engine.shed.dropped"

module Config = struct
  type overload = Block | Reject | Shed

  let overload_to_string = function Block -> "block" | Reject -> "reject" | Shed -> "shed"

  let overload_of_string = function
    | "block" -> Ok Block
    | "reject" -> Ok Reject
    | "shed" -> Ok Shed
    | s -> Error (Printf.sprintf "unknown overload policy %S (block|reject|shed)" s)

  type t = {
    alpha : float;
    epsilon : float;
    seed : int;
    strategy : Hotspot_core.Processor.strategy;
    shards : int;
    batch_size : int;
    overload : overload;
    shed_rate : float;
  }

  let default =
    {
      alpha = 0.01;
      epsilon = 1.0;
      seed = 0x40757;
      strategy = Hotspot_core.Processor.Hotspot;
      shards = 1;
      batch_size = 256;
      overload = Block;
      shed_rate = 1.0;
    }

  (* The single validator behind every try_create path (sequential and
     parallel): a bad knob always surfaces as Invalid_parameter with
     [name] spelled exactly as the record field. *)
  let validate t =
    match Err.in_unit_open_closed ~name:"alpha" t.alpha with
    | Error _ as e -> e
    | Ok _ -> (
        match Err.positive ~name:"epsilon" t.epsilon with
        | Error _ as e -> e
        | Ok _ -> (
            match Err.at_least ~name:"shards" ~min:1 t.shards with
            | Error _ as e -> e
            | Ok _ -> (
                match Err.at_least ~name:"batch_size" ~min:1 t.batch_size with
                | Error _ as e -> e
                | Ok _ -> (
                    match Err.in_unit_open_closed ~name:"shed_rate" t.shed_rate with
                    | Error _ as e -> e
                    | Ok _ -> Ok t))))
end

type subscription =
  | Band of { fwd : BQ.t; bwd : BQ.t }
  | Select of { fwd : SQ.t; bwd : SQ.t }

(* The configured processors are chosen at engine creation time, so
   each lives behind its module: an existential package pairing the
   processor module with its state. *)
type band_proc = Bproc : (module BJ.PROCESSOR with type t = 'a) * 'a -> band_proc
type select_proc = Sproc : (module SJ.PROCESSOR with type t = 'a) * 'a -> select_proc

(* One side of the symmetric engine.  A side processes the events for
   which its tuples play the R role: its processors probe the {e other}
   side's table, and [home] is where its own tuples are stored (always
   in S shape — B stays the join key, the side-local attribute rides in
   the other slot). *)
type side = {
  band : band_proc;
  select : select_proc;
  home : Table.s_table;
}

(* Per-query Horvitz-Thompson accounting for shed mode.  Results of one
   event are accumulated in the [se_ev_*] pending cells and folded into
   the estimate lazily when a later event (or a reader) arrives, so the
   per-result hot path is two int bumps. *)
type shed_est = {
  mutable se_obs : int;  (* results actually delivered *)
  mutable se_est : float;  (* HT cardinality estimate *)
  mutable se_err : float;  (* exact kept-side error mass: sum k*(1-p)/p *)
  mutable se_dropped : int;  (* dropped (event, query) candidates *)
  mutable se_min_p : float;  (* lowest keep-rate this query saw *)
  mutable se_kbound : float;  (* sum of per-event k caps over drops *)
  mutable se_ev : int;  (* ordinal of the pending event *)
  mutable se_ev_k : int;  (* results of the pending event *)
  mutable se_ev_p : float;  (* keep-rate of the pending event *)
}

type t = {
  s_table : Table.s_table;
  (* R encoded in S shape: B stays the join key, A rides in the C
     slot.  S-side events are processed against this mirror with the
     mirrored queries below. *)
  r_mirror : Table.s_table;
  r_side : side;
  s_side : side;
  band_cbs : (int, Tuple.r -> Tuple.s -> unit) Hashtbl.t;
  select_cbs : (int, Tuple.r -> Tuple.s -> unit) Hashtbl.t;
  band_retracts : (int, Tuple.r -> Tuple.s -> unit) Hashtbl.t;
  select_retracts : (int, Tuple.r -> Tuple.s -> unit) Hashtbl.t;
  mutable next_qid : int;
  mutable next_rid : int;
  mutable next_sid : int;
  mutable events : int;
  mutable results : int;
  (* Load-shedding state.  [shed_rate] is the current Bernoulli
     keep-probability (1.0 = exact); [shed_seed]/[shed_ord] key the
     deterministic per-(event, query) coin, with the ordinal counting
     ingests only so that every shard of a broadcast stream assigns the
     same ordinals. *)
  mutable shed_rate : float;
  (* True once the engine is in shed mode: created under the [Shed]
     policy or with a forced rate, or handed a sub-unit rate later.
     While engaged, {e every} delivered result is folded into the
     per-query estimator — rate-1.0 phases at p = 1.0 contribute zero
     error mass — so the claimed bound covers the whole stream even
     when an adaptive controller moves the rate through 1.0.  Never
     reset: bounds stay valid across exact interludes. *)
  mutable shed_engaged : bool;
  mutable shed_seed : int;
  mutable shed_ord : int;
  mutable shed_kept : int;
  mutable shed_dropped : int;
  mutable shed_floor : float;  (* lowest rate applied while shedding *)
  mutable shed_ev_kbound : int;  (* opposite-table size for this event *)
  shed_ests : (int, shed_est) Hashtbl.t;
  (* Hot-path delivery closures, allocated once at creation and
     parameterised through the [cur_r]/[cur_s] cells, so per-event
     ingest builds no sink closures.  [evbuf]/[sbuf] are the reusable
     pseudo-event buffers of the flat-batch path, and [one] the
     one-row batch a single-tuple insert rides in. *)
  mutable cur_r : Tuple.r option;
  mutable cur_s : Tuple.s option;
  mutable ob_r : BQ.t -> Tuple.s -> unit;
  mutable os_r : SQ.t -> Tuple.s -> unit;
  mutable ob_s : BQ.t -> Tuple.s -> unit;
  mutable os_s : SQ.t -> Tuple.s -> unit;
  mutable evbuf : Tuple.r array;
  mutable sbuf : Tuple.s array;
  one : Batch.t;
}

(* Dispatch helpers over the existential packages. *)
let band_process (Bproc ((module P), p)) r sink = P.process_r p r sink
let band_stage (Bproc ((module P), p)) evs n = P.stage_batch p evs n
let band_process_staged (Bproc ((module P), p)) ~idx r sink = P.process_staged p ~idx r sink
let band_insert (Bproc ((module P), p)) q = P.insert_query p q
let band_delete (Bproc ((module P), p)) q = P.delete_query p q
let band_count (Bproc ((module P), p)) = P.query_count p
let band_check (Bproc ((module P), p)) = P.check_invariants p
let band_hotspots (Bproc ((module P), p)) = P.num_hotspots p
let band_coverage (Bproc ((module P), p)) = P.coverage p
let band_telemetry (Bproc ((module P), p)) = P.telemetry p
let band_set_shed (Bproc ((module P), p)) pred = P.set_shed p pred
let select_process (Sproc ((module P), p)) r sink = P.process_r p r sink
let select_stage (Sproc ((module P), p)) evs n = P.stage_batch p evs n
let select_process_staged (Sproc ((module P), p)) ~idx r sink = P.process_staged p ~idx r sink
let select_set_shed (Sproc ((module P), p)) pred = P.set_shed p pred
let select_insert (Sproc ((module P), p)) q = P.insert_query p q
let select_delete (Sproc ((module P), p)) q = P.delete_query p q
let select_count (Sproc ((module P), p)) = P.query_count p
let select_check (Sproc ((module P), p)) = P.check_invariants p
let select_hotspots (Sproc ((module P), p)) = P.num_hotspots p
let select_coverage (Sproc ((module P), p)) = P.coverage p
let select_telemetry (Sproc ((module P), p)) = P.telemetry p

(* {2 Load shedding}

   Shed mode samples (event, query) candidate pairs with a Bernoulli
   coin of keep-probability [shed_rate]; a dropped pair skips the
   query's probes for that event entirely.  Delivered answers are
   degraded: the per-query Horvitz-Thompson estimate [se_est] unbiases
   the observed cardinality, and the claimed absolute-error bound is

     max(se_err, se_kbound)

   This is rigorous, not heuristic.  Writing the exact count as
   N = sum over all (event, query) candidates of k_i (the event's
   result count for the query), the estimate is sum over kept events
   of k_i/p_i, so

     est - N = sum_kept k_i*(1-p_i)/p_i - sum_dropped k_i

   The positive part is [se_err] exactly (accumulated per kept event);
   the negative part is bounded by [se_kbound], the sum over dropped
   events of that event's opposite-table size — an event's results all
   pair it with previously stored tuples of the other relation, so the
   table size at ingest time caps k_i.  The difference of two
   non-negative sums is bounded by their max.  Tuples are broadcast to
   every shard, so table sizes at a given ordinal — like the coins —
   are shard-invariant, and the claimed bound is identical for every
   shard count.

   For the sum to cover the whole stream the estimator must see every
   delivered result, including those of exact phases: an adaptive
   controller moves the rate between 1.0 and sub-unit values per
   chunk, and results delivered at rate 1.0 are candidates kept with
   p = 1 — they add k/1 to the estimate and zero to either error term.
   Omitting them would understate the estimate by exactly the exact
   phases' result count while the claimed bound only covered the
   shed phases' sampling error.  Hence recording is gated on
   [shed_engaged] (shed mode), not on the instantaneous rate.
   The oracle's [Shed_bounds] sweeps fuzz the bound at constant forced
   rates and across rate schedules that mix exact and shedding
   phases. *)

let est_for t qid =
  match Hashtbl.find_opt t.shed_ests qid with
  | Some e -> e
  | None ->
      let e =
        {
          se_obs = 0;
          se_est = 0.0;
          se_err = 0.0;
          se_dropped = 0;
          se_min_p = 1.0;
          se_kbound = 0.0;
          se_ev = -1;
          se_ev_k = 0;
          se_ev_p = 1.0;
        }
      in
      Hashtbl.replace t.shed_ests qid e;
      e

let flush_pending est =
  if est.se_ev_k > 0 then begin
    let k = float_of_int est.se_ev_k and p = est.se_ev_p in
    est.se_est <- est.se_est +. (k /. p);
    est.se_err <- est.se_err +. (k *. (1.0 -. p) /. p);
    est.se_ev_k <- 0
  end

(* The coin is a pure function of (seed, event ordinal, qid): every
   shard of a broadcast stream — and every replay with the same seed —
   flips identically, which is what makes shed decisions deterministic
   and shard-count-invariant. *)
let shed_coin t qid =
  let mix =
    t.shed_seed
    lxor (t.shed_ord * 0x2545F4914F6CDD1D)
    lxor ((qid + 1) * 0x1F3779B97F4A7C15)
  in
  Cq_util.Rng.float (Cq_util.Rng.create mix) < t.shed_rate

let shed_pred t qid =
  t.shed_rate >= 1.0
  ||
  if shed_coin t qid then begin
    t.shed_kept <- t.shed_kept + 1;
    if t.shed_rate < t.shed_floor then t.shed_floor <- t.shed_rate;
    Metrics.incr m_shed_kept;
    true
  end
  else begin
    t.shed_dropped <- t.shed_dropped + 1;
    if t.shed_rate < t.shed_floor then t.shed_floor <- t.shed_rate;
    Metrics.incr m_shed_dropped;
    let est = est_for t qid in
    est.se_dropped <- est.se_dropped + 1;
    est.se_kbound <- est.se_kbound +. float_of_int t.shed_ev_kbound;
    if t.shed_rate < est.se_min_p then est.se_min_p <- t.shed_rate;
    false
  end

let shed_note_result t qid =
  if t.shed_engaged then begin
    let est = est_for t qid in
    if est.se_ev <> t.shed_ord then begin
      flush_pending est;
      est.se_ev <- t.shed_ord;
      est.se_ev_p <- t.shed_rate
    end;
    est.se_ev_k <- est.se_ev_k + 1;
    est.se_obs <- est.se_obs + 1;
    if t.shed_rate < est.se_min_p then est.se_min_p <- t.shed_rate
  end

type degraded = {
  deg_qid : int;
  deg_observed : int;
  deg_estimate : float;
  deg_claimed_error : float;
  deg_rate : float;
}

type shed_totals = { tot_kept : int; tot_dropped : int; tot_min_rate : float }

let shed_totals t =
  { tot_kept = t.shed_kept; tot_dropped = t.shed_dropped; tot_min_rate = t.shed_floor }

(* Only queries actually touched by a sub-unit coin are reported: a
   query whose candidates were all seen at rate 1.0 (in particular,
   every query of an engine that never shed) has estimate = observed =
   exact and claimed error 0 — omitting it keeps "exact processing ⇒
   empty report" true even though the estimator records rate-1.0
   traffic while engaged. *)
let shed_info t =
  let out =
    Hashtbl.fold
      (fun qid est acc ->
        flush_pending est;
        if est.se_dropped = 0 && est.se_min_p >= 1.0 then acc
        else
          let claimed = Float.max est.se_err est.se_kbound in
          {
            deg_qid = qid;
            deg_observed = est.se_obs;
            deg_estimate = est.se_est;
            deg_claimed_error = claimed;
            deg_rate = est.se_min_p;
          }
          :: acc)
      t.shed_ests []
  in
  List.sort (fun a b -> Int.compare a.deg_qid b.deg_qid) out

(* All four processors share one predicate closed over the engine, so
   a rate change applies everywhere at once.  The predicate is only
   installed while shedding is active (rate < 1.0): with [None]
   installed the processors take their exact zero-overhead path, so
   Block mode is byte-for-byte the pre-shedding engine. *)
let install_shed t =
  let pred = if t.shed_rate < 1.0 then Some (fun qid -> shed_pred t qid) else None in
  band_set_shed t.r_side.band pred;
  band_set_shed t.s_side.band pred;
  select_set_shed t.r_side.select pred;
  select_set_shed t.s_side.select pred

let set_shed_rate t rate =
  let was_shedding = t.shed_rate < 1.0 in
  t.shed_rate <- rate;
  if rate < 1.0 then t.shed_engaged <- true;
  if was_shedding <> (rate < 1.0) then install_shed t

let set_shed_seed t seed = t.shed_seed <- seed

let log_src = Logs.Src.create "cq.engine" ~doc:"continuous-query engine"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* A misbehaving subscriber must not break event processing for
   everyone else: callback exceptions are contained and logged. *)
let protected cb r s =
  try cb r s
  with exn ->
    Log.warn (fun m -> m "subscriber callback raised %s" (Printexc.to_string exn))

let deliver_band t (q : BQ.t) r s =
  (match Hashtbl.find_opt t.band_cbs q.qid with
  | Some cb -> protected cb r s
  | None -> ());
  t.results <- t.results + 1;
  shed_note_result t q.qid;
  Metrics.incr m_results

let deliver_select t (q : SQ.t) r s =
  (match Hashtbl.find_opt t.select_cbs q.qid with
  | Some cb -> protected cb r s
  | None -> ());
  t.results <- t.results + 1;
  shed_note_result t q.qid;
  Metrics.incr m_results

(* Both encodings are one and the same transposition: the join key B
   stays put, the side-local attribute crosses to the other slot.  An
   R-tuple stored in S shape, and a probe-table row decoded back into
   R shape, go through these. *)
let to_row (r : Tuple.r) = { Tuple.sid = r.rid; b = r.b; c = r.a }
let of_row (s : Tuple.s) = { Tuple.rid = s.sid; a = s.c; b = s.b }

let dummy_r = { Tuple.rid = -1; a = 0.0; b = 0.0 }
let dummy_s = { Tuple.sid = -1; b = 0.0; c = 0.0 }

let make_side (cfg : Config.t) ~probe ~home ~seed_base =
  let (module BP : BJ.PROCESSOR) = BJ.processor cfg.strategy in
  let (module SP : SJ.PROCESSOR) = SJ.processor cfg.strategy in
  {
    band =
      Bproc
        ( (module BP),
          BP.create_cfg ~alpha:cfg.alpha ~epsilon:cfg.epsilon ~seed:seed_base probe [||] );
    select =
      Sproc
        ( (module SP),
          SP.create_cfg ~alpha:cfg.alpha ~epsilon:cfg.epsilon ~seed:(seed_base + 2) probe
            [||] );
    home;
  }

let try_create_cfg (cfg : Config.t) =
  match Config.validate cfg with
  | Error e -> Error e
  | Ok _ ->
      let s_table = Table.create_s () in
      let r_mirror = Table.create_s () in
      (* The four processors get distinct derived seeds so their treap
         priority streams stay independent: the R side takes seed and
         seed+2, the S side seed+1 and seed+3. *)
      let t =
        {
          s_table;
          r_mirror;
          r_side = make_side cfg ~probe:s_table ~home:r_mirror ~seed_base:cfg.seed;
          s_side = make_side cfg ~probe:r_mirror ~home:s_table ~seed_base:(cfg.seed + 1);
          band_cbs = Hashtbl.create 64;
          select_cbs = Hashtbl.create 64;
          band_retracts = Hashtbl.create 64;
          select_retracts = Hashtbl.create 64;
          next_qid = 0;
          next_rid = 0;
          next_sid = 0;
          events = 0;
          results = 0;
          shed_rate = cfg.shed_rate;
          shed_engaged = (cfg.overload = Config.Shed || cfg.shed_rate < 1.0);
          shed_seed = cfg.seed;
          shed_ord = 0;
          shed_kept = 0;
          shed_dropped = 0;
          shed_floor = 1.0;
          shed_ev_kbound = 0;
          shed_ests = Hashtbl.create 32;
          cur_r = None;
          cur_s = None;
          ob_r = (fun _ _ -> ());
          os_r = (fun _ _ -> ());
          ob_s = (fun _ _ -> ());
          os_s = (fun _ _ -> ());
          evbuf = [||];
          sbuf = [||];
          one = Batch.create ~capacity:1 ();
        }
      in
      (* Tie the delivery-closure knot: the four sinks read the event
         tuple from [cur_r]/[cur_s] instead of capturing it, so the
         same closures serve every event. *)
      t.ob_r <-
        (fun q s -> match t.cur_r with Some r -> deliver_band t q r s | None -> ());
      t.os_r <-
        (fun q s -> match t.cur_r with Some r -> deliver_select t q r s | None -> ());
      t.ob_s <-
        (fun q mirror ->
          match t.cur_s with Some s -> deliver_band t q (of_row mirror) s | None -> ());
      t.os_s <-
        (fun q mirror ->
          match t.cur_s with Some s -> deliver_select t q (of_row mirror) s | None -> ());
      install_shed t;
      Ok t

let create_cfg cfg = Err.ok_exn (try_create_cfg cfg)

let try_create ?alpha ?epsilon ?seed ?strategy ?shards ?batch_size ?overload
    ?shed_rate () =
  let d = Config.default in
  try_create_cfg
    {
      alpha = Option.value alpha ~default:d.alpha;
      epsilon = Option.value epsilon ~default:d.epsilon;
      seed = Option.value seed ~default:d.seed;
      strategy = Option.value strategy ~default:d.strategy;
      shards = Option.value shards ~default:d.shards;
      batch_size = Option.value batch_size ~default:d.batch_size;
      overload = Option.value overload ~default:d.overload;
      shed_rate = Option.value shed_rate ~default:d.shed_rate;
    }

let create ?alpha ?epsilon ?seed ?strategy ?shards ?batch_size ?overload ?shed_rate
    () =
  Err.ok_exn
    (try_create ?alpha ?epsilon ?seed ?strategy ?shards ?batch_size ?overload
       ?shed_rate ())

let fresh_qid t =
  let q = t.next_qid in
  t.next_qid <- q + 1;
  q

(* Subscriptions normally draw sequential qids; an explicit [?qid]
   override lets a coordinator (Engine.Parallel) impose its own global
   numbering so qids — and therefore shed-coin outcomes — are identical
   on every shard regardless of which queries landed there. *)
let claim_qid t = function
  | None -> Ok (fresh_qid t)
  | Some q ->
      if Hashtbl.mem t.band_cbs q || Hashtbl.mem t.select_cbs q then
        Error (Err.Duplicate { what = Printf.sprintf "qid %d" q })
      else begin
        t.next_qid <- max t.next_qid (q + 1);
        Ok q
      end

(* The mirrored band window: S.B - R.B ∈ [lo, hi] iff
   R.B - S.B ∈ [-hi, -lo]. *)
let negate_range r = I.make (-.I.hi r) (-.I.lo r)

let try_subscribe_band t ?qid ?on_retract ~range cb =
  if I.is_empty range then Error (Err.Empty_range { name = "range" })
  else
    match claim_qid t qid with
    | Error _ as e -> e
    | Ok qid ->
        let fwd = BQ.make ~qid ~range in
        let bwd = BQ.make ~qid ~range:(negate_range range) in
        band_insert t.r_side.band fwd;
        band_insert t.s_side.band bwd;
        Hashtbl.replace t.band_cbs qid cb;
        (match on_retract with
        | Some f -> Hashtbl.replace t.band_retracts qid f
        | None -> ());
        Ok (Band { fwd; bwd })

let subscribe_band t ?qid ?on_retract ~range cb =
  Err.ok_exn (try_subscribe_band t ?qid ?on_retract ~range cb)

let try_subscribe_select t ?qid ?on_retract ~range_a ~range_c cb =
  if I.is_empty range_a then Error (Err.Empty_range { name = "range_a" })
  else if I.is_empty range_c then Error (Err.Empty_range { name = "range_c" })
  else
    match claim_qid t qid with
    | Error _ as e -> e
    | Ok qid ->
        let fwd = SQ.make ~qid ~range_a ~range_c in
        (* Mirror swaps the roles of the two selection axes. *)
        let bwd = SQ.make ~qid ~range_a:range_c ~range_c:range_a in
        select_insert t.r_side.select fwd;
        select_insert t.s_side.select bwd;
        Hashtbl.replace t.select_cbs qid cb;
        (match on_retract with
        | Some f -> Hashtbl.replace t.select_retracts qid f
        | None -> ());
        Ok (Select { fwd; bwd })

let subscribe_select t ?qid ?on_retract ~range_a ~range_c cb =
  Err.ok_exn (try_subscribe_select t ?qid ?on_retract ~range_a ~range_c cb)

let unsubscribe t = function
  | Band { fwd; bwd } ->
      let ok = band_delete t.r_side.band fwd in
      if ok then begin
        ignore (band_delete t.s_side.band bwd);
        Hashtbl.remove t.band_cbs fwd.BQ.qid;
        Hashtbl.remove t.band_retracts fwd.BQ.qid
      end;
      ok
  | Select { fwd; bwd } ->
      let ok = select_delete t.r_side.select fwd in
      if ok then begin
        ignore (select_delete t.s_side.select bwd);
        Hashtbl.remove t.select_cbs fwd.SQ.qid;
        Hashtbl.remove t.select_retracts fwd.SQ.qid
      end;
      ok

let band_query_count t = band_count t.r_side.band
let select_query_count t = select_count t.r_side.select

(* Deletion: the tuple leaves the home table first (it must not join
   with itself), then the very processors that produced its result
   pairs at insertion time recompute them as retractions.

   Shed mode is insert-only, matching the parallel API (which routes no
   deletions at all): a retraction would recompute the {e exact} result
   pairs — firing [on_retract] for pairs that were shed at insertion
   time and never delivered — and the Horvitz-Thompson accounting has
   no sound way to subtract them.  [shed_guard] rejects the deletion
   up front, before any state changes. *)
let shed_guard t what =
  if t.shed_engaged then
    Err.raise_
      (Err.Invalid_parameter
         {
           name = what;
           value = "shed-mode engine";
           expected =
             "an insert-only workload under the Shed policy / a forced shed_rate (use \
              Block or Reject for workloads with deletions)";
         })

let retract t side pseudo ~on_band ~on_select =
  if not (Table.delete_s side.home (to_row pseudo)) then None
  else begin
    t.events <- t.events + 1;
    Metrics.incr m_events;
    let count = ref 0 in
    let t0 = Metrics.stamp () in
    (* [shed_guard] has already excluded shed-mode engines, so the rate
       is 1.0 here and the recomputation is exact. *)
    band_process side.band pseudo (fun q s ->
        incr count;
        on_band q s);
    select_process side.select pseudo (fun q s ->
        incr count;
        on_select q s);
    Metrics.observe_since m_retract_ns t0;
    Some !count
  end

(* {2 Ingest}

   Every insertion is a flat batch — a single tuple is a batch of one.
   The batch is validated as a whole, its events staged through the
   processors' batched scattered-index descent, then processed event
   by event through the preallocated sinks — no per-event closures, no
   intermediate per-tuple lists.  Each event is processed before its
   row reaches the home table (a tuple never joins with itself),
   ordinals advance once per row, and same-side events never join with
   each other, so staging the whole batch up front observes the same
   index state per event as a row-by-row replay.  Subscriber callbacks
   must not re-enter the engine (ingest, subscribe, unsubscribe) during
   a batch: the staged candidates and scratch buffers assume the
   structure is quiescent until the batch returns. *)

let ensure_evbuf t n =
  if Array.length t.evbuf < n then t.evbuf <- Array.make n dummy_r

let ensure_sbuf t n = if Array.length t.sbuf < n then t.sbuf <- Array.make n dummy_s

(* The symmetric event body, written once and driven by both sides:
   the event — encoded in the R role for [side]'s processors — is run
   through the side's band and select processors, then stored in the
   side's home table so future events on the other side can see it.
   [home] is that stored row — structurally [to_row pseudo], passed in
   so the S side can reuse the row it already built. *)
let[@cq.hot] ingest_staged t side ~idx pseudo ~home ~on_band ~on_select =
  t.events <- t.events + 1;
  (* Ordinals advance on ingests only (never on retractions), so a
     broadcast stream assigns the same ordinal to the same event on
     every shard. *)
  t.shed_ord <- t.shed_ord + 1;
  (* Cap on this event's per-query result count: it can only pair with
     tuples already stored on the other side.  Broadcast replication
     makes this size shard-invariant at a given ordinal, so the claimed
     error bounds built from it are too. *)
  if t.shed_rate < 1.0 then
    t.shed_ev_kbound <-
      Table.s_size (if side == t.r_side then t.s_side.home else t.r_side.home);
  Metrics.incr m_events;
  let t0 = Metrics.stamp () in
  band_process_staged side.band ~idx pseudo on_band;
  select_process_staged side.select ~idx pseudo on_select;
  Table.insert_s side.home home;
  Metrics.observe_since m_ingest_ns t0

(* Whole-batch validation, mirroring [validate_rows]: a bad row fails
   the batch before any state changes.  Attribute values must be
   finite — a NaN join key admitted into the B-trees breaks their total
   order silently.  Tracks the first bad index, not a materialised
   error, so the clean (overwhelmingly common) pass allocates nothing;
   the [Error] payload is built once, after the scan, only on the
   failure path. *)
let[@cq.hot] validate_batch ~x_name ~y_name batch =
  let n = Batch.length batch in
  let bad = ref (-1) in
  let bad_y = ref false in
  let i = ref 0 in
  while !bad < 0 && !i < n do
    let x = Batch.unsafe_x batch !i and y = Batch.unsafe_y batch !i in
    if not (Float.is_finite x) then bad := !i
    else if not (Float.is_finite y) then begin
      bad := !i;
      bad_y := true
    end
    else incr i
  done;
  if !bad < 0 then Ok ()
  else if !bad_y then
    Error (Err.Not_finite { name = y_name; value = Batch.unsafe_y batch !bad })
  else Error (Err.Not_finite { name = x_name; value = Batch.unsafe_x batch !bad })

let[@cq.hot] try_ingest_batch_r t ?on_event batch =
  match validate_batch ~x_name:"a" ~y_name:"b" batch with
  | Error e -> Error e
  | Ok () ->
      let n = Batch.length batch in
      let before = t.results in
      ensure_evbuf t n;
      let writable = not (Batch.is_view batch || Batch.sealed batch) in
      for i = 0 to n - 1 do
        let rid = t.next_rid in
        t.next_rid <- rid + 1;
        if writable then Batch.set_id batch i rid;
        t.evbuf.(i) <- { Tuple.rid; a = Batch.unsafe_x batch i; b = Batch.unsafe_y batch i }
      done;
      band_stage t.r_side.band t.evbuf n;
      select_stage t.r_side.select t.evbuf n;
      for i = 0 to n - 1 do
        let r = t.evbuf.(i) in
        t.cur_r <- Some r;
        ingest_staged t t.r_side ~idx:i r ~home:(to_row r) ~on_band:t.ob_r ~on_select:t.os_r;
        match on_event with Some f -> f i | None -> ()
      done;
      t.cur_r <- None;
      Ok (t.results - before)

let[@cq.hot] try_ingest_batch_s t ?on_event batch =
  match validate_batch ~x_name:"b" ~y_name:"c" batch with
  | Error e -> Error e
  | Ok () ->
      let n = Batch.length batch in
      let before = t.results in
      ensure_evbuf t n;
      ensure_sbuf t n;
      let writable = not (Batch.is_view batch || Batch.sealed batch) in
      for i = 0 to n - 1 do
        let sid = t.next_sid in
        t.next_sid <- sid + 1;
        if writable then Batch.set_id batch i sid;
        let s = { Tuple.sid; b = Batch.unsafe_x batch i; c = Batch.unsafe_y batch i } in
        t.sbuf.(i) <- s;
        (* The S-tuple plays the R role against the mirror. *)
        t.evbuf.(i) <- of_row s
      done;
      band_stage t.s_side.band t.evbuf n;
      select_stage t.s_side.select t.evbuf n;
      for i = 0 to n - 1 do
        t.cur_s <- Some t.sbuf.(i);
        ingest_staged t t.s_side ~idx:i t.evbuf.(i) ~home:t.sbuf.(i) ~on_band:t.ob_s
          ~on_select:t.os_s;
        match on_event with Some f -> f i | None -> ()
      done;
      t.cur_s <- None;
      Ok (t.results - before)

let ingest_batch_r t ?on_event batch = Err.ok_exn (try_ingest_batch_r t ?on_event batch)
let ingest_batch_s t ?on_event batch = Err.ok_exn (try_ingest_batch_s t ?on_event batch)

(* A single tuple is a batch of one: it rides in the engine-owned
   one-row batch through the same validation and event body, and
   [stage_batch] skips staging for it, so the processors stab their
   indexes directly. *)
let push_one t ~x ~y =
  Batch.clear t.one;
  Batch.push t.one ~x ~y;
  t.one

let try_insert_r t ~a ~b =
  match try_ingest_batch_r t (push_one t ~x:a ~y:b) with
  | Error e -> Error e
  | Ok n -> Ok (t.evbuf.(0), n)

let insert_r t ~a ~b = Err.ok_exn (try_insert_r t ~a ~b)

let try_insert_s t ~b ~c =
  match try_ingest_batch_s t (push_one t ~x:b ~y:c) with
  | Error e -> Error e
  | Ok n -> Ok (t.sbuf.(0), n)

let insert_s t ~b ~c = Err.ok_exn (try_insert_s t ~b ~c)

(* Bulk loads validate every row before touching the tables, so a bad
   row cannot leave a half-applied load behind.  The Cq_error payload
   names the actual attribute ("b"/"c" for S rows, "a"/"b" for R rows),
   matching what try_insert_r/try_insert_s report for the same value —
   not the tuple position. *)
let validate_rows ~fst_name ~snd_name rows =
  let bad = ref None in
  Array.iter
    (fun (x, y) ->
      if Option.is_none !bad then
        if not (Float.is_finite x) then
          bad := Some (Err.Not_finite { name = fst_name; value = x })
        else if not (Float.is_finite y) then
          bad := Some (Err.Not_finite { name = snd_name; value = y }))
    rows;
  match !bad with None -> Ok () | Some e -> Error e

let try_load_s t rows =
  match validate_rows ~fst_name:"b" ~snd_name:"c" rows with
  | Error e -> Error e
  | Ok () ->
      Array.iter
        (fun (b, c) ->
          let sid = t.next_sid in
          t.next_sid <- sid + 1;
          Table.insert_s t.s_table { Tuple.sid; b; c })
        rows;
      Ok ()

let load_s t rows = Err.ok_exn (try_load_s t rows)

let try_load_r t rows =
  match validate_rows ~fst_name:"a" ~snd_name:"b" rows with
  | Error e -> Error e
  | Ok () ->
      Array.iter
        (fun (a, b) ->
          let rid = t.next_rid in
          t.next_rid <- rid + 1;
          Table.insert_s t.r_mirror { Tuple.sid = rid; b; c = a })
        rows;
      Ok ()

let load_r t rows = Err.ok_exn (try_load_r t rows)

let find_retract tbl qid = Hashtbl.find_opt tbl qid

let delete_r t (r : Tuple.r) =
  shed_guard t "delete_r";
  retract t t.r_side r
    ~on_band:(fun (q : BQ.t) s ->
      match find_retract t.band_retracts q.qid with
      | Some f -> protected f r s
      | None -> ())
    ~on_select:(fun (q : SQ.t) s ->
      match find_retract t.select_retracts q.qid with
      | Some f -> protected f r s
      | None -> ())

let delete_s t (s : Tuple.s) =
  shed_guard t "delete_s";
  retract t t.s_side (of_row s)
    ~on_band:(fun (q : BQ.t) mirror ->
      match find_retract t.band_retracts q.qid with
      | Some f -> protected f (of_row mirror) s
      | None -> ())
    ~on_select:(fun (q : SQ.t) mirror ->
      match find_retract t.select_retracts q.qid with
      | Some f -> protected f (of_row mirror) s
      | None -> ())

let check_invariants t =
  let fail fmt = Cq_util.Error.corrupt ~structure:"engine" fmt in
  band_check t.r_side.band;
  band_check t.s_side.band;
  select_check t.r_side.select;
  select_check t.s_side.select;
  (* Forward and mirrored query sets are registered/cancelled in
     lockstep. *)
  if band_count t.r_side.band <> band_count t.s_side.band then
    fail "engine: %d forward band queries but %d mirrored"
      (band_count t.r_side.band) (band_count t.s_side.band);
  if select_count t.r_side.select <> select_count t.s_side.select then
    fail "engine: %d forward select queries but %d mirrored"
      (select_count t.r_side.select)
      (select_count t.s_side.select);
  if Hashtbl.length t.band_cbs <> band_count t.r_side.band then
    fail "engine: band callback table out of sync with query set";
  if Hashtbl.length t.select_cbs <> select_count t.r_side.select then
    fail "engine: select callback table out of sync with query set";
  if Table.s_size t.s_table > t.next_sid then fail "engine: |S| exceeds issued sids";
  if Table.s_size t.r_mirror > t.next_rid then fail "engine: |R| exceeds issued rids"

type stats = {
  r_size : int;
  s_size : int;
  events_processed : int;
  results_delivered : int;
  band_hotspots : int;
  band_coverage : float;
  select_hotspots : int;
  select_coverage : float;
  restructures : int;
  groups_split : int;
  groups_merged : int;
  max_group_size : int;
}

(* Aggregate structural-reorganisation telemetry over all four
   processors (band/select × forward/mirror). *)
let telemetry t =
  let module P = Hotspot_core.Processor in
  List.fold_left P.add_telemetry P.empty_telemetry
    [
      band_telemetry t.r_side.band;
      band_telemetry t.s_side.band;
      select_telemetry t.r_side.select;
      select_telemetry t.s_side.select;
    ]

let stats t =
  let tel = telemetry t in
  {
    r_size = Table.s_size t.r_mirror;
    s_size = Table.s_size t.s_table;
    events_processed = t.events;
    results_delivered = t.results;
    band_hotspots = band_hotspots t.r_side.band;
    band_coverage = band_coverage t.r_side.band;
    select_hotspots = select_hotspots t.r_side.select;
    select_coverage = select_coverage t.r_side.select;
    restructures = tel.Hotspot_core.Processor.restructures;
    groups_split = tel.Hotspot_core.Processor.groups_split;
    groups_merged = tel.Hotspot_core.Processor.groups_merged;
    max_group_size = tel.Hotspot_core.Processor.max_group_size;
  }

(* Cross-shard merge hooks: forward-side snapshots only, matching the
   hotspot/coverage fields of [stats] (the mirror side tracks the same
   query population). *)
let band_snapshot t =
  let (Bproc ((module P), p)) = t.r_side.band in
  P.snapshot p

let select_snapshot t =
  let (Sproc ((module P), p)) = t.r_side.select in
  P.snapshot p

let pp_stats fmt s =
  Format.fprintf fmt
    "@[<v>|R| = %d, |S| = %d@,\
     events processed   %d@,\
     results delivered  %d@,\
     band hotspots      %d (coverage %.1f%%)@,\
     select hotspots    %d (coverage %.1f%%)@,\
     restructures       %d (%d splits, %d merges)@,\
     max group size     %d@]"
    s.r_size s.s_size s.events_processed s.results_delivered s.band_hotspots
    (100.0 *. s.band_coverage) s.select_hotspots (100.0 *. s.select_coverage)
    s.restructures s.groups_split s.groups_merged s.max_group_size

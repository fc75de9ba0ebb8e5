module I = Cq_interval.Interval
module Table = Cq_relation.Table
module Tuple = Cq_relation.Tuple
module Batch = Cq_relation.Batch
module BQ = Cq_joins.Band_query
module BP = Cq_joins.Band_join.Hotspot
module SQ = Cq_joins.Select_query
module SP = Cq_joins.Select_join.Hotspot
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

  type t = {
    alpha : float;
    epsilon : float;
    seed : int;
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

(* One side of the symmetric engine.  A side processes the events for
   which its tuples play the R role: its processors probe the {e other}
   side's table, and [home] is where its own tuples are stored (always
   in S shape — B stays the join key, the side-local attribute rides in
   the other slot). *)
type side = {
  band : BP.t;
  select : SP.t;
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
  (* Subscriber callbacks by qid, [no_cb] in every slot without a live
     subscription.  Band and select queries share one qid space, so
     one table serves both kinds.  Qids are dense (the engine numbers
     them, and a coordinator's global counter numbers its shards'), so
     a delivery reads its callback with one array load; the array
     grows geometrically. *)
  mutable cbs : (Tuple.r -> Tuple.s -> unit) array;
  retracts : (int, Tuple.r -> Tuple.s -> unit) Hashtbl.t;
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
     ingest builds no sink closures.  [one] is the one-row batch a
     single-tuple insert rides in. *)
  mutable cur_r : Tuple.r option;
  mutable cur_s : Tuple.s option;
  mutable ob_r : BQ.t -> Tuple.s -> unit;
  mutable os_r : SQ.t -> Tuple.s -> unit;
  mutable ob_s : BQ.t -> Tuple.s -> unit;
  mutable os_s : SQ.t -> Tuple.s -> unit;
  one : Batch.t;
}

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
  BP.set_shed t.r_side.band pred;
  BP.set_shed t.s_side.band pred;
  SP.set_shed t.r_side.select pred;
  SP.set_shed t.s_side.select pred

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

let no_cb (_ : Tuple.r) (_ : Tuple.s) = ()

(* The callback of [qid] in [cbs]: [no_cb] past the end.  A result
   whose query is gone is still counted. *)
let cb_of cbs qid = if qid < Array.length cbs then cbs.(qid) else no_cb

(* [cbs] with [cb] in slot [qid], grown to twice the needed length
   when it is too short. *)
let set_cb cbs qid cb =
  let cbs =
    if qid < Array.length cbs then cbs
    else begin
      let grown = Array.make (2 * (qid + 1)) no_cb in
      Array.blit cbs 0 grown 0 (Array.length cbs);
      grown
    end
  in
  cbs.(qid) <- cb;
  cbs

let live_cbs cbs = Array.fold_left (fun n cb -> if cb == no_cb then n else n + 1) 0 cbs

let deliver t qid r s =
  protected (cb_of t.cbs qid) r s;
  t.results <- t.results + 1;
  shed_note_result t qid;
  Metrics.incr m_results

(* Both encodings are one and the same transposition: the join key B
   stays put, the side-local attribute crosses to the other slot.  An
   R-tuple stored in S shape, and a probe-table row decoded back into
   R shape, go through these. *)
let to_row (r : Tuple.r) = { Tuple.sid = r.rid; b = r.b; c = r.a }
let of_row (s : Tuple.s) = { Tuple.rid = s.sid; a = s.c; b = s.b }

let make_side (cfg : Config.t) ~probe ~home ~seed_base =
  let { Config.alpha; epsilon; _ } = cfg in
  {
    band = BP.create_alpha ~alpha ~epsilon ~seed:seed_base probe [||];
    select = SP.create_alpha ~alpha ~epsilon ~seed:(seed_base + 2) probe [||];
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
          cbs = [||];
          retracts = Hashtbl.create 64;
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
          one = Batch.create ~capacity:1 ();
        }
      in
      (* Tie the delivery-closure knot: the four sinks read the event
         tuple from [cur_r]/[cur_s] instead of capturing it, so the
         same closures serve every event. *)
      t.ob_r <-
        (fun q s -> match t.cur_r with Some r -> deliver t q.BQ.qid r s | None -> ());
      t.os_r <-
        (fun q s -> match t.cur_r with Some r -> deliver t q.SQ.qid r s | None -> ());
      t.ob_s <-
        (fun q mirror ->
          match t.cur_s with Some s -> deliver t q.BQ.qid (of_row mirror) s | None -> ());
      t.os_s <-
        (fun q mirror ->
          match t.cur_s with Some s -> deliver t q.SQ.qid (of_row mirror) s | None -> ());
      install_shed t;
      Ok t

let create_cfg cfg = Err.ok_exn (try_create_cfg cfg)

let try_create ?alpha ?epsilon ?seed ?shards ?batch_size ?overload ?shed_rate () =
  let d = Config.default in
  try_create_cfg
    {
      alpha = Option.value alpha ~default:d.alpha;
      epsilon = Option.value epsilon ~default:d.epsilon;
      seed = Option.value seed ~default:d.seed;
      shards = Option.value shards ~default:d.shards;
      batch_size = Option.value batch_size ~default:d.batch_size;
      overload = Option.value overload ~default:d.overload;
      shed_rate = Option.value shed_rate ~default:d.shed_rate;
    }

let create ?alpha ?epsilon ?seed ?shards ?batch_size ?overload ?shed_rate () =
  Err.ok_exn (try_create ?alpha ?epsilon ?seed ?shards ?batch_size ?overload ?shed_rate ())

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
      if q < 0 then
        Error
          (Err.Invalid_parameter { name = "qid"; value = string_of_int q; expected = "a qid >= 0" })
      else if cb_of t.cbs q != no_cb then
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
        BP.insert_query t.r_side.band fwd;
        BP.insert_query t.s_side.band bwd;
        t.cbs <- set_cb t.cbs qid cb;
        Option.iter (Hashtbl.replace t.retracts qid) on_retract;
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
        SP.insert_query t.r_side.select fwd;
        SP.insert_query t.s_side.select bwd;
        t.cbs <- set_cb t.cbs qid cb;
        Option.iter (Hashtbl.replace t.retracts qid) on_retract;
        Ok (Select { fwd; bwd })

let subscribe_select t ?qid ?on_retract ~range_a ~range_c cb =
  Err.ok_exn (try_subscribe_select t ?qid ?on_retract ~range_a ~range_c cb)

let drop_cb t qid =
  t.cbs.(qid) <- no_cb;
  Hashtbl.remove t.retracts qid

let unsubscribe t = function
  | Band { fwd; bwd } ->
      let ok = BP.delete_query t.r_side.band fwd in
      if ok then begin
        ignore (BP.delete_query t.s_side.band bwd);
        drop_cb t fwd.BQ.qid
      end;
      ok
  | Select { fwd; bwd } ->
      let ok = SP.delete_query t.r_side.select fwd in
      if ok then begin
        ignore (SP.delete_query t.s_side.select bwd);
        drop_cb t fwd.SQ.qid
      end;
      ok

let band_query_count t = BP.query_count t.r_side.band
let select_query_count t = SP.query_count t.r_side.select

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

let retract t side pseudo ~on_result =
  if not (Table.delete_s side.home (to_row pseudo)) then None
  else begin
    t.events <- t.events + 1;
    Metrics.incr m_events;
    let count = ref 0 in
    let t0 = Metrics.stamp () in
    (* [shed_guard] has already excluded shed-mode engines, so the rate
       is 1.0 here and the recomputation is exact. *)
    BP.process_r side.band pseudo (fun q s ->
        incr count;
        on_result q.BQ.qid s);
    SP.process_r side.select pseudo (fun q s ->
        incr count;
        on_result q.SQ.qid s);
    Metrics.observe_since m_retract_ns t0;
    Some !count
  end

(* {2 Ingest}

   Every insertion is a flat batch — a single tuple is a batch of one.
   The batch is validated as a whole, then each row is run, in order,
   through the event body below: build the tuple, run it through the
   side's processors with the preallocated sinks (no per-event
   closures), store it in the home table.  Each event is processed
   before its row reaches the home table (a tuple never joins with
   itself), so the batch is exactly a row-by-row replay.  Subscriber
   callbacks must not re-enter the engine (ingest, subscribe,
   unsubscribe) during a batch: the sinks' [cur_r]/[cur_s] cells and
   the processors' scan state assume the structure is quiescent until
   the batch returns. *)

(* The symmetric event body, written once and driven by both sides:
   the event — encoded in the R role for [side]'s processors — is run
   through the side's band and select processors, then stored in the
   side's home table so future events on the other side can see it.
   [home] is that stored row — structurally [to_row pseudo], passed in
   so the S side can reuse the row it already built. *)
let[@cq.hot] ingest_event t side pseudo ~home ~on_band ~on_select =
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
  BP.process_r side.band pseudo on_band;
  SP.process_r side.select pseudo on_select;
  Table.insert_s side.home home;
  Metrics.observe_since m_ingest_ns t0

(* Whole-batch validation, shared with the bulk loads: a bad row fails
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
      let before = t.results in
      let writable = not (Batch.is_view batch || Batch.sealed batch) in
      for i = 0 to Batch.length batch - 1 do
        let rid = t.next_rid in
        t.next_rid <- rid + 1;
        if writable then Batch.set_id batch i rid;
        let r = { Tuple.rid; a = Batch.unsafe_x batch i; b = Batch.unsafe_y batch i } in
        t.cur_r <- Some r;
        ingest_event t t.r_side r ~home:(to_row r) ~on_band:t.ob_r ~on_select:t.os_r;
        match on_event with Some f -> f i | None -> ()
      done;
      t.cur_r <- None;
      Ok (t.results - before)

let[@cq.hot] try_ingest_batch_s t ?on_event batch =
  match validate_batch ~x_name:"b" ~y_name:"c" batch with
  | Error e -> Error e
  | Ok () ->
      let before = t.results in
      let writable = not (Batch.is_view batch || Batch.sealed batch) in
      for i = 0 to Batch.length batch - 1 do
        let sid = t.next_sid in
        t.next_sid <- sid + 1;
        if writable then Batch.set_id batch i sid;
        let s = { Tuple.sid; b = Batch.unsafe_x batch i; c = Batch.unsafe_y batch i } in
        t.cur_s <- Some s;
        (* The S-tuple plays the R role against the mirror. *)
        ingest_event t t.s_side (of_row s) ~home:s ~on_band:t.ob_s ~on_select:t.os_s;
        match on_event with Some f -> f i | None -> ()
      done;
      t.cur_s <- None;
      Ok (t.results - before)

let ingest_batch_r t ?on_event batch = Err.ok_exn (try_ingest_batch_r t ?on_event batch)
let ingest_batch_s t ?on_event batch = Err.ok_exn (try_ingest_batch_s t ?on_event batch)

(* A single tuple is a batch of one: it rides in the engine-owned
   one-row batch through the same validation and event body.  The
   returned tuple carries the id the batch wrote back into its row. *)
let push_one t ~x ~y =
  Batch.clear t.one;
  Batch.push t.one ~x ~y;
  t.one

let try_insert_r t ~a ~b =
  match try_ingest_batch_r t (push_one t ~x:a ~y:b) with
  | Error e -> Error e
  | Ok n -> Ok ({ Tuple.rid = Batch.id t.one 0; a; b }, n)

let insert_r t ~a ~b = Err.ok_exn (try_insert_r t ~a ~b)

let try_insert_s t ~b ~c =
  match try_ingest_batch_s t (push_one t ~x:b ~y:c) with
  | Error e -> Error e
  | Ok n -> Ok ({ Tuple.sid = Batch.id t.one 0; b; c }, n)

let insert_s t ~b ~c = Err.ok_exn (try_insert_s t ~b ~c)

(* Bulk loads validate every row with the ingest validator before
   touching the tables, so a bad row cannot leave a half-applied load
   behind, and the error names the same attribute ("b"/"c" for S rows,
   "a"/"b" for R rows) that try_insert_r/try_insert_s report. *)
let try_load_s t rows =
  match validate_batch ~x_name:"b" ~y_name:"c" (Batch.of_rows rows) with
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
  match validate_batch ~x_name:"a" ~y_name:"b" (Batch.of_rows rows) with
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

let retract_to t qid r s =
  match Hashtbl.find_opt t.retracts qid with Some f -> protected f r s | None -> ()

let delete_r t (r : Tuple.r) =
  shed_guard t "delete_r";
  retract t t.r_side r ~on_result:(fun qid s -> retract_to t qid r s)

let delete_s t (s : Tuple.s) =
  shed_guard t "delete_s";
  retract t t.s_side (of_row s) ~on_result:(fun qid mirror -> retract_to t qid (of_row mirror) s)

let check_invariants t =
  let fail fmt = Cq_util.Error.corrupt ~structure:"engine" fmt in
  BP.check_invariants t.r_side.band;
  BP.check_invariants t.s_side.band;
  SP.check_invariants t.r_side.select;
  SP.check_invariants t.s_side.select;
  (* Forward and mirrored query sets are registered/cancelled in
     lockstep. *)
  let nb = BP.query_count t.r_side.band and ns = SP.query_count t.r_side.select in
  if nb <> BP.query_count t.s_side.band then
    fail "engine: %d forward band queries but %d mirrored" nb (BP.query_count t.s_side.band);
  if ns <> SP.query_count t.s_side.select then
    fail "engine: %d forward select queries but %d mirrored" ns
      (SP.query_count t.s_side.select);
  if live_cbs t.cbs <> nb + ns then
    fail "engine: %d live callbacks for %d band and %d select queries" (live_cbs t.cbs) nb ns;
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
      BP.telemetry t.r_side.band;
      BP.telemetry t.s_side.band;
      SP.telemetry t.r_side.select;
      SP.telemetry t.s_side.select;
    ]

let stats t =
  let tel = telemetry t in
  {
    r_size = Table.s_size t.r_mirror;
    s_size = Table.s_size t.s_table;
    events_processed = t.events;
    results_delivered = t.results;
    band_hotspots = BP.num_hotspots t.r_side.band;
    band_coverage = BP.coverage t.r_side.band;
    select_hotspots = SP.num_hotspots t.r_side.select;
    select_coverage = SP.coverage t.r_side.select;
    restructures = tel.Hotspot_core.Processor.restructures;
    groups_split = tel.Hotspot_core.Processor.groups_split;
    groups_merged = tel.Hotspot_core.Processor.groups_merged;
    max_group_size = tel.Hotspot_core.Processor.max_group_size;
  }

(* Cross-shard merge hooks: forward-side snapshots only, matching the
   hotspot/coverage fields of [stats] (the mirror side tracks the same
   query population). *)
let band_snapshot t = BP.snapshot t.r_side.band
let select_snapshot t = SP.snapshot t.r_side.select

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

(** Deterministic, seeded generation of adversarial operation
    sequences.

    The streams deliberately exercise the paths where the paper's
    structures are most fragile: interval endpoints colliding exactly
    on a grid, zero-width point intervals, spans engulfing everything,
    clusters around a few hub points so α-hotspots form, and phased
    add/remove oscillation so group populations repeatedly cross the
    αn hotness threshold in both directions (the promote/demote
    cascade).  Hostile operations — deleting ids that were never
    inserted, re-adding an exact live (id, interval) pair — are mixed
    in to verify the structures reject or tolerate them without
    corruption.

    Generation is pure function of [seed]: the same seed always yields
    the same array, so any failure found downstream replays exactly. *)

type op =
  | Add of { id : int; iv : Cq_interval.Interval.t }
  | Remove of { id : int; iv : Cq_interval.Interval.t }
      (** Remove a pair previously issued by [Add] and still live. *)
  | Remove_absent of { id : int; iv : Cq_interval.Interval.t }
      (** The id was never inserted; structures must report absence. *)
  | Re_add of { id : int; iv : Cq_interval.Interval.t }
      (** Exact duplicate of a live pair; structures must either raise
          a typed rejection or handle the duplicate coherently. *)
  | Probe of float  (** Compare stabbing answers against the oracle. *)

val pp_op : Format.formatter -> op -> unit

val gen : seed:int -> n:int -> op array
(** [gen ~seed ~n] returns [n] operations.  [Remove] ops always target
    a live pair and the live population is capped, so the stream is
    runnable against any of the indexed structures as-is. *)

(** {2 Engine-level workloads}

    One step vocabulary serves every engine-level differential check
    ({!Oracle.diff}): each generator below materialises a whole
    workload from its seed, and every driver replays the same steps. *)

type query =
  | Band of Cq_interval.Interval.t  (** [s.b - r.b] in the window. *)
  | Select of Cq_interval.Interval.t * Cq_interval.Interval.t
      (** [r.a] in the first window, [s.c] in the second, [r.b = s.b]. *)

type step =
  | Sub of query  (** Subscribe; query index [qi] counts [Sub] steps from 0. *)
  | Unsub of int
      (** Unsubscribe the [k]-th live query, counting from the oldest.
          The generator resolves [k] against the live set it tracks, so
          every driver removes the same query. *)
  | Rows of Cq_engine.Parallel.side * (float * float) array
      (** A batch of finite rows: [(a, b)] for [R], [(b, c)] for [S]. *)
  | Del of Cq_engine.Parallel.side * int
      (** Delete the [k]-th live tuple of that side, oldest first. *)
  | Flush  (** A barrier; sequential drivers treat it as a no-op. *)
  | Rate of float  (** Keep-rate for the rows that follow. *)
  | Bad_row of Cq_engine.Parallel.side * (float * float)
      (** A row with a NaN or infinite attribute: must be refused. *)
  | Bad_sub  (** A subscription with an empty window: must be refused. *)

type workload = {
  name : string;  (** The generator, for reports. *)
  seed : int;
  steps : step array;
  overload : Cq_engine.Engine.Config.overload;
      (** The policy every engine replaying the workload runs under. *)
  batch_size : int;  (** The parallel engine's chunk size. *)
}

val pp_step : Format.formatter -> step -> unit

val mixed_rates : float array
(** [\[|1.0; 1.0; 1.0; 0.25; 0.5; 0.75|\]]: about half the batches
    exact, the rest shedding — the shape an adaptive controller
    produces. *)

val gen_uniform : ?churn:bool -> ?rates:float array -> seed:int -> n:int -> unit -> workload
(** 8–24 band/select subscriptions, then [max 4 (n / 40)] batches of
    1–50 rows uniform over [\[0, 1000)]; the batch size is drawn from
    [\[1, 64\]].  [churn] (default [false]) follows a third of the
    batches with a new subscription, so batches stage against a query
    population that has just changed.  [rates] puts the workload under
    the [Shed] policy and precedes every batch with a [Rate]: the first
    batch takes [rates.(0)], later ones a uniform pick. *)

val gen_engine : seed:int -> n:int -> workload
(** [n] steps with bounded live tuple (200) and query (60)
    populations: one-row inserts on both relations, deletions once the
    tuple cap is reached, subscriptions, unsubscriptions and the two
    must-reject inputs. *)

val gen_burst : seed:int -> n:int -> workload
(** 4–12 narrow-window subscriptions, then [n] steps alternating quiet
    phases (1–8-row batches, frequent flushes) with burst phases
    (64–256-row batches, no flush), so ingest repeatedly outruns drain
    and the [Shed] policy must engage. *)

val gen_drift : ?shards:int -> seed:int -> n:int -> unit -> workload
(** A {!Cq_engine.Zipf_model.drift} hotspot that walks over the
    parallel engine's partition axis.  The Zipf sites are laid exactly
    [shards] (default 4) strips apart, so every rank shares a home
    shard: subscriptions pile onto one shard while the others idle —
    then the lattice walks (a seeded velocity per flush) and drags the
    pile-up across strip boundaries.  The first three subscriptions
    take distinct ranks so at least two strips are populated; [Unsub 0]
    drops the oldest live query; every sixth step is a [Flush]. *)

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

(** {2 Engine-level streams} *)

type engine_op =
  | Sub_band of { range : Cq_interval.Interval.t }
  | Sub_select of { range_a : Cq_interval.Interval.t; range_c : Cq_interval.Interval.t }
  | Unsub_random  (** Driver unsubscribes one of its live handles. *)
  | Ins_r of { a : float; b : float }
  | Ins_s of { b : float; c : float }
  | Del_r_random  (** Driver deletes one of its live R tuples. *)
  | Del_s_random
  | Reject_ins_r of { a : float; b : float }
      (** Carries a NaN or infinite attribute: the engine must return
          [Error _] and leave its state untouched. *)
  | Reject_sub_band
      (** Subscribe with an empty window: must be rejected. *)

val pp_engine_op : Format.formatter -> engine_op -> unit

val gen_engine : seed:int -> n:int -> engine_op array
(** Engine op stream with bounded live tuple/query populations, mixing
    subscriptions, churn on both relations, and must-reject inputs. *)

(** {2 Overload burst streams} *)

type burst_op =
  | Burst_r of (float * float) array  (** A batch of R rows to ingest. *)
  | Burst_s of (float * float) array
  | Burst_flush  (** Drain: barrier + deliver buffered results. *)

val pp_burst_op : Format.formatter -> burst_op -> unit

val gen_burst : seed:int -> n:int -> burst_op array
(** Seeded overload workload alternating quiet phases (small batches,
    frequent flushes) with burst phases (large 64–256-row batches,
    no flush), so ingest repeatedly outruns drain and the configured
    overload policy must engage.  Pure function of [seed]. *)

(** {2 Hotspot-drift streams} *)

type drift_op =
  | Drift_register of { range : Cq_interval.Interval.t }
      (** Register a band query, live, mid-stream. *)
  | Drift_register_select of {
      range_a : Cq_interval.Interval.t;
      range_c : Cq_interval.Interval.t;
    }
  | Drift_deregister  (** Deregister the driver's oldest live query. *)
  | Drift_r of (float * float) array  (** A batch of R rows near the hotspot. *)
  | Drift_s of (float * float) array
  | Drift_flush  (** Barrier: deliver, and advance the hotspot walk. *)

val pp_drift_op : Format.formatter -> drift_op -> unit

val gen_drift : ?shards:int -> seed:int -> n:int -> unit -> drift_op array
(** A {!Cq_engine.Zipf_model.drift} hotspot that walks over the
    parallel engine's partition axis.  The Zipf sites are laid exactly
    [shards] (default 4) strips apart, so every rank shares a home
    shard: registrations pile onto one shard while the others idle —
    then the lattice walks (a seeded velocity per flush step) and drags
    the pile-up across strip boundaries.  The first three registrations
    take distinct ranks so at least two strips are populated.  Pure
    function of [seed]; all intervals and rows are materialised in the
    array, so replays are exact. *)

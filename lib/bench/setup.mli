(** Workload construction shared by the experiments: Table-1 data at
    configurable scale, with the knobs each figure sweeps. *)

type scale = {
  tuples : int;
  queries : int;
  events : int;
  shards : int list;  (** Shard counts the [scale-domains] experiment sweeps. *)
}

val quick : scale
(** Laptop-scale defaults (20k tuples, shards [\[1; 2; 4\]]; runs the
    whole harness in minutes). *)

val full : scale
(** The paper's sizes (100k tuples / 100k queries, shards
    [\[1; 2; 4; 8\]]). *)

val s_table :
  ?quantum:float -> ?sb_sigma:float -> scale -> seed:int -> Cq_relation.Table.s_table
(** S per Table 1.  [quantum] controls the average number of joining
    S-tuples per event (≈ tuples · quantum / 10000). *)

val r_events : ?quantum:float -> scale -> seed:int -> n:int -> Cq_relation.Tuple.r array

val s_rows :
  ?quantum:float -> ?sb_sigma:float -> scale -> seed:int -> (float * float) array
(** Same distribution as {!s_table}, as raw [(b, c)] rows for
    {!Cq_engine.Parallel.ingest_batch} (the parallel engine assigns
    tuple ids itself). *)

val r_rows : ?quantum:float -> scale -> seed:int -> n:int -> (float * float) array
(** {!r_events} as raw [(a, b)] rows. *)

val select_queries :
  scale ->
  seed:int ->
  n:int ->
  len_a_mu:float ->
  len_c_mu:float ->
  ?len_c_min:float ->
  unit ->
  Cq_joins.Select_query.t array
(** rangeA: midpoint Normal(5000,1500), length Normal(len_a_mu, len_a_mu/5);
    rangeC: midpoint Uni(0,10000), length Normal(len_c_mu, len_c_mu/5)
    clamped at [len_c_min] (the stabbing-number knob: τ ≈ 10000 /
    len_c_min). *)

val band_queries :
  scale -> seed:int -> n:int -> len_mu:float -> ?len_min:float -> unit ->
  Cq_joins.Band_query.t array
(** rangeB per Table 1: midpoint Uni(0,10000), length
    Normal(len_mu, len_mu/2.5) clamped at [len_min]. *)

val clustered_select_queries :
  seed:int ->
  n:int ->
  n_clusters:int ->
  clustered_frac:float ->
  Cq_joins.Select_query.t array
(** Figure 9's workloads: rangeC midpoints drawn from Zipf-weighted
    cluster centres for [clustered_frac] of the queries; rangeA per
    Table 1. *)

val domain : float * float

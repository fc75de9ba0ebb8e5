(** SSI-HIST: near-linear-time histogram construction for interval
    stabbing counts — Section 3.3.

    The construction computes the canonical stabbing partition of the
    interval set; within each group, the stabbing function is split at
    the group's stabbing point into a monotone increasing left part
    and a monotone decreasing right part, each approximated by a
    weighted one-dimensional k-means clustering of its breakpoint
    values (Lemma 5: the two problems are equivalent).  Monotonicity
    makes the values sorted, so {!Kmeans1d} applies directly.  The
    final histogram is the sum of the per-group step functions.

    Buckets are allocated to groups proportionally to group
    cardinality (the paper's heuristic), at least two per group (one
    per side). *)

type t

val build :
  ?use_exact_kmeans:bool ->
  Cq_interval.Interval.t array ->
  buckets:int ->
  t
(** [use_exact_kmeans] switches the per-side clustering from iterative
    Lloyd (the paper's choice, default) to the optimal DP — an
    accuracy ablation.  An infinite end is clipped to one past the
    span of the finite endpoints, so the estimate beyond that span
    counts none of the intervals reaching it.
    @raise Invalid_argument if [buckets <= 0]. *)

val estimate : t -> float -> float
(** h(x): the estimated number of intervals stabbed by x. *)

val to_step_fn : t -> Step_fn.t

val buckets_used : t -> int
(** Total pieces across the per-group histograms (the heuristic
    allocation may use slightly fewer than requested). *)

val num_groups : t -> int
(** τ(I): size of the canonical partition used. *)

val avg_rel_error_on : t -> Step_fn.t -> probes:float array -> float
(** Convenience: Figure 12's metric against a reference function. *)

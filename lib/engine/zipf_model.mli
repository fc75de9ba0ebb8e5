(** The Zipf hotspot-coverage model of Figure 2.

    If stabbing-group sizes follow a Zipf law with exponent beta (the
    k-th largest group holds a share proportional to k^-beta), the
    paper observes that a small number of top groups covers most
    queries — the motivation for tracking only the α-hotspots.  All
    entry points evaluate partial harmonic sums in O(n_groups). *)

val coverage : n_groups:int -> beta:float -> top_k:int -> float
(** Fraction of all queries covered by the [top_k] largest groups
    among [n_groups] Zipf-distributed groups.
    @raise Invalid_argument if [n_groups <= 0] or [top_k < 0]. *)

val series : n_groups:int -> beta:float -> ks:int list -> (int * float) list
(** [(k, coverage)] rows for Figure 2's curves. *)

val groups_needed : n_groups:int -> beta:float -> target:float -> int
(** Smallest k whose top-k coverage reaches [target] (in [0,1]). *)

(** {2 Hotspot drift}

    A deterministic "walking hotspot": [dr_groups] group sites laid
    out [dr_spread] apart on the partition axis, with the whole
    lattice translating by [dr_velocity] per time step.  Group sizes
    stay Zipf([dr_beta])-distributed — rank 0 is always the hottest —
    so as the lattice walks across shard strips, the {e load} walks
    with it while the {e distribution shape} is stationary.  This is
    the workload generator behind [Cq_robust.Fault.gen_drift]: it
    moves the parallel engine's load across shards without ever
    changing the per-step sampling law, keeping runs reproducible from
    the seed alone. *)
type drift = {
  dr_groups : int;  (** Number of group sites (> 0). *)
  dr_beta : float;  (** Zipf exponent of the group-size law. *)
  dr_center0 : float;  (** Rank-0 site's centre at step 0 (finite). *)
  dr_spread : float;  (** Distance between adjacent sites (> 0, finite). *)
  dr_velocity : float;  (** Lattice translation per step (finite). *)
}

val group_center : drift -> step:int -> rank:int -> float
(** Centre of the rank-[rank] hottest site at time [step]:
    [dr_center0 + dr_velocity * step + dr_spread * rank].  O(1).
    @raise Invalid_argument on an invalid drift, [rank] outside
    [\[0, dr_groups)], or negative [step]. *)

val sample_rank : drift -> u:float -> int
(** Inverse-CDF sample of a group rank from the Zipf law: maps a
    uniform [u] in [\[0, 1)] to the rank whose cumulative weight
    interval contains it (small [u] ⇒ hot ranks).  O(dr_groups).
    Deterministic: the caller supplies the randomness, so the same
    [u] stream yields the same rank stream on every run.
    @raise Invalid_argument on an invalid drift or [u] outside
    [\[0, 1)]. *)

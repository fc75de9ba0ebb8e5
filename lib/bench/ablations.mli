(** Ablations over the design choices DESIGN.md calls out. *)

val ab_eps : Setup.scale -> unit
(** Partition slack ε: reconstruction frequency vs update cost. *)

val ab_maintainer : Setup.scale -> unit
(** Refined (Appendix B) vs lazy (§2.3) maintainer on one trace. *)

val ab_alpha : Setup.scale -> unit
(** Hotspot threshold α: group count, coverage, move rate. *)

val ab_purist : Setup.scale -> unit
(** SSI on every group vs hotspots-only (§4's closing comparison). *)

val ab_adaptive : Setup.scale -> unit
(** §6's per-event cost-based strategy routing. *)

(** The experiment registry: one entry per table/figure of the paper's
    evaluation, plus the ablations from DESIGN.md. *)

type exp = {
  id : string;  (** e.g. "fig10i" *)
  title : string;
  run : Setup.scale -> unit;
}

val all : exp list
(** In paper order: table1, fig2, fig7i, fig7ii, fig8iii, fig8iv, fig9,
    fig10i, fig10ii, fig11, fig12, then scale-domains, overload and
    serve-sessions, then ablations. *)

val find : string -> exp option
val ids : unit -> string list

val run_all : Setup.scale -> unit
val run_paper : Setup.scale -> unit
(** Only the paper's tables/figures, no ablations. *)

(** Shared STEP-1 machinery for stabbing groups partitioned on a band
    (S.B − R.B) axis — the group walk of Section 3.1 that both the
    band-join and composite-query processors instantiate.

    An incoming R-tuple shifts every member window by its B value; the
    two S-tuples closest to the shifted stabbing point certify which
    members are affected: a member whose window reaches the left
    anchor or the right anchor has at least one joining S-tuple.  The
    members sit in one lo-ordered {!Cq_index.Sweep_store}, so STEP 1 is
    one pass over its float columns: the prefix that reaches the left
    anchor, then the rest of the members that reach the right one. *)

val window_nonempty : Cq_relation.Table.s_table -> Cq_interval.Interval.t -> bool
(** Does the S.B index hold any value inside the window? *)

module Make (X : sig
  type q

  val qid : q -> int
  val axis : q -> Cq_interval.Interval.t
end) : sig
  type g
  (** A group's members in a lo-ordered sweep store, plus the STEP-1
      anchors, take step and scratch buffer, made once per group. *)

  val create : unit -> g
  val add : g -> X.q -> unit
  val remove : g -> X.q -> unit
  val size : g -> int

  val iter : g -> (X.q -> unit) -> unit
  (** Every member once, in increasing left-endpoint order. *)

  val store : g -> X.q Cq_index.Sweep_store.t
  (** The members' store, for audits. *)

  val check_invariants : g -> unit
  (** @raise Cq_util.Error.Cq_error on violation. *)

  val step1 :
    Cq_relation.Tuple.s Cq_relation.Table.Fbt.finger ->
    Cq_relation.Tuple.r ->
    g ->
    stab:float ->
    mark:(X.q -> bool) ->
    X.q Cq_util.Vec.t
  (** [step1 f r g ~stab ~mark] is STEP 1 for the group: the affected
      members that [mark] accepts, each offered to [mark] at most once,
      in store order — first every member whose lower end reaches the
      left anchor s1 ([lo <= s1 - r.b]), then every later member whose
      upper end reaches the right anchor s2 ([hi >= s2 - r.b]); every
      member when s2 equals the shifted stabbing point.  [f] is a valid
      finger on the S.B index; [step1] seeks it to the shifted stabbing
      point [stab +. r.b] and leaves it there, on s2 (the leftmost
      entry at or above that point), with s1 just before it.  STEP 2
      walks outward from the finger:
      {!Cq_relation.Table.Fbt.finger_iter_back_ge} from s1 and
      [finger_iter_le] from s2.  Beyond the seek it builds no closure
      and boxes no float.

      The returned vector is the group's own scratch buffer, cleared
      and refilled on every call: read it before the next [step1] on
      the same group and do not retain it. *)
end

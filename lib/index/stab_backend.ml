module I = Cq_interval.Interval
module F = Flat_interval_tree

module type S = sig
  type 'a t = 'a F.t

  val create : seed:int -> 'a t
  val size : 'a t -> int
  val add : 'a t -> I.t -> 'a -> unit
  val remove : 'a t -> I.t -> ('a -> bool) -> bool
  val stab : 'a t -> float -> ('a -> unit) -> unit
  val stab_batch : 'a t -> keys:float array -> f:(idx:int -> 'a -> unit) -> unit
  val iter : 'a t -> ('a -> unit) -> unit
  val check_invariants : 'a t -> unit
end

module Interval_tree = struct
  type 'a t = 'a F.t

  let create ~seed:_ = F.create ()
  let size = F.size
  let add = F.add
  let remove = F.remove
  let stab = F.stab
  let stab_batch = F.stab_batch
  let iter = F.iter
  let check_invariants = F.check_invariants
end

(* Per-operation monotonic timings fed into the metrics registry.  The
   timed calls pay one enabled-check when metrics are off; the stab
   path is a tree walk, so the branch disappears in the noise. *)
module Instrumented_interval_tree = struct
  include Interval_tree
  module M = Cq_obs.Metrics

  let stab_ns = M.histogram "stab.interval_tree.stab_ns"
  let add_ns = M.histogram "stab.interval_tree.add_ns"
  let remove_ns = M.histogram "stab.interval_tree.remove_ns"
  let stab_hits = M.histogram "stab.interval_tree.stab_hits"

  let timed h f =
    if M.enabled () then begin
      let r, dt = Cq_util.Clock.time_ns f in
      M.observe h (Int64.to_float dt);
      r
    end
    else f ()

  let add t iv p = timed add_ns (fun () -> F.add t iv p)
  let remove t iv eq = timed remove_ns (fun () -> F.remove t iv eq)

  let stab t x f =
    if M.enabled () then begin
      let hits = ref 0 in
      let (), dt =
        Cq_util.Clock.time_ns (fun () ->
            F.stab t x (fun p ->
                Stdlib.incr hits;
                f p))
      in
      M.observe stab_ns (Int64.to_float dt);
      M.observe stab_hits (float_of_int !hits)
    end
    else F.stab t x f
end

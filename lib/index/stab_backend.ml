module I = Cq_interval.Interval

module type S = sig
  type 'a t

  val name : string
  val create : seed:int -> 'a t
  val size : 'a t -> int
  val add : 'a t -> I.t -> 'a -> unit
  val remove : 'a t -> I.t -> ('a -> bool) -> bool
  val stab : 'a t -> float -> ('a -> unit) -> unit
  val stab_batch : 'a t -> keys:float array -> f:(idx:int -> 'a -> unit) -> unit
  val iter : 'a t -> ('a -> unit) -> unit
  val check_invariants : 'a t -> unit
end

(* Backends without a native batched descent answer a batch as a loop
   of scalar stabs — semantically the reference implementation. *)
let loop_stab_batch stab t ~keys ~f =
  Array.iteri (fun i x -> stab t x (fun p -> f ~idx:i p)) keys

module Interval_tree : S = struct
  module M = Flat_interval_tree

  type 'a t = 'a M.t

  let name = "interval_tree"
  let create ~seed:_ = M.create ()
  let size = M.size
  let add = M.add
  let remove = M.remove
  let stab = M.stab
  let stab_batch = M.stab_batch
  let iter = M.iter
  let check_invariants = M.check_invariants
end

module Treap : S = struct
  module M = Priority_search_tree.Mutable

  type 'a t = 'a M.t

  let name = "priority_search_tree"
  let create ~seed = M.create ~seed ()
  let size = M.size
  let add = M.add
  let remove = M.remove
  let stab t x f = M.stab t x (fun _ p -> f p)
  let stab_batch t ~keys ~f = loop_stab_batch stab t ~keys ~f

  let iter t f = Priority_search_tree.iter (fun _ p -> f p) (M.snapshot t)
  let check_invariants t = Priority_search_tree.check_invariants (M.snapshot t)
end

(* Decorator: same backend, with per-operation monotonic timings fed
   into the metrics registry under the backend's own name.  The wrapped
   calls pay one enabled-check when metrics are off; the stab path is a
   tree walk, so the branch disappears in the noise. *)
module Instrumented (B : S) : S = struct
  module M = Cq_obs.Metrics

  type 'a t = 'a B.t

  let name = B.name
  let stab_ns = M.histogram (Printf.sprintf "stab.%s.stab_ns" B.name)
  let stab_batch_ns = M.histogram (Printf.sprintf "stab.%s.stab_batch_ns" B.name)
  let add_ns = M.histogram (Printf.sprintf "stab.%s.add_ns" B.name)
  let remove_ns = M.histogram (Printf.sprintf "stab.%s.remove_ns" B.name)
  let stab_hits = M.histogram (Printf.sprintf "stab.%s.stab_hits" B.name)

  let create ~seed = B.create ~seed
  let size = B.size

  let timed h f =
    if M.enabled () then begin
      let r, dt = Cq_util.Clock.time_ns f in
      M.observe h (Int64.to_float dt);
      r
    end
    else f ()

  let add t iv p = timed add_ns (fun () -> B.add t iv p)
  let remove t iv eq = timed remove_ns (fun () -> B.remove t iv eq)

  let stab t x f =
    if M.enabled () then begin
      let hits = ref 0 in
      let (), dt =
        Cq_util.Clock.time_ns (fun () ->
            B.stab t x (fun p ->
                Stdlib.incr hits;
                f p))
      in
      M.observe stab_ns (Int64.to_float dt);
      M.observe stab_hits (float_of_int !hits)
    end
    else B.stab t x f

  let stab_batch t ~keys ~f =
    if M.enabled () then begin
      let hits = ref 0 in
      let (), dt =
        Cq_util.Clock.time_ns (fun () ->
            B.stab_batch t ~keys ~f:(fun ~idx p ->
                Stdlib.incr hits;
                f ~idx p))
      in
      M.observe stab_batch_ns (Int64.to_float dt);
      M.observe stab_hits (float_of_int !hits)
    end
    else B.stab_batch t ~keys ~f

  let iter = B.iter
  let check_invariants = B.check_invariants
end

module Instrumented_interval_tree = Instrumented (Interval_tree)

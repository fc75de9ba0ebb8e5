(* Counters, gauges and log-bucketed histograms behind one registry.
   Everything is gated on a single global switch, off by default: a
   disabled [incr]/[observe] is one load and one branch, so
   instrumentation can stay in the hot paths permanently. *)

let on = ref false

let set_enabled b = on := b
let enabled () = !on

(* ------------------------------------------------------------------ *)
(* Metric cells                                                         *)
(* ------------------------------------------------------------------ *)

type counter = { mutable c : int }
type gauge = { mutable g : float }

(* Power-of-two buckets: bucket 0 holds values < 1, bucket i >= 1 holds
   [2^(i-1), 2^i), and the last bucket absorbs everything above.  The
   mantissa/exponent decomposition makes [bucket_of] exact — no log2
   rounding at bucket boundaries. *)
let n_buckets = 64

type histogram = {
  counts : int array; (* length n_buckets *)
  mutable n : int;
  mutable sum : float;
  mutable mn : float;
  mutable mx : float;
}

let bucket_of v =
  if not (v >= 1.0) then 0 (* negatives and NaN collapse into bucket 0 *)
  else
    let _, e = Float.frexp v in
    min (n_buckets - 1) e

let bucket_bounds i =
  if i <= 0 then (0.0, 1.0)
  else if i >= n_buckets - 1 then (Float.ldexp 1.0 (n_buckets - 2), infinity)
  else (Float.ldexp 1.0 (i - 1), Float.ldexp 1.0 i)

let incr c = if !on then c.c <- c.c + 1
let add c k = if !on then c.c <- c.c + k
let counter_value c = c.c

let set g v = if !on then g.g <- v
let gauge_value g = g.g

let observe h v =
  if !on then begin
    h.counts.(bucket_of v) <- h.counts.(bucket_of v) + 1;
    h.n <- h.n + 1;
    h.sum <- h.sum +. v;
    if v < h.mn then h.mn <- v;
    if v > h.mx then h.mx <- v
  end

(* Latency timing with one body for both switch states: the clock is
   read only while recording is enabled, and a measurement whose start
   predates the switch being turned on ([t0 = 0L]) is dropped. *)
let stamp () = if !on then Cq_util.Clock.monotonic_ns () else 0L

let observe_since h t0 =
  if !on && not (Int64.equal t0 0L) then observe h (Int64.to_float (Int64.sub (Cq_util.Clock.monotonic_ns ()) t0))

let hist_count h = h.n
let hist_sum h = h.sum
let hist_max h = if h.n = 0 then 0.0 else h.mx
let hist_min h = if h.n = 0 then 0.0 else h.mn

(* Nearest-rank over the buckets; the estimate is the containing
   bucket's upper bound, clamped into the observed [min, max] range so
   p0 is exact-min and p100 exact-max. *)
let percentile h p =
  if h.n = 0 then 0.0
  else if p <= 0.0 then h.mn
  else if p >= 100.0 then h.mx
  else begin
    let rank = max 1 (int_of_float (ceil (p /. 100.0 *. float_of_int h.n))) in
    let i = ref 0 and cum = ref 0 in
    while !cum < rank && !i < n_buckets do
      cum := !cum + h.counts.(!i);
      i := !i + 1
    done;
    let _, hi = bucket_bounds (!i - 1) in
    Float.max h.mn (Float.min hi h.mx)
  end

(* ------------------------------------------------------------------ *)
(* Registry                                                             *)
(* ------------------------------------------------------------------ *)

(* The registry's structural operations (interning, reset, snapshot)
   take [lock] so they are safe from any domain — a Hashtbl being
   resized by one domain while another walks it is memory-unsafe.
   Recording into an already-interned cell stays lock-free: a lost
   increment under concurrent recording is acceptable, a torn registry
   is not. *)
type registry = {
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
  lock : Mutex.t;
}

let create_registry () =
  {
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
    lock = Mutex.create ();
  }

let registry = create_registry ()

let with_lock f =
  Mutex.lock registry.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry.lock) f

let intern tbl name make =
  with_lock (fun () ->
      match Hashtbl.find_opt tbl name with
      | Some m -> m
      | None ->
          let m = make () in
          Hashtbl.replace tbl name m;
          m)

let counter name = intern registry.counters name (fun () -> { c = 0 })
let gauge name = intern registry.gauges name (fun () -> { g = 0.0 })

let histogram name =
  intern registry.histograms name (fun () ->
      { counts = Array.make n_buckets 0; n = 0; sum = 0.0; mn = infinity; mx = neg_infinity })

let reset () =
  with_lock (fun () ->
      Hashtbl.iter (fun _ c -> c.c <- 0) registry.counters;
      Hashtbl.iter (fun _ g -> g.g <- 0.0) registry.gauges;
      Hashtbl.iter
        (fun _ h ->
          Array.fill h.counts 0 n_buckets 0;
          h.n <- 0;
          h.sum <- 0.0;
          h.mn <- infinity;
          h.mx <- neg_infinity)
        registry.histograms)

(* ------------------------------------------------------------------ *)
(* Snapshots                                                            *)
(* ------------------------------------------------------------------ *)

type hist_summary = {
  count : int;
  sum : float;
  min_v : float;
  max_v : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

type snapshot = {
  snap_counters : (string * int) list;
  snap_gauges : (string * float) list;
  snap_histograms : (string * hist_summary) list;
}

let summarize h =
  {
    count = h.n;
    sum = h.sum;
    min_v = hist_min h;
    max_v = hist_max h;
    p50 = percentile h 50.0;
    p90 = percentile h 90.0;
    p99 = percentile h 99.0;
  }

let by_name (a, _) (b, _) = String.compare a b

let snapshot () =
  with_lock (fun () ->
      {
        snap_counters =
          Hashtbl.fold (fun k c acc -> (k, c.c) :: acc) registry.counters []
          |> List.sort by_name;
        snap_gauges =
          Hashtbl.fold (fun k g acc -> (k, g.g) :: acc) registry.gauges [] |> List.sort by_name;
        snap_histograms =
          Hashtbl.fold (fun k h acc -> (k, summarize h) :: acc) registry.histograms []
          |> List.sort by_name;
      })

let pp fmt () =
  let s = snapshot () in
  Format.fprintf fmt "@[<v>";
  List.iter (fun (k, v) -> Format.fprintf fmt "%-40s %d@," k v) s.snap_counters;
  List.iter (fun (k, v) -> Format.fprintf fmt "%-40s %g@," k v) s.snap_gauges;
  List.iter
    (fun (k, h) ->
      Format.fprintf fmt "%-40s n=%d p50=%.3g p90=%.3g p99=%.3g max=%.3g@," k h.count h.p50
        h.p90 h.p99 h.max_v)
    s.snap_histograms;
  Format.fprintf fmt "@]"

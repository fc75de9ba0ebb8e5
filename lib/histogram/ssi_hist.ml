module I = Cq_interval.Interval

type t = {
  fn : Step_fn.t;
  buckets_used : int;
  num_groups : int;
}

(* Relative-error weight of a segment [a, b) whose contribution is
   judged against the overall stabbing count there: len / max(f,1)^2.
   For a spatially isolated group this is exactly the paper's formula
   (1) (the group's own value IS the global value); where groups
   overlap, dividing by the global count keeps the k-means objective
   aligned with the error measure the histogram is evaluated under. *)
let seg_weight ~global a b =
  let d = Float.max (Step_fn.eval global a) 1.0 in
  (b -. a) /. (d *. d)

(* Approximate a monotone step function (segment boundaries [xs] of
   length m+1, values [ys] of length m) with at most [k] buckets via
   weighted k-means on the values; returns (x, value) breaks covering
   [xs.(0), xs.(m)). *)
let approx_monotone ~use_exact ~global ~xs ~ys ~k =
  let m = Array.length ys in
  if m = 0 then [||]
  else begin
    let increasing = m < 2 || ys.(0) <= ys.(m - 1) in
    (* Kmeans1d wants sorted points; feed the values in increasing
       order and map cluster runs back to x order. *)
    let ordered i = if increasing then i else m - 1 - i in
    let pts = Array.init m (fun i -> ys.(ordered i)) in
    let ws =
      Array.init m (fun i ->
          let oi = ordered i in
          seg_weight ~global xs.(oi) xs.(oi + 1))
    in
    let res =
      if use_exact then Kmeans1d.exact ~pts ~weights:ws ~k
      else Kmeans1d.lloyd ~pts ~weights:ws ~k ()
    in
    let nclusters = Array.length res.centers in
    (* Lloyd iterations may leave empty clusters; they hold no segments
       and must not emit (duplicate) breakpoints. *)
    let runs =
      List.init nclusters (fun c -> c)
      |> List.filter (fun c -> res.boundaries.(c) < res.boundaries.(c + 1))
      |> List.map (fun c ->
             let i = res.boundaries.(c) and j = res.boundaries.(c + 1) - 1 in
             let a = if increasing then i else ordered j in
             (a, res.centers.(c)))
      |> Array.of_list
    in
    Array.sort (fun (a, _) (b, _) -> Int.compare a b) runs;
    Array.map (fun (a, center) -> (xs.(a), center)) runs
  end

(* Segment representation of a piece list: boundaries xs (n+1) and
   per-segment values ys (n). *)
let segments_of_breaks pieces ~stop =
  let n = Array.length pieces in
  let xs = Array.make (n + 1) 0.0 in
  let ys = Array.make n 0.0 in
  Array.iteri
    (fun i (x, v) ->
      xs.(i) <- x;
      ys.(i) <- v)
    pieces;
  xs.(n) <- stop;
  (xs, ys)

(* Segment weights are widths, so an infinite end would make every
   k-means sum NaN: clip -∞ to one below the finite endpoints' span and
   +∞ to one above it. *)
let clip_infinite intervals =
  let lo = ref infinity and hi = ref neg_infinity in
  let widen x =
    if Float.is_finite x then begin
      lo := Float.min !lo x;
      hi := Float.max !hi x
    end
  in
  Array.iter (fun iv -> widen (I.lo iv); widen (I.hi iv)) intervals;
  if !lo > !hi then (lo := 0.0; hi := 0.0);
  let clip x = if x = neg_infinity then !lo -. 1.0 else if x = infinity then !hi +. 1.0 else x in
  Array.map (fun iv -> I.make (clip (I.lo iv)) (clip (I.hi iv))) intervals

let build ?(use_exact_kmeans = false) intervals ~buckets =
  if buckets <= 0 then invalid_arg "Ssi_hist.build: buckets must be positive";
  let intervals = clip_infinite intervals in
  let partition = Hotspot_core.Stabbing.canonical Fun.id intervals in
  let global = Step_fn.of_intervals intervals in
  let n_total = Array.length intervals in
  let groups = Array.length partition in
  let fns = ref [] in
  let used = ref 0 in
  Array.iter
    (fun (g : I.t Hotspot_core.Stabbing.group) ->
      let f = Step_fn.of_intervals g.members in
      let pieces = Step_fn.breaks f in
      (* Cardinality-proportional allocation, at least 1 per group (a
         one-bucket group is approximated by its weighted mean). *)
      let share =
        if n_total = 0 then 1
        else
          max 1
            (int_of_float
               (Float.round
                  (float_of_int buckets *. float_of_int (Array.length g.members)
                  /. float_of_int n_total)))
      in
      (* Split at the stabbing point: pieces at x <= stab only gain
         intervals (every member's left endpoint is <= stab), so they
         form the monotone increasing half; later pieces only lose
         intervals and form the decreasing half. *)
      let left_pieces, right_pieces =
        let all = Array.to_list pieces in
        ( Array.of_list (List.filter (fun (x, _) -> x <= g.stab) all),
          Array.of_list (List.filter (fun (x, _) -> x > g.stab) all) )
      in
      let stop_left =
        if Array.length right_pieces > 0 then fst right_pieces.(0)
        else if Array.length left_pieces > 0 then
          Float.succ (fst left_pieces.(Array.length left_pieces - 1))
        else g.stab
      in
      let stop_right =
        if Array.length right_pieces > 0 then
          Float.succ (fst right_pieces.(Array.length right_pieces - 1))
        else g.stab
      in
      let approx_half pieces k ~stop =
        if Array.length pieces = 0 then [||]
        else begin
          let xs, ys = segments_of_breaks pieces ~stop in
          approx_monotone ~use_exact:use_exact_kmeans ~global ~xs ~ys ~k
        end
      in
      let lb, rb =
        if share = 1 then begin
          (* A single bucket: the weighted mean over every segment of
             both halves. *)
          let sw = ref 0.0 and swy = ref 0.0 in
          let accumulate pieces ~stop =
            let xs, ys = segments_of_breaks pieces ~stop in
            Array.iteri
              (fun i y ->
                let w = seg_weight ~global xs.(i) xs.(i + 1) in
                sw := !sw +. w;
                swy := !swy +. (w *. y))
              ys
          in
          if Array.length left_pieces > 0 then accumulate left_pieces ~stop:stop_left;
          if Array.length right_pieces > 0 then accumulate right_pieces ~stop:stop_right;
          let mean = if !sw > 0.0 then !swy /. !sw else 0.0 in
          let start =
            if Array.length left_pieces > 0 then fst left_pieces.(0)
            else fst right_pieces.(0)
          in
          ([| (start, mean) |], [||])
        end
        else begin
          let kl = max 1 (share / 2) in
          let kr = max 1 (share - kl) in
          ( approx_half left_pieces kl ~stop:stop_left,
            approx_half right_pieces kr ~stop:stop_right )
        end
      in
      (* Close the approximation back to zero just past the group's
         last true piece. *)
      let combined = Array.append lb rb in
      used := !used + Array.length combined;
      if Array.length combined > 0 then begin
        let last_x = fst combined.(Array.length combined - 1) in
        let terminator = Float.max (Float.succ last_x) stop_right in
        let closed = Array.append combined [| (terminator, 0.0) |] in
        fns := Step_fn.of_breaks closed :: !fns
      end)
    partition;
  { fn = Step_fn.sum_all !fns; buckets_used = !used; num_groups = groups }

let estimate t x = Step_fn.eval t.fn x
let to_step_fn t = t.fn
let buckets_used t = t.buckets_used
let num_groups t = t.num_groups

let avg_rel_error_on t f ~probes =
  let n = Array.length probes in
  if n = 0 then 0.0
  else begin
    let total = ref 0.0 in
    Array.iter
      (fun x ->
        let fv = Step_fn.eval f x in
        let hv = estimate t x in
        total := !total +. (Float.abs (hv -. fv) /. Float.max fv 1.0))
      probes;
    !total /. float_of_int n
  end

type t = { lo : float; hi : float }

(* The empty interval is encoded as an inverted pair; all observers
   special-case it so the encoding never leaks. *)
let empty = { lo = infinity; hi = neg_infinity }

let is_empty iv = iv.lo > iv.hi

let make lo hi =
  if Float.is_nan lo || Float.is_nan hi then invalid_arg "Interval.make: NaN bound";
  if lo > hi then invalid_arg "Interval.make: lo > hi";
  { lo; hi }

let of_midpoint ~mid ~len =
  let half = Float.max len 0.0 /. 2.0 in
  { lo = mid -. half; hi = mid +. half }

let point x = make x x

let lo iv = iv.lo
let hi iv = iv.hi
let length iv = if is_empty iv then 0.0 else iv.hi -. iv.lo
let midpoint iv = (iv.lo +. iv.hi) /. 2.0

let stabs iv x = iv.lo <= x && x <= iv.hi

let overlaps a b = (not (is_empty a)) && (not (is_empty b)) && a.lo <= b.hi && b.lo <= a.hi

let inter a b =
  if overlaps a b then { lo = Float.max a.lo b.lo; hi = Float.min a.hi b.hi } else empty

let hull a b =
  if is_empty a then b
  else if is_empty b then a
  else { lo = Float.min a.lo b.lo; hi = Float.max a.hi b.hi }

let shift iv d = if is_empty iv then iv else { lo = iv.lo +. d; hi = iv.hi +. d }

let contains outer inner =
  is_empty inner || ((not (is_empty outer)) && outer.lo <= inner.lo && inner.hi <= outer.hi)

let compare_lo a b =
  let c = Float.compare a.lo b.lo in
  if c <> 0 then c else Float.compare a.hi b.hi

let equal a b = (is_empty a && is_empty b) || (a.lo = b.lo && a.hi = b.hi)

let pp fmt iv =
  if is_empty iv then Format.fprintf fmt "[empty]"
  else Format.fprintf fmt "[%g, %g]" iv.lo iv.hi

let to_string iv = Format.asprintf "%a" pp iv

let random rng ~lo:l ~hi:h =
  let a = Cq_util.Dist.uniform rng ~lo:l ~hi:h in
  let b = Cq_util.Dist.uniform rng ~lo:l ~hi:h in
  if a <= b then make a b else make b a

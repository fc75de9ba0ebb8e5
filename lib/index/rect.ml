module I = Cq_interval.Interval

type t = { x : I.t; y : I.t }

let make ~x ~y = { x; y }

let empty = { x = I.empty; y = I.empty }

let is_empty r = I.is_empty r.x || I.is_empty r.y

let contains_point r ~x ~y = I.stabs r.x x && I.stabs r.y y

let contains outer inner =
  is_empty inner || (I.contains outer.x inner.x && I.contains outer.y inner.y)

let intersects a b = I.overlaps a.x b.x && I.overlaps a.y b.y

let union a b =
  if is_empty a then b
  else if is_empty b then a
  else { x = I.hull a.x b.x; y = I.hull a.y b.y }

let area r = if is_empty r then 0.0 else I.length r.x *. I.length r.y

let enlargement mbr r = area (union mbr r) -. area mbr

let equal a b = (is_empty a && is_empty b) || (I.equal a.x b.x && I.equal a.y b.y)

let pp fmt r =
  if is_empty r then Format.fprintf fmt "[empty rect]"
  else Format.fprintf fmt "%a x %a" I.pp r.x I.pp r.y

module I = Cq_interval.Interval

type t = { x : I.t; y : I.t }

let make ~x ~y = { x; y }

let empty = { x = I.empty; y = I.empty }

let is_empty r = I.is_empty r.x || I.is_empty r.y

let contains_point r ~x ~y = I.stabs r.x x && I.stabs r.y y

let intersects a b = I.overlaps a.x b.x && I.overlaps a.y b.y

type 'a t = {
  mutable data : 'a array;
  mutable len : int;
}

let create () = { data = [||]; len = 0 }

(* Capacity is a hint only; the backing store is allocated lazily on the
   first push, so no dummy element is ever needed. *)
let make _capacity = create ()

let length t = t.len
let is_empty t = t.len = 0

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get: index out of bounds";
  t.data.(i)

let set t i x =
  if i < 0 || i >= t.len then invalid_arg "Vec.set: index out of bounds";
  t.data.(i) <- x

let grow t x =
  let cap = Array.length t.data in
  let ncap = if cap = 0 then 8 else cap * 2 in
  let ndata = Array.make ncap x in
  Array.blit t.data 0 ndata 0 t.len;
  t.data <- ndata

let push t x =
  if t.len = Array.length t.data then grow t x;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Vec.pop: empty";
  t.len <- t.len - 1;
  t.data.(t.len)

let swap_remove t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.swap_remove: index out of bounds";
  let x = t.data.(i) in
  t.len <- t.len - 1;
  t.data.(i) <- t.data.(t.len);
  x

let clear t = t.len <- 0

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i t.data.(i)
  done

let fold f acc t =
  let acc = ref acc in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let exists p t =
  let rec loop i = i < t.len && (p t.data.(i) || loop (i + 1)) in
  loop 0

let to_array t = Array.sub t.data 0 t.len
let to_list t = Array.to_list (to_array t)

let of_list l =
  let t = create () in
  List.iter (push t) l;
  t

let sort cmp t =
  let a = to_array t in
  Array.sort cmp a;
  Array.blit a 0 t.data 0 t.len

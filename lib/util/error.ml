type t =
  | Invalid_parameter of { name : string; value : string; expected : string }
  | Not_finite of { name : string; value : float }
  | Empty_range of { name : string }
  | Duplicate of { what : string }
  | Absent of { what : string }
  | Corrupt of { structure : string; detail : string }
  | Overload of { shard : int; queue_depth : int; retry_after_ms : float }

exception Cq_error of t

let to_string = function
  | Invalid_parameter { name; value; expected } ->
      Printf.sprintf "invalid %s = %s (expected %s)" name value expected
  | Not_finite { name; value } -> Printf.sprintf "%s = %h is not finite" name value
  | Empty_range { name } -> Printf.sprintf "%s is an empty range" name
  | Duplicate { what } -> Printf.sprintf "%s is already present" what
  | Absent { what } -> Printf.sprintf "%s is not present" what
  | Corrupt { structure; detail } -> Printf.sprintf "%s is corrupt: %s" structure detail
  | Overload { shard; queue_depth; retry_after_ms } ->
      Printf.sprintf "shard %d overloaded (queue depth %d); retry after %.1f ms" shard queue_depth
        retry_after_ms

let pp fmt e = Format.pp_print_string fmt (to_string e)

let () =
  Printexc.register_printer (function
    | Cq_error e -> Some (Printf.sprintf "Cq_error (%s)" (to_string e))
    | _ -> None)

let raise_ e = raise (Cq_error e)
let ok_exn = function Ok v -> v | Error e -> raise_ e
let corrupt ~structure fmt = Printf.ksprintf (fun detail -> raise_ (Corrupt { structure; detail })) fmt

let in_unit_open_closed ~name v =
  if Float.is_finite v && v > 0.0 && v <= 1.0 then Ok v
  else
    Error (Invalid_parameter { name; value = Printf.sprintf "%g" v; expected = "0 < value <= 1" })

let positive ~name v =
  if Float.is_finite v && v > 0.0 then Ok v
  else
    Error
      (Invalid_parameter { name; value = Printf.sprintf "%g" v; expected = "a finite value > 0" })

let at_least ~name ~min v =
  if v >= min then Ok v
  else
    Error
      (Invalid_parameter
         { name; value = string_of_int v; expected = Printf.sprintf "an integer >= %d" min })

let both a b = match (a, b) with Ok a, Ok b -> Ok (a, b) | Error e, _ | _, Error e -> Error e

let weights ~n_groups ~beta = Dist.zipf_weights ~n:n_groups ~beta

let coverage ~n_groups ~beta ~top_k =
  if n_groups <= 0 then invalid_arg "Zipf_model.coverage: n_groups must be positive";
  if top_k < 0 then invalid_arg "Zipf_model.coverage: top_k must be non-negative";
  let w = weights ~n_groups ~beta in
  let k = min top_k n_groups in
  let acc = ref 0.0 in
  for i = 0 to k - 1 do
    acc := !acc +. w.(i)
  done;
  !acc

type drift = {
  dr_groups : int;
  dr_beta : float;
  dr_center0 : float;
  dr_spread : float;
  dr_velocity : float;
}

let validate_drift d =
  if d.dr_groups <= 0 then invalid_arg "Zipf_model.drift: dr_groups must be positive";
  if not (Float.is_finite d.dr_spread && d.dr_spread > 0.0) then
    invalid_arg "Zipf_model.drift: dr_spread must be positive and finite";
  if not (Float.is_finite d.dr_velocity) then
    invalid_arg "Zipf_model.drift: dr_velocity must be finite";
  if not (Float.is_finite d.dr_center0) then
    invalid_arg "Zipf_model.drift: dr_center0 must be finite"

let group_center d ~step ~rank =
  validate_drift d;
  if rank < 0 || rank >= d.dr_groups then
    invalid_arg "Zipf_model.group_center: rank out of range";
  if step < 0 then invalid_arg "Zipf_model.group_center: step must be non-negative";
  d.dr_center0
  +. (d.dr_velocity *. float_of_int step)
  +. (d.dr_spread *. float_of_int rank)

let sample_rank d ~u =
  validate_drift d;
  if not (Float.is_finite u) || u < 0.0 || u >= 1.0 then
    invalid_arg "Zipf_model.sample_rank: u must be in [0, 1)";
  let w = weights ~n_groups:d.dr_groups ~beta:d.dr_beta in
  let acc = ref 0.0 and r = ref 0 in
  while !r < d.dr_groups - 1 && !acc +. w.(!r) <= u do
    acc := !acc +. w.(!r);
    incr r
  done;
  !r

let groups_needed ~n_groups ~beta ~target =
  let w = weights ~n_groups ~beta in
  let acc = ref 0.0 and k = ref 0 in
  while !acc < target && !k < n_groups do
    acc := !acc +. w.(!k);
    incr k
  done;
  !k

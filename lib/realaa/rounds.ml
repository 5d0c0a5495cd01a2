(* A NaN ratio would keep [bdh_iterations] searching forever: no [r^r]
   is [>=] NaN. *)
let check_args ~range ~eps =
  if not (Float.is_finite eps) then invalid_arg "Rounds: eps must be finite";
  if eps <= 0. then invalid_arg "Rounds: eps must be positive";
  if not (Float.is_finite range) then invalid_arg "Rounds: range must be finite";
  if range < 0. then invalid_arg "Rounds: negative range"

let bdh_iterations ~range ~eps =
  check_args ~range ~eps;
  let delta = range /. eps in
  if delta <= 1. then 0
  else begin
    let rec go r =
      if Float.pow (float_of_int r) (float_of_int r) >= delta then r else go (r + 1)
    in
    go 1
  end

let bdh_rounds ~range ~eps = 3 * bdh_iterations ~range ~eps

let paper_round_bound ~range ~eps =
  check_args ~range ~eps;
  let delta = range /. eps in
  if delta <= 1. then 0
  else begin
    let l = Float.log2 delta in
    let ll = Float.max 1. (Float.log2 l) in
    int_of_float (Float.ceil (7. *. l /. ll))
  end

let halving_iterations ~range ~eps =
  check_args ~range ~eps;
  let delta = range /. eps in
  if delta <= 1. then 0 else int_of_float (Float.ceil (Float.log2 delta))

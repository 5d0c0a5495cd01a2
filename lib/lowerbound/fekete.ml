let optimal_partition ~t ~r =
  if t < 0 || r < 1 then invalid_arg "Fekete.optimal_partition";
  if t = 0 then []
  else if t <= r then List.init t (fun _ -> 1)
  else begin
    (* r parts, as equal as possible: the product of positive integers with
       fixed sum is maximised by a balanced split. *)
    let q = t / r and rem = t mod r in
    List.init r (fun i -> if i < rem then q + 1 else q)
  end

let log2_product parts =
  List.fold_left (fun acc p -> acc +. Float.log2 (float_of_int p)) 0. parts

let log2_k ~n ~t ~r ~d =
  if n < 1 || t < 0 || r < 1 then invalid_arg "Fekete.log2_k";
  if t = 0 || d <= 0. then neg_infinity
  else
    Float.log2 d
    +. log2_product (optimal_partition ~t ~r)
    -. (float_of_int r *. Float.log2 (float_of_int (n + t)))

let k_bound ~n ~t ~r ~d = Float.pow 2. (log2_k ~n ~t ~r ~d)

let chain_length ~n ~t ~r =
  if t = 0 then 0.
  else
    (float_of_int r *. Float.log2 (float_of_int (n + t)))
    -. log2_product (optimal_partition ~t ~r)

let min_rounds ~n ~t ~d ~eps =
  if eps <= 0. then invalid_arg "Fekete.min_rounds: eps <= 0";
  if t = 0 || d <= eps then 0
  else begin
    let log2_eps = Float.log2 eps in
    let rec go r =
      if r > 10_000 then r (* unreachable: K decreases geometrically *)
      else if log2_k ~n ~t ~r ~d <= log2_eps then r
      else go (r + 1)
    in
    go 1
  end

let theorem2_closed_form ~n ~t ~d =
  if t = 0 || d < 4. then 0.
  else
    let delta = float_of_int (n + t) /. float_of_int t in
    let denom = Float.log2 (Float.log2 d) +. Float.log2 delta in
    if denom <= 0. then 0. else Float.log2 d /. denom

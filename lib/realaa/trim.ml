let trimmed ~t values =
  if t < 0 then invalid_arg "Trim.trimmed: negative t";
  let sorted = List.sort compare values in
  let len = List.length sorted in
  if len <= 2 * t then []
  else sorted |> List.filteri (fun i _ -> i >= t && i < len - t)

let range = function
  | [] -> None
  | x :: xs ->
      Some (List.fold_left min x xs, List.fold_left max x xs)

let midpoint values =
  Option.map (fun (lo, hi) -> (lo +. hi) /. 2.) (range values)

let trimmed_midpoint ~t values = midpoint (trimmed ~t values)

let mean = function
  | [] -> None
  | values ->
      let total = List.fold_left ( +. ) 0. values in
      Some (total /. float_of_int (List.length values))

let trimmed_mean ~t values = mean (trimmed ~t values)

(* Stable ascending sort under [Float.compare], without boxing: insertion
   sort on runs of up to 16, merged through one scratch array, ties
   taking the left run's value. Equal values (+0. and -0., NaNs) keep
   their input order, as under [List.sort compare]. *)
let sort_floats (a : float array) =
  let insertion lo hi =
    for i = lo + 1 to hi - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && Float.compare a.(!j) x > 0 do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  in
  let n = Array.length a in
  if n <= 16 then insertion 0 n
  else begin
    let tmp = Array.create_float n in
    let rec sort lo hi =
      if hi - lo <= 16 then insertion lo hi
      else begin
        let mid = (lo + hi) / 2 in
        sort lo mid;
        sort mid hi;
        Array.blit a lo tmp lo (mid - lo);
        let i = ref lo and j = ref mid and k = ref lo in
        while !i < mid && !j < hi do
          if Float.compare a.(!j) tmp.(!i) < 0 then begin
            a.(!k) <- a.(!j);
            incr j
          end
          else begin
            a.(!k) <- tmp.(!i);
            incr i
          end;
          incr k
        done;
        Array.blit tmp !i a !k (mid - !i)
      end
    in
    sort 0 n
  end

let trimmed_mean_array ~t values =
  if t < 0 then invalid_arg "Trim.trimmed: negative t";
  let len = Array.length values in
  if len <= 2 * t then None
  else begin
    sort_floats values;
    let total = ref 0. in
    for i = t to len - t - 1 do
      total := !total +. values.(i)
    done;
    Some (!total /. float_of_int (len - (2 * t)))
  end

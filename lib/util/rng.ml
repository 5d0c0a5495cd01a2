type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

(* SplitMix64 output function: advance the state by the golden gamma, then
   scramble with two xor-shift-multiply rounds. *)
let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t =
  let seed = int64 t in
  { state = seed }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let mask = Int64.shift_right_logical (int64 t) 1 in
  Int64.to_int (Int64.rem mask (Int64.of_int bound))

let float t bound =
  if bound <= 0. then invalid_arg "Rng.float: bound must be positive";
  let bits = Int64.shift_right_logical (int64 t) 11 in
  (* 53 uniform bits mapped to [0, 1). *)
  Int64.to_float bits *. (1.0 /. 9007199254740992.0) *. bound

let bool t = Int64.logand (int64 t) 1L = 1L

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample_without_replacement t k n =
  if k < 0 || k > n then invalid_arg "Rng.sample_without_replacement";
  (* Floyd's algorithm: k iterations, O(k) expected set operations. *)
  let module IS = Set.Make (Int) in
  let chosen = ref IS.empty in
  for j = n - k to n - 1 do
    let r = int t (j + 1) in
    if IS.mem r !chosen then chosen := IS.add j !chosen
    else chosen := IS.add r !chosen
  done;
  IS.elements !chosen

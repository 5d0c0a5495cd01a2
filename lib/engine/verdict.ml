type t = { termination : bool; validity : bool; agreement : bool }

let all_ok v = v.termination && v.validity && v.agreement

let pp fmt v =
  let b fmt ok = Format.pp_print_string fmt (if ok then "ok" else "VIOLATED") in
  Format.fprintf fmt "termination=%a validity=%a agreement=%a" b v.termination
    b v.validity b v.agreement

let conj a b =
  {
    termination = a.termination && b.termination;
    validity = a.validity && b.validity;
    agreement = a.agreement && b.agreement;
  }

type graded =
  | Passed
  | Violated of t
  | Excused of { reason : string; verdict : t }

let grade ~n ~t ~faulty ?excuse v =
  if all_ok v then Passed
  else if faulty > t then
    Excused
      {
        reason =
          Printf.sprintf
            "%d faulty parties exceed the budget t=%d (fewer than n-t=%d \
             live honest parties)"
            faulty t (n - t);
        verdict = v;
      }
  else
    match excuse with
    | Some reason -> Excused { reason; verdict = v }
    | None -> Violated v

let graded_label = function
  | Passed -> "passed"
  | Violated _ -> "violated"
  | Excused _ -> "excused"

let spread = function
  | [] -> 0.
  | x :: xs ->
      let lo = List.fold_left min x xs and hi = List.fold_left max x xs in
      hi -. lo

let real ~eps ~n_honest ~honest_inputs ~honest_outputs =
  let termination = List.length honest_outputs = n_honest in
  let lo = List.fold_left min infinity honest_inputs
  and hi = List.fold_left max neg_infinity honest_inputs in
  let validity =
    List.for_all (fun v -> v >= lo && v <= hi) honest_outputs
  in
  let agreement = spread honest_outputs <= eps +. 1e-9 in
  { termination; validity; agreement }

let real_of_report ~eps ~inputs ~value (report : _ Aat_runtime.Report.t) =
  let honest_inputs =
    Aat_runtime.Report.honest_inputs ~inputs:(Array.init report.n inputs)
      report
  in
  real ~eps
    ~n_honest:(Aat_runtime.Report.finally_honest report)
    ~honest_inputs
    ~honest_outputs:(List.map (fun (_, o) -> value o) report.outputs)

open Aat_tree
open Aat_engine

(* Distances do not depend on the root: any view of the tree will do. *)
let diameter_in rooted vertices =
  let best = ref 0 in
  let rec pairs = function
    | [] -> ()
    | u :: rest ->
        List.iter
          (fun w ->
            let d = Paths.distance rooted u w in
            if d > !best then best := d)
          rest;
        pairs rest
  in
  pairs (List.sort_uniq compare vertices);
  !best

let output_diameter ~tree vertices =
  match vertices with
  | [] | [ _ ] -> 0
  | v0 :: _ -> diameter_in (Rooted.make ~root:v0 tree) vertices

(* One view, rooted at the first honest input, serves the hull and the
   output diameter. *)
let check ~tree ~n_honest ~honest_inputs ~honest_outputs =
  let termination = List.length honest_outputs = n_honest in
  let validity, diameter =
    match honest_inputs with
    | [] -> (honest_outputs = [], output_diameter ~tree honest_outputs)
    | s0 :: _ ->
        let rooted = Rooted.make ~root:s0 tree in
        let hull = Convex_hull.compute rooted honest_inputs in
        ( List.for_all (Convex_hull.mem hull) honest_outputs,
          diameter_in rooted honest_outputs )
  in
  { Verdict.termination; validity; agreement = diameter <= 1 }

let check_report ~tree ~inputs ~value (report : _ Aat_runtime.Report.t) =
  check ~tree
    ~n_honest:(Aat_runtime.Report.finally_honest report)
    ~honest_inputs:(Aat_runtime.Report.honest_inputs ~inputs report)
    ~honest_outputs:(List.map (fun (_, o) -> value o) report.outputs)

let grade_report ?excuse ~tree ~inputs ~value (report : _ Aat_runtime.Report.t)
    =
  let verdict = check_report ~tree ~inputs ~value report in
  ( verdict,
    Verdict.grade ~n:report.n ~t:report.t
      ~faulty:(List.length report.corrupted)
      ?excuse verdict )

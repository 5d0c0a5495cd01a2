(* Clock synchronization — the first motivating application in the paper's
   introduction ([28]): real-valued approximate agreement, used directly.

   Nine servers hold drifting clock readings; up to two report maliciously.
   Running RealAA(epsilon) gives every honest server a corrected clock
   within epsilon of the others, inside the honest readings' range (so the
   corrected time is never dragged outside what honest hardware observed).
   The run also shows the early-stopping variant finishing in 9 rounds
   while the fixed schedule would budget for the worst case.

     dune exec examples/clock_sync.exe *)

open Treeagree

let () =
  let n = 9 and t = 2 in
  (* Honest readings drift within ~80ms of each other around t0 = 1000s;
     the compromised servers (7, 8) will lie arbitrarily. *)
  let readings =
    [| 1000.013; 1000.071; 1000.052; 999.994; 1000.038; 1000.066; 1000.027;
       9999.0; 0.0 |]
  in
  let eps = 0.005 in
  Printf.printf "clock readings (seconds):\n";
  Array.iteri
    (fun i r ->
      Printf.printf "  server %d: %10.3f%s\n" i r
        (if i >= 7 then "  (compromised)" else ""))
    readings;

  let honest = Array.to_list (Array.sub readings 0 7) in
  let spread = Verdict.spread honest in
  let iterations = Rounds.bdh_iterations ~range:1. ~eps in
  Printf.printf "\nhonest spread: %.3fs, target agreement: %.3fs\n" spread eps;

  (* Fixed-schedule RealAA with the spoiler attacking. *)
  let report =
    Engine.run ~n ~t
      ~max_rounds:(3 * iterations)
      ~protocol:
        (Real_aa.protocol ~inputs:(fun i -> readings.(i)) ~t ~iterations ())
      ~adversary:(Spoiler.realaa_spoiler ~t ~iterations)
      ()
  in
  let outputs =
    List.map (fun (r : Real_aa.result) -> r.value) (Report.honest_outputs report)
  in
  Printf.printf "\nfixed schedule: %d rounds; corrected clocks:\n"
    report.rounds_used;
  List.iter2
    (fun (p, _) v -> Printf.printf "  server %d: %10.6f\n" p v)
    report.outputs outputs;
  let verdict =
    Verdict.real ~eps ~n_honest:7 ~honest_inputs:honest ~honest_outputs:outputs
  in
  Format.printf "verdict: %a\n" Verdict.pp verdict;
  assert (Verdict.all_ok verdict);

  (* Early stopping: same guarantees, adaptive round count. *)
  let report2 =
    Engine.run ~n ~t
      ~max_rounds:(3 * iterations)
      ~protocol:
        (Early_real_aa.protocol ~inputs:(fun i -> readings.(i)) ~t ~eps
           ~max_iterations:iterations)
      ~adversary:(Spoiler.early_stopping_spoiler ~t ~iterations)
      ()
  in
  Printf.printf
    "\nearly-stopping variant: decided after %d rounds (budget %d).\n"
    report2.rounds_used (3 * iterations);
  let outputs2 =
    List.map
      (fun (r : Early_real_aa.result) -> r.value)
      (Report.honest_outputs report2)
  in
  let verdict2 =
    Verdict.real ~eps ~n_honest:7 ~honest_inputs:honest ~honest_outputs:outputs2
  in
  assert (Verdict.all_ok verdict2);
  Printf.printf "all clocks within %.3fs of each other; done.\n" eps

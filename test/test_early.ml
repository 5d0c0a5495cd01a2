(* Tests for the early-stopping RealAA variant (Section 4's observation
   rule): same AA guarantees, adaptive round count, consecutive decisions. *)

open Aat_engine
open Aat_realaa
module Report = Aat_runtime.Report
module Strategies = Aat_adversary.Strategies
module Spoiler = Aat_adversary.Spoiler
module Rng = Aat_util.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let run ?(seed = 0) ~n ~t ~eps ~adversary values =
  let d = Verdict.spread (Array.to_list values) in
  let max_iterations = max 1 (Rounds.bdh_iterations ~range:(max 1. d) ~eps) in
  Sync_engine.run ~n ~t ~seed
    ~max_rounds:(3 * max_iterations)
    ~protocol:
      (Early_bdh.protocol ~inputs:(fun i -> values.(i)) ~t ~eps ~max_iterations)
    ~adversary ()

let verdict_of ~eps values (report : (Early_bdh.result, _) Sync_engine.report) =
  let initially = Report.initially_corrupted report in
  let honest_inputs =
    Array.to_list (Array.mapi (fun i v -> (i, v)) values)
    |> List.filter_map (fun (i, v) ->
           if List.mem i initially then None else Some v)
  in
  Verdict.real ~eps
    ~n_honest:(Array.length values - List.length report.corrupted)
    ~honest_inputs
    ~honest_outputs:
      (List.map
         (fun (r : Early_bdh.result) -> r.value)
         (Report.honest_outputs report))

let test_fault_free_fast () =
  let values = Array.init 7 (fun i -> float_of_int (1000 * i)) in
  let report = run ~n:7 ~t:2 ~eps:1. ~adversary:(Adversary.passive "none") values in
  check "verdict" true (Verdict.all_ok (verdict_of ~eps:1. values report));
  (* decides after 3 iterations = 9 rounds, far below the fixed schedule *)
  check "early" true (report.rounds_used <= 9);
  check "beats fixed schedule" true
    (report.rounds_used < Rounds.bdh_rounds ~range:6000. ~eps:1.)

let test_rounds_independent_of_d () =
  let r1 =
    (run ~n:7 ~t:2 ~eps:1. ~adversary:(Adversary.passive "none")
       (Array.init 7 (fun i -> float_of_int (10 * i))))
      .rounds_used
  in
  let r2 =
    (run ~n:7 ~t:2 ~eps:1. ~adversary:(Adversary.passive "none")
       (Array.init 7 (fun i -> float_of_int (1_000_000 * i))))
      .rounds_used
  in
  check_int "same adaptive rounds" r1 r2

let test_silent_byz () =
  let values = Array.init 7 (fun i -> float_of_int (100 * i)) in
  let report =
    run ~n:7 ~t:2 ~eps:1. ~adversary:(Strategies.silent ~victims:[ 5; 6 ]) values
  in
  check "verdict" true (Verdict.all_ok (verdict_of ~eps:1. values report))

let test_consecutive_decisions () =
  let values = Array.init 10 (fun i -> float_of_int (77 * i)) in
  let report =
    run ~n:10 ~t:3 ~eps:1. ~adversary:(Strategies.silent ~victims:[ 8; 9 ]) values
  in
  let rounds = List.map snd report.termination_rounds in
  let lo = List.fold_left min max_int rounds in
  let hi = List.fold_left max 0 rounds in
  (* "consecutive iterations": all honest decide within one iteration *)
  check "within one iteration of each other" true (hi - lo <= 3);
  check "verdict" true (Verdict.all_ok (verdict_of ~eps:1. values report))

let test_spoiler_still_correct () =
  let values = Array.init 10 (fun i -> float_of_int (100 * i)) in
  let iterations = Rounds.bdh_iterations ~range:900. ~eps:1. in
  let report =
    run ~n:10 ~t:3 ~eps:1.
      ~adversary:(Spoiler.early_stopping_spoiler ~t:3 ~iterations)
      values
  in
  check "verdict" true (Verdict.all_ok (verdict_of ~eps:1. values report));
  check "never exceeds the fixed schedule" true
    (report.rounds_used <= 3 * iterations)

let test_crash_mid_protocol () =
  let values = Array.init 7 (fun i -> float_of_int (500 * i)) in
  let report =
    run ~n:7 ~t:2 ~eps:1.
      ~adversary:(Strategies.crash ~at_round:4 ~victims:[ 1; 3 ])
      values
  in
  check "verdict" true (Verdict.all_ok (verdict_of ~eps:1. values report))

let test_tiny_spread_immediate () =
  (* inputs already eps-close: first observation at iteration 1, decide at
     iteration 2 *)
  let values = [| 5.0; 5.2; 5.4; 5.1; 5.3; 5.2; 5.0 |] in
  let report = run ~n:7 ~t:2 ~eps:1. ~adversary:(Adversary.passive "none") values in
  check "two iterations" true (report.rounds_used <= 6);
  check "verdict" true (Verdict.all_ok (verdict_of ~eps:1. values report))

(* Pinned runs at n=10, t=3: the digest covers every honest output (float
   bits), its [iterations_used], the termination rounds and the letter
   counts, so a change that must not move behaviour keeps it. *)
let pin_digest (report : (Early_bdh.result, _) Sync_engine.report) =
  let b = Buffer.create 256 in
  List.iter
    (fun (p, (r : Early_bdh.result)) ->
      Printf.bprintf b "%d:%Lx:%d;" p (Int64.bits_of_float r.value)
        r.iterations_used)
    report.outputs;
  List.iter (fun (p, r) -> Printf.bprintf b "%d@%d;" p r) report.termination_rounds;
  Printf.bprintf b "rounds=%d honest=%d adversary=%d" report.rounds_used
    report.honest_messages report.adversary_messages;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_pinned_runs () =
  let values = Array.init 10 (fun i -> float_of_int (97 * i * i mod 1000)) in
  let iterations = Rounds.bdh_iterations ~range:1000. ~eps:1. in
  List.iter
    (fun (name, adversary, want) ->
      let report = run ~seed:3 ~n:10 ~t:3 ~eps:1. ~adversary values in
      Alcotest.(check string) name want (pin_digest report))
    [
      ( "passive",
        Adversary.passive "none",
        "8fb292c113c38b8e6dfc4e46fb9b2ef0" );
      ( "spoiler",
        Spoiler.early_stopping_spoiler ~t:3 ~iterations,
        "f16b29287da42d270b7d2aafa7b7aee3" );
    ]

let prop_early_stopping_under_adversaries =
  QCheck2.Test.make ~name:"early stopping AA under assorted adversaries"
    ~count:50
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 0 2) (int_range 0 2))
    (fun (seed, size_class, adv_class) ->
      let n, t = List.nth [ (4, 1); (7, 2); (10, 3) ] size_class in
      let rng = Rng.create seed in
      let values = Array.init n (fun _ -> float_of_int (Rng.int rng 10_000)) in
      let iterations = Rounds.bdh_iterations ~range:10_000. ~eps:1. in
      let adversary =
        match adv_class with
        | 0 -> Adversary.passive "none"
        | 1 -> Strategies.random_silent ~count:t
        | _ -> Spoiler.early_stopping_spoiler ~t ~iterations
      in
      let report = run ~seed ~n ~t ~eps:1. ~adversary values in
      Verdict.all_ok (verdict_of ~eps:1. values report))

let () =
  Alcotest.run "early-stopping"
    [
      ( "adaptive-termination",
        [
          Alcotest.test_case "fault-free is fast" `Quick test_fault_free_fast;
          Alcotest.test_case "rounds independent of D" `Quick
            test_rounds_independent_of_d;
          Alcotest.test_case "silent byz" `Quick test_silent_byz;
          Alcotest.test_case "consecutive decisions" `Quick
            test_consecutive_decisions;
          Alcotest.test_case "spoiler still correct" `Quick
            test_spoiler_still_correct;
          Alcotest.test_case "crash mid-protocol" `Quick test_crash_mid_protocol;
          Alcotest.test_case "eps-close inputs decide immediately" `Quick
            test_tiny_spread_immediate;
          Alcotest.test_case "pinned n=10 passive and spoiler runs" `Quick
            test_pinned_runs;
          QCheck_alcotest.to_alcotest prop_early_stopping_under_adversaries;
        ] );
    ]

(* Tests for AA on real values: closestInt (Remarks 1-2), trimming, round
   formulas, the BDH RealAA protocol (Theorem 3 / Lemmas 5-6), the
   iterated-midpoint baselines, and the resilience boundary. *)

open Aat_engine
open Aat_realaa
module Report = Aat_runtime.Report
module Strategies = Aat_adversary.Strategies
module Spoiler = Aat_adversary.Spoiler
module Wedge = Aat_adversary.Wedge
module Rng = Aat_util.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- closestInt --- *)

let test_closest_int_values () =
  List.iter
    (fun (j, expected) -> check_int (string_of_float j) expected (Closest_int.closest_int j))
    [
      (0., 0); (0.4, 0); (0.5, 1); (0.6, 1); (1.0, 1);
      (3.49, 3); (3.51, 4);
      (-0.4, 0); (-0.5, 0); (-0.6, -1); (-1.2, -1); (-1.5, -1); (-1.51, -2);
    ]

let test_closest_int_nan () =
  check "nan" true
    (try ignore (Closest_int.closest_int Float.nan); false
     with Invalid_argument _ -> true)

let prop_remark1 =
  (* closestInt of j in [imin, imax] stays in [imin, imax] *)
  QCheck2.Test.make ~name:"Remark 1" ~count:500
    QCheck2.Gen.(triple (int_range (-50) 50) (int_bound 100) (float_bound_inclusive 1.))
    (fun (imin, width, frac) ->
      let imax = imin + width in
      let j = float_of_int imin +. (frac *. float_of_int width) in
      let c = Closest_int.closest_int j in
      c >= imin && c <= imax)

let prop_remark2 =
  (* |j - j'| <= 1 implies closestInt differs by at most 1 *)
  QCheck2.Test.make ~name:"Remark 2" ~count:500
    QCheck2.Gen.(pair (float_bound_inclusive 100.) (float_bound_inclusive 1.))
    (fun (j, d) ->
      let j' = j +. d in
      abs (Closest_int.closest_int j - Closest_int.closest_int j') <= 1)

(* --- trim --- *)

let test_trimmed () =
  Alcotest.(check (list (float 0.)))
    "t=1" [ 2.; 3. ]
    (Trim.trimmed ~t:1 [ 3.; 1.; 4.; 2. ]);
  Alcotest.(check (list (float 0.))) "too few" [] (Trim.trimmed ~t:2 [ 1.; 2.; 3. ]);
  Alcotest.(check (list (float 0.)))
    "t=0 sorts" [ 1.; 2.; 3. ]
    (Trim.trimmed ~t:0 [ 3.; 1.; 2. ])

let test_trimmed_midpoint () =
  check "midpoint" true (Trim.trimmed_midpoint ~t:1 [ 0.; 10.; 4.; 100. ] = Some 7.);
  check "empty" true (Trim.trimmed_midpoint ~t:3 [ 1.; 2. ] = None)

let prop_trimmed_within_honest_range =
  (* With at most t outliers injected, the trimmed multiset stays within the
     range of the original values. *)
  QCheck2.Test.make ~name:"trim discards t outliers" ~count:300
    QCheck2.Gen.(
      pair (list_size (int_range 4 20) (float_bound_inclusive 10.)) (int_range 1 3))
    (fun (honest, t) ->
      QCheck2.assume (List.length honest > 2 * t);
      let lo = List.fold_left min infinity honest in
      let hi = List.fold_left max neg_infinity honest in
      let byz = List.init t (fun i -> if i mod 2 = 0 then 1e9 else -1e9) in
      match Trim.range (Trim.trimmed ~t (honest @ byz)) with
      | None -> false
      | Some (a, b) -> a >= lo -. 1e-9 && b <= hi +. 1e-9)

(* --- rounds formulas --- *)

let test_bdh_iterations () =
  check_int "delta<=1" 0 (Rounds.bdh_iterations ~range:1. ~eps:1.);
  check_int "delta=2" 2 (Rounds.bdh_iterations ~range:2. ~eps:1.);
  (* 2^2 = 4 >= 2 but 1^1 = 1 < 2 *)
  check_int "delta=4" 2 (Rounds.bdh_iterations ~range:4. ~eps:1.);
  check_int "delta=5" 3 (Rounds.bdh_iterations ~range:5. ~eps:1.);
  (* 3^3 = 27 >= 5 > 2^2 *)
  check_int "delta=1e6" 8 (Rounds.bdh_iterations ~range:1e6 ~eps:1.)
(* 8^8 = 16.7e6 >= 1e6 > 7^7 = 823543 *)

let test_bdh_rounds_triple () =
  check_int "3x" (3 * Rounds.bdh_iterations ~range:100. ~eps:1.)
    (Rounds.bdh_rounds ~range:100. ~eps:1.)

let test_schedule_below_paper_bound () =
  (* Theorem 3's ceiling dominates our exact schedule for all delta >= 2. *)
  List.iter
    (fun delta ->
      check
        (Printf.sprintf "delta=%g" delta)
        true
        (Rounds.bdh_rounds ~range:delta ~eps:1.
        <= Rounds.paper_round_bound ~range:delta ~eps:1.))
    [ 2.; 3.; 10.; 100.; 1e4; 1e6; 1e9; 1e12 ]

let test_halving_iterations () =
  check_int "1024" 10 (Rounds.halving_iterations ~range:1024. ~eps:1.);
  check_int "1000" 10 (Rounds.halving_iterations ~range:1000. ~eps:1.);
  check_int "small" 0 (Rounds.halving_iterations ~range:0.5 ~eps:1.)

let test_rounds_invalid () =
  let rejects f = try ignore (f ()); false with Invalid_argument _ -> true in
  check "bad eps" true (rejects (fun () -> Rounds.bdh_iterations ~range:1. ~eps:0.));
  (* Non-finite arguments are rejected by every budget. A NaN ratio used
     to keep [bdh_iterations] searching forever, so the bounded functions
     are checked first. *)
  List.iter
    (fun (range, eps) ->
      let name f = Printf.sprintf "%s range %g eps %g" f range eps in
      check (name "halving") true
        (rejects (fun () -> Rounds.halving_iterations ~range ~eps));
      check (name "paper bound") true
        (rejects (fun () -> Rounds.paper_round_bound ~range ~eps));
      check (name "bdh") true (rejects (fun () -> Rounds.bdh_iterations ~range ~eps)))
    [
      (Float.nan, 1.);
      (1., Float.nan);
      (Float.infinity, 1.);
      (1., Float.infinity);
      (Float.neg_infinity, 1.);
    ]

(* The unboxed trim RealAA runs equals the list trim it replaced, bit
   for bit, on multisets full of ties: +0. and -0., NaNs of three
   payloads, infinities, repeated values, and windows that do not survive
   (k <= 2t). Sizes past 16 reach the merge. *)
let test_trimmed_mean_array_bits () =
  let rng = Rng.create 17 in
  let pool =
    [|
      0.; -0.; 1.; -1.; 3.; 1e308; -1e308; 5e-324; Float.infinity;
      Float.neg_infinity; Float.nan;
      Int64.float_of_bits 0xFFF8_0000_0000_0000L;
      Int64.float_of_bits 0x7FF8_0000_0000_0ABCL;
    |]
  in
  let bits = Option.map Int64.bits_of_float in
  for case = 1 to 20_000 do
    let k = if case mod 10 = 0 then Rng.int rng 300 else Rng.int rng 41 in
    let values =
      Array.init k (fun _ ->
          match Rng.int rng 3 with
          | 0 -> pool.(Rng.int rng (Array.length pool))
          | 1 -> float_of_int (Rng.int rng 5)
          | _ -> Rng.float rng 10. -. 5.)
    in
    let t = Rng.int rng ((k / 2) + 2) in
    let want = Trim.trimmed_mean ~t (Array.to_list values) in
    let got = Trim.trimmed_mean_array ~t (Array.copy values) in
    if bits want <> bits got then
      Alcotest.failf "k=%d t=%d [%s]: list %s, array %s" k t
        (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") values)))
        (Option.fold ~none:"None" ~some:(Printf.sprintf "%h") want)
        (Option.fold ~none:"None" ~some:(Printf.sprintf "%h") got)
  done

(* --- running the protocols --- *)

let float_inputs values self = values.(self)

let run_bdh ?(seed = 0) ~n ~t ~iterations ~adversary values =
  let report =
    Sync_engine.run ~n ~t ~seed ~max_rounds:(max 1 (3 * iterations))
      ~protocol:(Bdh.protocol ~inputs:(float_inputs values) ~t ~iterations ())
      ~adversary ()
  in
  report

let honest_inputs_of values corrupted =
  Array.to_list (Array.mapi (fun i v -> (i, v)) values)
  |> List.filter_map (fun (i, v) -> if List.mem i corrupted then None else Some v)

(* hull inputs: initially-honest; termination count: finally honest *)
let verdict_of ~eps values (report : (Bdh.result, 'm) Sync_engine.report) =
  let hull_inputs =
    honest_inputs_of values (Report.initially_corrupted report)
  in
  Verdict.real ~eps
    ~n_honest:(Array.length values - List.length report.corrupted)
    ~honest_inputs:hull_inputs
    ~honest_outputs:
      (List.map (fun (r : Bdh.result) -> r.value) (Report.honest_outputs report))

let test_bdh_fault_free () =
  let values = [| 0.; 10.; 20.; 30.; 40.; 50.; 60. |] in
  let iterations = Rounds.bdh_iterations ~range:60. ~eps:1. in
  let report =
    run_bdh ~n:7 ~t:2 ~iterations ~adversary:(Adversary.passive "none") values
  in
  check "verdict" true (Verdict.all_ok (verdict_of ~eps:1. values report));
  check_int "exact schedule" (3 * iterations) report.rounds_used;
  (* fault-free: one iteration makes all multisets identical -> exact
     agreement from iteration 1 on *)
  check "exact agreement fault-free" true
    (Verdict.spread
       (List.map (fun (r : Bdh.result) -> r.value) (Report.honest_outputs report))
    = 0.)

let test_bdh_silent_byz () =
  let values = [| 0.; 10.; 20.; 30.; 40.; 50.; 60. |] in
  let iterations = Rounds.bdh_iterations ~range:60. ~eps:1. in
  let report =
    run_bdh ~n:7 ~t:2 ~iterations
      ~adversary:(Strategies.silent ~victims:[ 5; 6 ])
      values
  in
  check "verdict" true (Verdict.all_ok (verdict_of ~eps:1. values report))

let test_bdh_crash_mid_protocol () =
  let values = [| 0.; 10.; 20.; 30.; 40.; 50.; 60. |] in
  let iterations = Rounds.bdh_iterations ~range:60. ~eps:1. in
  let report =
    run_bdh ~n:7 ~t:2 ~iterations
      ~adversary:(Strategies.crash ~at_round:4 ~victims:[ 0; 3 ])
      values
  in
  check "verdict" true (Verdict.all_ok (verdict_of ~eps:1. values report))

let test_bdh_spoiler_within_lemma5 () =
  List.iter
    (fun (n, t, d) ->
      let values = Array.init n (fun i -> d *. float_of_int i /. float_of_int (n - 1)) in
      let iterations = Rounds.bdh_iterations ~range:d ~eps:1. in
      let report =
        run_bdh ~n ~t ~iterations
          ~adversary:(Spoiler.realaa_spoiler ~t ~iterations)
          values
      in
      let v = verdict_of ~eps:1. values report in
      check (Printf.sprintf "verdict n=%d t=%d d=%g" n t d) true (Verdict.all_ok v);
      (* Lemma 5 with the adversary's actual split: spread <= D * prod(t_i) /
         ((n-2t)^R). We only assert the protocol-level guarantee spread <=
         D / R^R <= eps. *)
      let spread =
        Verdict.spread
          (List.map (fun (r : Bdh.result) -> r.value) (Report.honest_outputs report))
      in
      check "spread within eps" true (spread <= 1.))
    [ (7, 2, 60.); (10, 3, 100.); (13, 4, 500.); (7, 2, 1000.) ]

let test_bdh_spoiler_slower_than_fault_free () =
  (* The spoiler must actually slow convergence: after ONE iteration, the
     fault-free spread is 0 while the spoiled spread is positive. *)
  let n = 10 and t = 3 in
  let values = Array.init n (fun i -> float_of_int (10 * i)) in
  let spoiled =
    run_bdh ~n ~t ~iterations:1 ~adversary:(Spoiler.realaa_spoiler ~t ~iterations:3) values
  in
  let spread =
    Verdict.spread
      (List.map (fun (r : Bdh.result) -> r.value) (Report.honest_outputs spoiled))
  in
  check "spoiler causes disagreement after 1 iteration" true (spread > 0.)

let test_bdh_blacklist_reported () =
  let n = 7 and t = 2 in
  let values = Array.init n (fun i -> float_of_int i) in
  let report =
    run_bdh ~n ~t ~iterations:3 ~adversary:(Spoiler.realaa_spoiler ~t ~iterations:3) values
  in
  (* At least one honest party must have blacklisted at least one spoiler
     (every spent leader is globally convicted). *)
  let blacklists =
    List.map (fun (r : Bdh.result) -> r.blacklisted) (Report.honest_outputs report)
  in
  check "someone blacklisted" true (List.exists (fun l -> l <> []) blacklists)

let test_bdh_trajectory_monotone_spread () =
  (* Honest spreads never grow from one iteration to the next. *)
  let n = 10 and t = 3 in
  let values = Array.init n (fun i -> float_of_int (7 * i)) in
  let report =
    run_bdh ~n ~t ~iterations:4 ~adversary:(Spoiler.realaa_spoiler ~t ~iterations:4) values
  in
  let outputs = Report.honest_outputs report in
  let iters = List.length (List.hd outputs).Bdh.trajectory in
  let spreads =
    List.init iters (fun k ->
        Verdict.spread (List.map (fun (r : Bdh.result) -> List.nth r.trajectory k) outputs))
  in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a +. 1e-9 >= b && monotone rest
    | _ -> true
  in
  check "spread non-increasing" true (monotone spreads)

(* Pinned ablation runs at n=10, t=3 against the spoiler, one per knob
   turned off: the digest covers every honest output (float bits), its
   trajectory and blacklist, the termination rounds and the letter counts,
   so a change that must not move behaviour keeps it, and a protocol that
   ignores a knob fails it. Three iterations (R <= t) leave the spoiler no
   clean iteration, so each knob moves the outputs; over the full schedule
   for this range, adaptive trimming reads the same as the faithful run. *)
let knob_digest (report : (Bdh.result, _) Sync_engine.report) =
  let b = Buffer.create 512 in
  let bits v = Printf.bprintf b "%Lx," (Int64.bits_of_float v) in
  List.iter
    (fun (p, (r : Bdh.result)) ->
      Printf.bprintf b "%d:" p;
      bits r.value;
      List.iter bits r.trajectory;
      List.iter (Printf.bprintf b "b%d,") r.blacklisted;
      Buffer.add_char b ';')
    report.outputs;
  List.iter (fun (p, r) -> Printf.bprintf b "%d@%d;" p r) report.termination_rounds;
  Printf.bprintf b "rounds=%d honest=%d adversary=%d" report.rounds_used
    report.honest_messages report.adversary_messages;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_bdh_knob_pins () =
  let n = 10 and t = 3 in
  let values = Array.init n (fun i -> float_of_int (97 * i * i mod 1000)) in
  let iterations = 3 in
  let digest knobs =
    knob_digest
      (Sync_engine.run ~n ~t ~seed:3 ~max_rounds:(3 * iterations)
         ~protocol:(Bdh.protocol ~knobs ~inputs:(float_inputs values) ~t ~iterations ())
         ~adversary:(Spoiler.realaa_spoiler ~t ~iterations)
         ())
  in
  let faithful = digest Bdh.faithful in
  List.iter
    (fun (name, knobs, want) ->
      let got = digest knobs in
      Alcotest.(check string) name want got;
      check (name ^ " differs from faithful") true (got <> faithful))
    [
      ( "blacklist = false",
        { Bdh.faithful with blacklist = false },
        "786d5497d014df30f3ecc7e839861303" );
      ( "adaptive_trim = false",
        { Bdh.faithful with adaptive_trim = false },
        "2958f48918f5822bf2db6d187ffa5368" );
      ( "averaging = Midpoint",
        { Bdh.faithful with averaging = Bdh.Midpoint },
        "a41940b1983865e9d5e673538407cff1" );
    ]

(* --- iterated midpoint baselines --- *)

let run_naive ?(seed = 0) ~n ~t ~iterations ~adversary values =
  Sync_engine.run ~n ~t ~seed ~max_rounds:(max 1 iterations)
    ~protocol:(Iterated_midpoint.naive ~inputs:(float_inputs values) ~t ~iterations)
    ~adversary ()

let test_naive_fault_free_halving () =
  let n = 7 and t = 2 in
  let values = Array.init n (fun i -> float_of_int (16 * i)) in
  let d = 16. *. float_of_int (n - 1) in
  let iterations = Rounds.halving_iterations ~range:d ~eps:1. in
  let report = run_naive ~n ~t ~iterations ~adversary:(Adversary.passive "none") values in
  let outputs =
    List.map
      (fun (r : Iterated_midpoint.result) -> r.value)
      (Report.honest_outputs report)
  in
  let hull_inputs = honest_inputs_of values (Report.initially_corrupted report) in
  check "verdict" true
    (Verdict.all_ok
       (Verdict.real ~eps:1.
          ~n_honest:(Array.length values - List.length report.corrupted)
          ~honest_inputs:hull_inputs ~honest_outputs:outputs));
  check_int "one round per iteration" iterations report.rounds_used

let test_naive_halving_under_wedge_above_threshold () =
  (* n = 3t + 1: the wedge is powerless; spread still halves per round. *)
  let n = 7 and t = 2 in
  let values = Array.init n (fun i -> if i < 4 then 0. else 64.) in
  let iterations = 10 in
  let report = run_naive ~n ~t ~iterations ~adversary:(Wedge.naive_wedge ()) values in
  let outputs =
    List.map
      (fun (r : Iterated_midpoint.result) -> r.value)
      (Report.honest_outputs report)
  in
  check "wedge fails at n=3t+1" true (Verdict.spread outputs <= 64. /. 512.)

let test_naive_wedge_breaks_at_boundary () =
  (* n = 3t: agreement never happens — the classic impossibility. *)
  let n = 6 and t = 2 in
  let values = [| 0.; 0.; 64.; 64.; 0.; 64. |] in
  let report = run_naive ~n ~t ~iterations:20 ~adversary:(Wedge.naive_wedge ()) values in
  let outputs =
    List.map
      (fun (r : Iterated_midpoint.result) -> r.value)
      (Report.honest_outputs report)
  in
  check "still split after 20 iterations" true (Verdict.spread outputs >= 32.)

let test_gradecast_midpoint_converges () =
  let n = 7 and t = 2 in
  let values = Array.init n (fun i -> float_of_int (16 * i)) in
  let d = 16. *. float_of_int (n - 1) in
  let iterations = Rounds.halving_iterations ~range:d ~eps:1. in
  let report =
    Sync_engine.run ~n ~t ~max_rounds:(3 * iterations)
      ~protocol:
        (Iterated_midpoint.with_gradecast ~inputs:(float_inputs values) ~t ~iterations)
      ~adversary:(Strategies.silent ~victims:[ 5; 6 ])
      ()
  in
  let outputs =
    List.map
      (fun (r : Iterated_midpoint.result) -> r.value)
      (Report.honest_outputs report)
  in
  let hull_inputs = honest_inputs_of values (Report.initially_corrupted report) in
  check "verdict" true
    (Verdict.all_ok
       (Verdict.real ~eps:1.
          ~n_honest:(Array.length values - List.length report.corrupted)
          ~honest_inputs:hull_inputs ~honest_outputs:outputs));
  check_int "three rounds per iteration" (3 * iterations) report.rounds_used

let test_bdh_wedge_breaks_at_boundary () =
  (* n = 3t: the gradecast wedge drives different grade-2 values into the
     two camps; RealAA cannot converge. *)
  let n = 6 and t = 2 in
  let values = [| 0.; 0.; 64.; 64.; 0.; 64. |] in
  let report =
    Sync_engine.run ~n ~t ~max_rounds:60
      ~protocol:(Bdh.protocol ~inputs:(float_inputs values) ~t ~iterations:10 ())
      ~adversary:(Wedge.gradecast_wedge ())
      ()
  in
  let outputs =
    List.map (fun (r : Bdh.result) -> r.value) (Report.honest_outputs report)
  in
  check "agreement broken at n=3t" true (Verdict.spread outputs > 1.)

let test_bdh_wedge_harmless_above_boundary () =
  let n = 7 and t = 2 in
  let values = [| 0.; 0.; 64.; 64.; 0.; 64.; 32. |] in
  let iterations = Rounds.bdh_iterations ~range:64. ~eps:1. in
  let report =
    Sync_engine.run ~n ~t ~max_rounds:(3 * iterations)
      ~protocol:(Bdh.protocol ~inputs:(float_inputs values) ~t ~iterations ())
      ~adversary:(Wedge.gradecast_wedge ())
      ()
  in
  check "verdict ok at n=3t+1" true (Verdict.all_ok (verdict_of ~eps:1. values report))

(* --- property: BDH against randomized adversaries --- *)

let prop_bdh_random_adversaries =
  QCheck2.Test.make ~name:"BDH AA under assorted adversaries" ~count:40
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 0 2) (int_range 0 3))
    (fun (seed, size_class, adv_class) ->
      let n, t = List.nth [ (4, 1); (7, 2); (10, 3) ] size_class in
      let rng = Rng.create seed in
      let values = Array.init n (fun _ -> float_of_int (Rng.int rng 1000)) in
      let d = 1000. in
      let iterations = Rounds.bdh_iterations ~range:d ~eps:1. in
      let adversary =
        match adv_class with
        | 0 -> Adversary.passive "none"
        | 1 -> Strategies.random_silent ~count:t
        | 2 -> Strategies.crash ~at_round:(1 + Rng.int rng (3 * iterations)) ~victims:(List.init t (fun i -> i))
        | _ -> Spoiler.realaa_spoiler ~t ~iterations
      in
      let report = run_bdh ~seed ~n ~t ~iterations ~adversary values in
      Verdict.all_ok (verdict_of ~eps:1. values report))

let () =
  Alcotest.run "realaa"
    [
      ( "closest-int",
        [
          Alcotest.test_case "values" `Quick test_closest_int_values;
          Alcotest.test_case "nan" `Quick test_closest_int_nan;
          QCheck_alcotest.to_alcotest prop_remark1;
          QCheck_alcotest.to_alcotest prop_remark2;
        ] );
      ( "trim",
        [
          Alcotest.test_case "trimmed" `Quick test_trimmed;
          Alcotest.test_case "trimmed midpoint" `Quick test_trimmed_midpoint;
          Alcotest.test_case "array trimmed mean = list, bit for bit" `Quick
            test_trimmed_mean_array_bits;
          QCheck_alcotest.to_alcotest prop_trimmed_within_honest_range;
        ] );
      ( "rounds",
        [
          Alcotest.test_case "bdh iterations" `Quick test_bdh_iterations;
          Alcotest.test_case "bdh rounds = 3R" `Quick test_bdh_rounds_triple;
          Alcotest.test_case "schedule <= paper bound" `Quick
            test_schedule_below_paper_bound;
          Alcotest.test_case "halving iterations" `Quick test_halving_iterations;
          Alcotest.test_case "invalid args" `Quick test_rounds_invalid;
        ] );
      ( "bdh",
        [
          Alcotest.test_case "fault free" `Quick test_bdh_fault_free;
          Alcotest.test_case "silent byz" `Quick test_bdh_silent_byz;
          Alcotest.test_case "crash mid-protocol" `Quick
            test_bdh_crash_mid_protocol;
          Alcotest.test_case "spoiler: AA still holds" `Quick
            test_bdh_spoiler_within_lemma5;
          Alcotest.test_case "spoiler slows convergence" `Quick
            test_bdh_spoiler_slower_than_fault_free;
          Alcotest.test_case "blacklist reported" `Quick
            test_bdh_blacklist_reported;
          Alcotest.test_case "spread monotone" `Quick
            test_bdh_trajectory_monotone_spread;
          Alcotest.test_case "pinned n=10 ablation knobs" `Quick
            test_bdh_knob_pins;
          QCheck_alcotest.to_alcotest prop_bdh_random_adversaries;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "naive halving fault-free" `Quick
            test_naive_fault_free_halving;
          Alcotest.test_case "naive resists wedge at n=3t+1" `Quick
            test_naive_halving_under_wedge_above_threshold;
          Alcotest.test_case "naive broken at n=3t" `Quick
            test_naive_wedge_breaks_at_boundary;
          Alcotest.test_case "gradecast midpoint converges" `Quick
            test_gradecast_midpoint_converges;
        ] );
      ( "boundary",
        [
          Alcotest.test_case "BDH broken at n=3t" `Quick
            test_bdh_wedge_breaks_at_boundary;
          Alcotest.test_case "BDH fine at n=3t+1" `Quick
            test_bdh_wedge_harmless_above_boundary;
        ] );
    ]

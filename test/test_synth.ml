(* Tests for the adversary-synthesis harness: the genome codec and search
   operators (validity is preserved under mutation/crossover, the wire
   form round-trips), the search driver's worker-count invariance — the
   same determinism contract the campaign subsystem pins — the gap
   report's soundness against K(R, D) and the Lemma-5 envelope, champion
   replay bit-identity, and the differential check between the watchdog
   and Verdict.grade grading paths. Also pins the Strategies.crash
   at_round fix: out-of-range rounds are rejected or clamped, never
   silently dropped. *)

open Treeagree

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* genome generators *)

(* A genome plus the (t, max_round) context it was drawn in — validity
   only means something relative to the budget and horizon. *)
let genome_ctx_gen ~generic_only =
  QCheck2.Gen.(
    map
      (fun seed ->
        let rng = Rng.create seed in
        let t = 1 + (seed mod 4) in
        let max_round = 3 + (seed mod 30) in
        (t, max_round, Genome.random ~generic_only rng ~t ~max_round))
      (int_bound 1_000_000))

let print_ctx (t, max_round, g) =
  Printf.sprintf "t=%d max_round=%d %s" t max_round (Genome.to_string g)

(* ------------------------------------------------------------------ *)
(* codec *)

let prop_codec_roundtrip =
  QCheck2.Test.make ~name:"codec round-trip" ~count:500 ~print:print_ctx
    (genome_ctx_gen ~generic_only:false) (fun (_, _, g) ->
      match Genome.of_string (Genome.to_string g) with
      | Ok g' -> Genome.equal g g'
      | Error _ -> false)

let test_codec_rejects () =
  let bad s =
    match Genome.of_string s with Ok _ -> false | Error _ -> true
  in
  List.iter
    (fun s -> check (Printf.sprintf "reject %S" s) true (bad s))
    [
      "";
      "bogus";
      "silent:2t";
      (* missing slots *)
      "silent:2t+none";
      (* missing scheduler *)
      "silent:0t+none+fifo";
      (* zero victims *)
      "crash:1b@0+none+fifo";
      (* crash round < 1 *)
      "silent:2x+none+fifo";
      (* unknown placement *)
      "none+none+turbo";
      (* unknown scheduler *)
      "none+none+fifo+none";
      (* too many parts *)
    ]

let test_codec_examples () =
  (* the wire forms documented in genome.mli *)
  match Genome.of_string "silent:2t+crash:1b@5+fifo" with
  | Error m -> Alcotest.failf "documented example rejected: %s" m
  | Ok g ->
      check "example round-trips" true
        (Genome.to_string g = "silent:2t+crash:1b@5+fifo");
      check "example is generic" true (Genome.generic g);
      check "example valid at t=2" true (Genome.valid ~t:2 ~max_round:9 g);
      check "example invalid at t=1 (2 victims)" false
        (Genome.valid ~t:1 ~max_round:9 g);
      check "example invalid at max_round=4 (crash@5)" false
        (Genome.valid ~t:2 ~max_round:4 g)

let test_codec_padded_integers () =
  (* whitespace around an integer field is ignored, as in every grammar *)
  check "padded crash round" true
    (Result.is_ok (Genome.of_string "crash:1b@ 5+none+fifo")
    && Genome.of_string "crash:1b@ 5+none+fifo"
       = Genome.of_string "crash:1b@5+none+fifo")

(* ------------------------------------------------------------------ *)
(* search operators *)

let prop_mutation_preserves_validity =
  QCheck2.Test.make ~name:"mutation chain stays valid" ~count:200
    ~print:print_ctx (genome_ctx_gen ~generic_only:false)
    (fun (t, max_round, g0) ->
      let rng = Rng.create 42 in
      let g = ref g0 in
      let ok = ref (Genome.valid ~t ~max_round g0) in
      for _ = 1 to 40 do
        g := Genome.mutate rng ~t ~max_round !g;
        if not (Genome.valid ~t ~max_round !g) then ok := false
      done;
      !ok)

let prop_generic_mutation_stays_generic =
  QCheck2.Test.make ~name:"generic_only mutation stays generic" ~count:200
    ~print:print_ctx
    (genome_ctx_gen ~generic_only:true)
    (fun (t, max_round, g0) ->
      let rng = Rng.create 7 in
      let g = ref g0 in
      let ok = ref (Genome.generic g0) in
      for _ = 1 to 40 do
        g := Genome.mutate ~generic_only:true rng ~t ~max_round !g;
        if not (Genome.generic !g && Genome.valid ~t ~max_round !g) then
          ok := false
      done;
      !ok)

let prop_crossover_preserves_validity =
  QCheck2.Test.make ~name:"crossover child valid" ~count:300
    ~print:(fun (a, b) -> print_ctx a ^ " x " ^ print_ctx b)
    QCheck2.Gen.(
      pair
        (genome_ctx_gen ~generic_only:false)
        (genome_ctx_gen ~generic_only:false))
    (fun ((ta, ra, a), (tb, rb, b)) ->
      (* the child must be valid in the *looser* of the two contexts —
         crossover only recombines genes, it cannot grow a count or a
         round beyond what one parent already had *)
      let rng = Rng.create 11 in
      let child = Genome.crossover rng a b in
      Genome.valid ~t:(max ta tb) ~max_round:(max ra rb) child)

let test_select_victims () =
  let ids placement count =
    Genome.select_victims ~n:6 { Genome.count; placement }
  in
  Alcotest.(check (list int)) "top" [ 4; 5 ] (ids Genome.Top 2);
  Alcotest.(check (list int)) "bottom" [ 0; 1 ] (ids Genome.Bottom 2);
  Alcotest.(check (list int)) "spread" [ 0; 3 ] (ids Genome.Spread 2);
  Alcotest.(check (list int))
    "count clamped to n" [ 0; 1; 2; 3; 4; 5 ]
    (ids Genome.Bottom 99)

(* ------------------------------------------------------------------ *)
(* Strategies.crash at_round pin (the silently-never-fires fix) *)

(* A RealAA runner whose engine horizon (3 * iterations = 90 rounds)
   exceeds the adversary-side clamp Defaults.max_rounds ~n:4 = 80: a
   crash scheduled absurdly late must fire at the clamp, not vanish. *)
let crash_runner ~at_round =
  Runner.real_aa ~eps:1e6 ~inputs:[| 0.; 1.; 2.; 3. |] ~t:1 ~iterations:30
    ~adversary:(fun () -> Strategies.crash ~at_round ~victims:[ 0 ])
    ()

let test_crash_rejects_nonpositive_round () =
  Alcotest.check_raises "at_round = 0 rejected"
    (Invalid_argument "Strategies.crash: at_round must be >= 1 (got 0)")
    (fun () -> ignore (Strategies.crash ~at_round:0 ~victims:[ 0 ]));
  Alcotest.check_raises "at_round = -3 rejected"
    (Invalid_argument "Strategies.crash: at_round must be >= 1 (got -3)")
    (fun () -> ignore (Strategies.crash ~at_round:(-3) ~victims:[ 0 ]))

let test_crash_clamps_far_round () =
  check_int "max_rounds clamp target" 80 (Defaults.max_rounds ~n:4);
  let outcome = (crash_runner ~at_round:10_000).Runner.run ~seed:0 () in
  (* before the fix this crash never fired and corrupted stayed 0 *)
  check_int "far-future crash fires at the clamp" 1 outcome.Runner.corrupted;
  check_int "not corrupted at start" 0 outcome.Runner.initially_corrupted

let test_crash_normal_round_still_fires () =
  let outcome = (crash_runner ~at_round:2).Runner.run ~seed:0 () in
  check_int "in-horizon crash fires" 1 outcome.Runner.corrupted

(* ------------------------------------------------------------------ *)
(* search determinism *)

let realaa_target () =
  match Synth.target_for "realaa" with
  | Ok t -> t
  | Error m -> Alcotest.failf "realaa target: %s" m

let config ?(driver = Synth.Mu_plus_lambda) ?(generations = 2)
    ?(population = 4) ?(seed = 1) ~workers () =
  { Synth.driver; generations; population; seed; workers }

let test_search_workers_invariance () =
  let target = realaa_target () in
  let reports =
    List.map (fun workers -> Synth.search (config ~workers ()) target) [ 1; 2; 4 ]
  in
  match reports with
  | [ r1; r2; r4 ] ->
      List.iter
        (fun (label, r) ->
          check label true
            (Genome.equal r.Synth.champion.Synth.genome
               r1.Synth.champion.Synth.genome);
          Alcotest.(check (float 0.))
            (label ^ " fitness") r1.Synth.champion.Synth.fitness
            r.Synth.champion.Synth.fitness;
          Alcotest.(check (list (pair int (float 0.))))
            (label ^ " history") r1.Synth.history r.Synth.history;
          check_int (label ^ " evaluations") r1.Synth.evaluations
            r.Synth.evaluations)
        [ ("workers 2 = workers 1", r2); ("workers 4 = workers 1", r4) ]
  | _ -> assert false

let test_search_drivers_run () =
  (* random and hill share the evaluation/gap plumbing with evolve; a
     tiny budget of each must produce a sound report *)
  let target = realaa_target () in
  List.iter
    (fun driver ->
      let r = Synth.search (config ~driver ~population:2 ~workers:2 ()) target in
      check (Synth.driver_label driver ^ " sound") true r.Synth.gap.Synth.sound;
      check_int
        (Synth.driver_label driver ^ " history length")
        2
        (List.length r.Synth.history))
    [ Synth.Random_search; Synth.Hill_climb ]

(* ------------------------------------------------------------------ *)
(* gap sanity and champion replay *)

let test_gap_sanity () =
  let r = Synth.search (config ~workers:2 ()) (realaa_target ()) in
  let g = r.Synth.gap in
  check "sound" true g.Synth.sound;
  check "K(R,D) does not beat the measured execution" true
    (g.Synth.k_theory <= g.Synth.measured +. 1e-6);
  check "K(R,D) positive" true (g.Synth.k_theory > 0.);
  (match g.Synth.envelope with
  | None -> Alcotest.fail "realaa target carries the Lemma-5 envelope"
  | Some e ->
      check "measured within the Lemma-5 envelope" true
        (g.Synth.measured <= e +. 1e-6));
  check "ratio consistent" true
    (Float.abs (g.Synth.ratio -. (g.Synth.measured /. g.Synth.k_theory))
    <= 1e-6 *. g.Synth.ratio)

let test_champion_replay_bit_identity () =
  let r = Synth.search (config ~workers:2 ()) (realaa_target ()) in
  match Replay.run r.Synth.champion.Synth.record with
  | Error m -> Alcotest.failf "champion replay failed to execute: %s" m
  | Ok replay -> (
      match replay.Replay.verdict with
      | Ok () -> ()
      | Error d ->
          Alcotest.failf "champion replay diverged: %a" Replay.pp_divergence d)

let test_all_targets_sound_and_replayable () =
  (* one micro-search per default target: every champion must respect
     the bound and replay clean, whatever the protocol/engine *)
  List.iter
    (fun target ->
      let r =
        Synth.search (config ~generations:1 ~population:2 ~workers:2 ()) target
      in
      check (target.Synth.label ^ " sound") true r.Synth.gap.Synth.sound;
      match Replay.run r.Synth.champion.Synth.record with
      | Error m -> Alcotest.failf "%s replay: %s" target.Synth.label m
      | Ok replay ->
          check (target.Synth.label ^ " replay clean") true
            (Result.is_ok replay.Replay.verdict))
    (Synth.default_targets ())

(* ------------------------------------------------------------------ *)
(* differential grading: watchdogs vs Verdict.grade *)

(* The runs carry watchdogs (spec_for sets watchdogs = true) and the
   genome operators never exceed the budget t, so the two grading paths
   must agree in the one direction the catalog guarantees: a run whose
   invariant watchdogs stayed silent and whose properties all hold is
   Passed, and a watchdog violation on an in-budget run means the run
   really went wrong — Verdict.grade must not report Passed. *)
let test_watchdog_verdict_differential () =
  let target = realaa_target () in
  let task_seed = Campaign.split_seed ~base:3 ~index:0 in
  for seed = 0 to 29 do
    let rng = Rng.create seed in
    let g =
      Genome.random rng ~t:target.Synth.t ~max_round:target.Synth.max_round
    in
    match Synth.evaluate target ~task_seed g with
    | Error m -> Alcotest.failf "evaluate %s: %s" (Genome.to_string g) m
    | Ok e ->
        let violated = e.Synth.outcome.Runner.violations <> [] in
        let passed = e.Synth.outcome.Runner.grade = Verdict.Passed in
        if violated && passed then
          Alcotest.failf
            "genome %s: watchdog fired (%d violations) but grade is passed"
            (Genome.to_string g)
            (List.length e.Synth.outcome.Runner.violations)
  done

let test_wedge_boundary_violates_both_paths () =
  (* n = 3t is below the resilience threshold: the wedge equivocation
     must break agreement — and both grading paths have to say so *)
  let target =
    { (realaa_target ()) with Synth.label = "wedge-boundary"; n = 9; t = 3 }
  in
  let genome =
    {
      Genome.first = Genome.Wedge;
      second = Genome.Passive;
      scheduler = Genome.Fifo;
    }
  in
  match Synth.evaluate target ~task_seed:5 genome with
  | Error m -> Alcotest.failf "evaluate: %s" m
  | Ok e ->
      check "agreement broken" false e.Synth.outcome.Runner.agreement;
      (match e.Synth.outcome.Runner.grade with
      | Verdict.Violated _ -> ()
      | g ->
          Alcotest.failf "expected Violated at n = 3t, got %s"
            (Verdict.graded_label g));
      check "spread visible to the fitness function" true (e.Synth.spread > 0.)

(* ------------------------------------------------------------------ *)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "synth"
    [
      qsuite "genome properties"
        [
          prop_codec_roundtrip;
          prop_mutation_preserves_validity;
          prop_generic_mutation_stays_generic;
          prop_crossover_preserves_validity;
        ];
      ( "genome codec",
        [
          Alcotest.test_case "rejects malformed" `Quick test_codec_rejects;
          Alcotest.test_case "documented examples" `Quick test_codec_examples;
          Alcotest.test_case "padded integers" `Quick test_codec_padded_integers;
          Alcotest.test_case "select_victims" `Quick test_select_victims;
        ] );
      ( "strategies crash pin",
        [
          Alcotest.test_case "rejects non-positive round" `Quick
            test_crash_rejects_nonpositive_round;
          Alcotest.test_case "clamps far-future round" `Quick
            test_crash_clamps_far_round;
          Alcotest.test_case "normal round fires" `Quick
            test_crash_normal_round_still_fires;
        ] );
      ( "search",
        [
          Alcotest.test_case "workers invariance" `Quick
            test_search_workers_invariance;
          Alcotest.test_case "random and hill drivers" `Quick
            test_search_drivers_run;
        ] );
      ( "gap",
        [
          Alcotest.test_case "sanity vs K(R,D)" `Quick test_gap_sanity;
          Alcotest.test_case "champion replay bit-identity" `Quick
            test_champion_replay_bit_identity;
          Alcotest.test_case "all targets sound + replayable" `Quick
            test_all_targets_sound_and_replayable;
        ] );
      ( "differential grading",
        [
          Alcotest.test_case "watchdogs vs Verdict.grade" `Quick
            test_watchdog_verdict_differential;
          Alcotest.test_case "wedge at n = 3t violates both" `Quick
            test_wedge_boundary_violates_both_paths;
        ] );
    ]

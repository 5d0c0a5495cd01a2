(* Tests for the fault-injection layer: the plan grammar and its IO, the
   deterministic compilation of plans onto the Mailbox, the crash ≡
   Byzantine-silence differential on both engines, the async-only faults'
   patience discipline, the watchdog catalog, structured run outcomes, and
   the fault-aware grading rules. *)

open Treeagree

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* plan grammar: parse / print / JSON *)

let parse_ok s =
  match Fault_plan_io.parse s with
  | Ok p -> p
  | Error e -> Alcotest.failf "%S did not parse: %s" s e

let test_plan_io_grammar () =
  check "none is empty" true (Fault_plan.is_empty (parse_ok "none"));
  check "empty string is empty" true (Fault_plan.is_empty (parse_ok ""));
  (let open Fault_plan in
   Alcotest.(check bool) "crash clause" true
     (parse_ok "crash:2@3" = [ Crash { party = 2; at_round = 3 } ]);
   check "crash-recover clause" true
     (parse_ok "crash-recover:1@2-5"
     = [ Crash_recover { party = 1; from_round = 2; to_round = 5 } ]);
   check "whole-network omission" true
     (parse_ok "omission:0.25" = [ Omission { prob = 0.25; scope = All } ]);
   check "party-scoped omission" true
     (parse_ok "omission:0.1:party:3"
     = [ Omission { prob = 0.1; scope = Party 3 } ]);
   check "pair-scoped omission" true
     (parse_ok "omission:0.5:pair:1>2"
     = [ Omission { prob = 0.5; scope = Pair { src = 1; dst = 2 } } ]);
   check "duplicate clause" true
     (parse_ok "duplicate:0.5" = [ Duplicate { prob = 0.5; scope = All } ]);
   check "delay clause" true
     (parse_ok "delay:0.3:40:party:2"
     = [ Delay { prob = 0.3; scope = Party 2; by = 40 } ]);
   check "partition clause" true
     (parse_ok "partition:0,1|2,3,4@2-6"
     = [
         Partition
           { blocks = [ [ 0; 1 ]; [ 2; 3; 4 ] ]; from_round = 2; to_round = 6 };
       ]);
   check "clauses compose with ;" true
     (parse_ok "crash:0@1;omission:0.2"
     = [ Crash { party = 0; at_round = 1 }; Omission { prob = 0.2; scope = All } ]));
  (* malformed input reports an error instead of raising *)
  List.iter
    (fun s ->
      match Fault_plan_io.parse s with
      | Ok _ -> Alcotest.failf "%S should not parse" s
      | Error _ -> ())
    [ "bogus:1"; "omission:1.5"; "crash:0"; "partition:0,1@3-2"; "crash:-1@2" ]

let gen_plan =
  QCheck2.Gen.map
    (fun seed ->
      let rng = Rng.create seed in
      Fault_plan.random rng ~n:6 ~rounds_hint:10 ~sync_only:(Rng.bool rng) ())
    QCheck2.Gen.(int_bound 1_000_000)

let prop_plan_io_roundtrip =
  QCheck2.Test.make ~name:"Plan_io: parse (to_string p) round-trips" ~count:200
    gen_plan (fun plan ->
      let s = Fault_plan_io.to_string plan in
      match Fault_plan_io.parse s with
      | Error _ -> false
      | Ok plan' ->
          (* mutual inverses up to float rendering: a drawn probability may
             lose digits in printing, so compare printed forms — the
             reparse must be a fixed point of the grammar *)
          Fault_plan_io.to_string plan' = s)

let prop_plan_json_roundtrip =
  QCheck2.Test.make ~name:"Plan_io: of_json (to_json p) round-trips" ~count:100
    gen_plan (fun plan ->
      match Fault_plan_io.of_json (Fault_plan_io.to_json plan) with
      | Error _ -> false
      | Ok plan' ->
          Fault_plan_io.to_string plan' = Fault_plan_io.to_string plan)

let test_plan_validate () =
  let bad p = match Fault_plan.validate p with Ok () -> false | Error _ -> true in
  let open Fault_plan in
  check "probability > 1 rejected" true
    (bad [ Omission { prob = 1.5; scope = All } ]);
  check "negative probability rejected" true
    (bad [ Duplicate { prob = -0.1; scope = All } ]);
  check "inverted window rejected" true
    (bad [ Crash_recover { party = 0; from_round = 5; to_round = 2 } ]);
  check "negative party rejected" true
    (bad [ Crash { party = -1; at_round = 1 } ]);
  check "overlapping partition blocks rejected" true
    (bad
       [ Partition { blocks = [ [ 0; 1 ]; [ 1; 2 ] ]; from_round = 1; to_round = 3 } ]);
  check "party beyond n rejected" true
    (match
       Fault_plan.validate ~n:3 [ Crash { party = 7; at_round = 1 } ]
     with
    | Ok () -> false
    | Error _ -> true);
  check "well-formed plan accepted" true
    (Fault_plan.validate ~n:5
       [
         Crash { party = 0; at_round = 2 };
         Omission { prob = 0.3; scope = Party 4 };
         Partition { blocks = [ [ 0; 1 ]; [ 2; 3 ] ]; from_round = 1; to_round = 4 };
       ]
    = Ok ())

let test_plan_classes () =
  let open Fault_plan in
  check "permanent crash is not lossy" false
    (lossy [ Crash { party = 0; at_round = 1 } ]);
  check "omission is lossy" true (lossy [ Omission { prob = 0.1; scope = All } ]);
  check "partition is lossy" true
    (lossy [ Partition { blocks = [ [ 0 ] ]; from_round = 1; to_round = 2 } ]);
  check "crash-recover is lossy" true
    (lossy [ Crash_recover { party = 0; from_round = 1; to_round = 2 } ]);
  check "delay is sync-incompatible" false
    (sync_compatible [ Delay { prob = 0.5; scope = All; by = 3 } ]);
  check "duplicate is sync-incompatible" false
    (sync_compatible [ Duplicate { prob = 0.5; scope = All } ]);
  check "crash+omission is sync-compatible" true
    (sync_compatible
       [ Crash { party = 0; at_round = 1 }; Omission { prob = 0.1; scope = All } ]);
  Alcotest.(check (list (pair int int)))
    "crashes extraction"
    [ (0, 1); (2, 4) ]
    (crashes
       [
         Crash { party = 0; at_round = 1 };
         Omission { prob = 0.1; scope = All };
         Crash { party = 2; at_round = 4 };
       ]);
  check_int "crash_count ignores duplicates" 1
    (crash_count
       [ Crash { party = 3; at_round = 1 }; Crash { party = 3; at_round = 5 } ])

(* ------------------------------------------------------------------ *)
(* injection determinism on the sync engine *)

let tree5 = Generate.path 5
let inputs5 = [| 0; 4; 2; 1; 3 |]

let run_tree_outcome ?fault_filter ?(crash_faults = []) ?(watchdogs = [])
    ~adversary ~seed () =
  Engine.run_outcome ~n:(Array.length inputs5) ~t:1 ~seed ?fault_filter
    ~crash_faults ~watchdogs
    ~max_rounds:(max 1 (Tree_aa.rounds ~tree:tree5))
    ~protocol:
      (Tree_aa.protocol ~tree:tree5 ~inputs:(fun i -> inputs5.(i)) ~t:1)
    ~adversary ()

let report_of = function
  | Outcome.Completed r -> r
  | Outcome.Liveness_timeout { report; _ } -> report
  | Outcome.Engine_error { exn_text; _ } ->
      Alcotest.failf "unexpected engine error: %s" exn_text

let test_inject_deterministic () =
  let plan = parse_ok "omission:0.3" in
  let go seed =
    run_tree_outcome
      ~fault_filter:(Fault_inject.filter ~engine:`Sync ~seed plan)
      ~adversary:(Adversary.passive "none") ~seed ()
  in
  check "same seed, bit-identical outcome" true (go 11 = go 11);
  let a = report_of (go 11) and b = report_of (go 12) in
  check "faults actually dropped letters" true (a.Report.fault_stats.dropped > 0);
  check "different seed, different faults" true (a <> b)

let test_async_only_faults_inert_under_sync () =
  (* Duplicate/Delay clauses compile to Deliver under `Sync: the run is
     field-for-field the benign run *)
  let plan = parse_ok "duplicate:1;delay:1:50" in
  let faulty =
    run_tree_outcome
      ~fault_filter:(Fault_inject.filter ~engine:`Sync ~seed:5 plan)
      ~adversary:(Adversary.passive "none") ~seed:5 ()
  in
  let benign = run_tree_outcome ~adversary:(Adversary.passive "none") ~seed:5 () in
  check "sync run unchanged under async-only plan" true (faulty = benign)

(* ------------------------------------------------------------------ *)
(* crash ≡ Byzantine silence: the differential the Crash fault promises *)

let strip_faults (r : _ Report.t) = { r with Report.fault_stats = Report.no_faults }

let prop_crash_differential_sync =
  QCheck2.Test.make
    ~name:"sync: Crash plan report = Byzantine silent-corruption report"
    ~count:30
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 4 + Rng.int rng 6 in
      let t = (n - 1) / 3 in
      let tree = Generate.random rng (2 + Rng.int rng 10) in
      let inputs = Array.init n (fun _ -> Rng.int rng (Tree.n_vertices tree)) in
      let victim = Rng.int rng n in
      let at_round = 1 + Rng.int rng (max 1 (Tree_aa.rounds ~tree)) in
      let go ~crash_faults ~adversary =
        Engine.run_outcome ~n ~t ~seed ~crash_faults
          ~max_rounds:(max 1 (Tree_aa.rounds ~tree))
          ~protocol:(Tree_aa.protocol ~tree ~inputs:(fun i -> inputs.(i)) ~t)
          ~adversary ()
      in
      let planned =
        report_of
          (go
             ~crash_faults:[ (victim, at_round) ]
             ~adversary:(Adversary.passive "none"))
      in
      let byzantine =
        report_of
          (go ~crash_faults:[]
             ~adversary:(Strategies.crash ~at_round ~victims:[ victim ]))
      in
      (* a trivial tree decides at initialization: round [at_round] is
         never reached and neither side crashes anyone *)
      let expected_crashes = if Tree_aa.rounds ~tree = 0 then 0 else 1 in
      planned.Report.fault_stats.crashed = expected_crashes
      && strip_faults planned = byzantine)

let async_tree = Generate.caterpillar ~spine:3 ~legs:1
let async_inputs = [| 0; 2; 4; 1; 5 |]

let run_async_tree_outcome ?fault_filter ?(crash_faults = []) ?(watchdogs = [])
    ~adversary ~seed () =
  Async_engine.run_outcome ~n:(Array.length async_inputs) ~t:1 ~seed
    ?fault_filter ~crash_faults ~watchdogs
    ~reactor:
      (Async_aa.tree ~tree:async_tree
         ~inputs:(fun i -> async_inputs.(i))
         ~t:1
         ~iterations:(Nr_baseline.iterations_for async_tree))
    ~adversary ()

let prop_crash_differential_async =
  QCheck2.Test.make
    ~name:"async: Crash plan report = Byzantine silent-corruption report"
    ~count:15
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let victim = Rng.int rng (Array.length async_inputs) in
      let at_event = 1 + Rng.int rng 40 in
      let planned =
        report_of
          (run_async_tree_outcome
             ~crash_faults:[ (victim, at_event) ]
             ~adversary:(Async_engine.passive "none") ~seed ())
      in
      let byzantine =
        report_of
          (run_async_tree_outcome
             ~adversary:
               (Async_engine.with_scheduler
                  (Strategies.crash ~at_round:at_event ~victims:[ victim ]))
             ~seed ())
      in
      planned.Report.fault_stats.crashed = 1
      && strip_faults planned = byzantine)

let test_crash_runner_within_budget () =
  (* A single planned crash with t = 1: the protocol must still succeed,
     the crash is accounted, and the budget watchdog (which allows for
     plan-injected crashes) stays silent. *)
  let runner =
    Runner.tree_aa
      ~config:
        {
          Runner.Config.default with
          fault_plan = [ Fault_plan.Crash { party = 2; at_round = 2 } ];
          watch = true;
        }
      ~tree:tree5 ~inputs:inputs5 ~t:1
      ~adversary:(fun () -> Adversary.passive "none")
      ()
  in
  let o = runner.Runner.run ~seed:4 () in
  check "crash within budget: run ok" true (Runner.ok o);
  check_int "crash accounted" 1 o.Runner.faults.Report.crashed;
  check "planned crashes are budget-exempt" true (o.Runner.violations = [])

(* ------------------------------------------------------------------ *)
(* async-only faults: patience discipline and composition *)

let test_delay_never_exceeds_patience () =
  (* A 100%-delay plan with an absurd deferral: the clamp below patience
     must preserve eventual delivery, so the run still completes. *)
  let plan = parse_ok "delay:1:1000000" in
  match
    run_async_tree_outcome
      ~fault_filter:(Fault_inject.filter ~engine:`Async ~seed:1 plan)
      ~adversary:(Async_engine.passive "none") ~seed:1 ()
  with
  | Outcome.Completed r ->
      check "delays were injected" true (r.Report.fault_stats.delayed > 0);
      check "no letters lost to delay" true (r.Report.fault_stats.dropped = 0)
  | o -> Alcotest.failf "expected completion, got %s" (Outcome.label o)

let test_laggards_omission_compose () =
  (* Laggard starving (scheduler) and omission (fault plan) act on the
     same in-flight pool; together they must neither raise nor confuse the
     accounting: dropped letters are counted, the rest eventually flow. *)
  let plan = parse_ok "omission:0.02" in
  let outcome =
    run_async_tree_outcome
      ~fault_filter:(Fault_inject.filter ~engine:`Async ~seed:3 plan)
      ~adversary:
        (Async_engine.passive ~scheduler:(Async_engine.Laggards [ 0 ]) "lag")
      ~seed:3 ()
  in
  let r = report_of outcome in
  check "omission fired under laggard scheduling" true
    (r.Report.fault_stats.dropped > 0);
  check "delivery accounting survives composition" true
    (r.Report.honest_messages > r.Report.fault_stats.dropped)

(* ------------------------------------------------------------------ *)
(* watchdog catalog *)

let test_watchdogs_benign_zero_cost () =
  (* With watchdogs installed but no invariant broken, the report is
     field-for-field the unwatched report. *)
  let watched =
    run_tree_outcome
      ~watchdogs:[ Fault_watchdogs.corruption_budget ~t:1 ]
      ~adversary:(Strategies.random_silent ~count:1) ~seed:9 ()
  in
  let bare =
    run_tree_outcome ~adversary:(Strategies.random_silent ~count:1) ~seed:9 ()
  in
  check "benign run unchanged by watchdogs" true (watched = bare);
  check "no violations recorded" true
    ((report_of watched).Report.watchdog_violations = [])

(* The catalog reads states, not traffic, so switching it on must not make
   the engine build a letter per delivery: a passive n = 13 star-9 tree-aa
   cell delivers n² letters a round, and the whole catalog may cost only
   O(n) words a round on top of the unwatched run. *)
let test_watchdogs_allocate_per_party () =
  let n = 13 in
  let tree = Generate.star 9 in
  let inputs = Array.init n (fun i -> i mod Tree.n_vertices tree) in
  let measure watch =
    let runner =
      Runner.tree_aa
        ~config:{ Runner.Config.default with Runner.Config.watch }
        ~tree ~inputs ~t:4
        ~adversary:(fun () -> Adversary.passive "none")
        ()
    in
    ignore (runner.Runner.run ~seed:1 ());
    let w0 = Gc.minor_words () in
    let o = runner.Runner.run ~seed:1 () in
    (Gc.minor_words () -. w0, o)
  in
  let off, bare = measure false in
  let on, watched = measure true in
  check "both runs ok" true (Runner.ok bare && Runner.ok watched);
  check_int "every pair talks every round" (n * n * watched.Runner.rounds_used)
    watched.Runner.honest_messages;
  let extra = on -. off and bound = 16 * n * watched.Runner.rounds_used in
  if extra > float_of_int bound then
    Alcotest.failf "watchdogs cost %.0f words over %d rounds (bound 16·n·rounds = %d)"
      extra watched.Runner.rounds_used bound

let test_corruption_budget_fires () =
  (* Over-budget corruption must be recorded, not thrown: install the
     budget watchdog at t = 0 while the adversary corrupts one party. The
     party stays corrupted for the whole run, so "exactly one" also pins
     the retire-after-first-violation policy, on both engines. *)
  let budget () = [ Fault_watchdogs.corruption_budget ~t:0 ] in
  List.iter
    (fun (engine, violations) ->
      match violations with
      | [ v ] ->
          check_string "watchdog name" "corruption-budget" v.Watchdog.watchdog;
          check "detail names the budget" true
            (String.length v.Watchdog.detail > 0)
      | vs ->
          Alcotest.failf "%s: expected exactly one violation, got %d" engine
            (List.length vs))
    [
      ( "sync",
        (report_of
           (run_tree_outcome ~watchdogs:(budget ())
              ~adversary:(Strategies.random_silent ~count:1) ~seed:2 ()))
          .Report.watchdog_violations );
      ( "async",
        (report_of
           (run_async_tree_outcome ~watchdogs:(budget ())
              ~adversary:
                (Async_engine.with_scheduler
                   (Strategies.random_silent ~count:1))
              ~seed:2 ()))
          .Report.watchdog_violations );
    ]

let no_corrupted = Aat_runtime.Party_set.create ~n:8

let test_spread_non_expansion_direct () =
  let w = Fault_watchdogs.spread_non_expansion ~observe:(fun x -> Some x) () in
  check "round 1 establishes the envelope" true
    (Watchdog.check w ~round:1
       ~states:[ (0, 0.); (1, 10.) ]
       ~corrupted:no_corrupted
    = None);
  check "contraction passes" true
    (Watchdog.check w ~round:2
       ~states:[ (0, 2.); (1, 8.) ]
       ~corrupted:no_corrupted
    = None);
  check "expansion fires" true
    (Watchdog.check w ~round:3
       ~states:[ (0, -5.); (1, 12.) ]
       ~corrupted:no_corrupted
    <> None)

let test_hull_containment_direct () =
  let rooted = Rooted.make tree5 in
  let w =
    Fault_watchdogs.hull_containment ~rooted ~inputs:[| 1; 2; 3 |]
      ~vertex_of:(fun v -> Some v)
      ()
  in
  check "in-hull positions pass" true
    (Watchdog.check w ~round:1
       ~states:[ (0, 2); (1, 3) ]
       ~corrupted:no_corrupted
    = None);
  check "out-of-hull position fires" true
    (Watchdog.check w ~round:2
       ~states:[ (0, 0) ]
       ~corrupted:no_corrupted
    <> None)

let test_grade_consistency_direct () =
  let w =
    Fault_watchdogs.grade_consistency ~grades_of:Fun.id ~pp_value:Fun.id ()
  in
  check "agreeing grade-2 values pass" true
    (Watchdog.check w ~round:1
       ~states:[ (0, [ (0, "x") ]); (1, [ (0, "x") ]) ]
       ~corrupted:no_corrupted
    = None);
  check "conflicting grade-2 values fire" true
    (Watchdog.check w ~round:2
       ~states:[ (0, [ (0, "x") ]); (1, [ (0, "y") ]) ]
       ~corrupted:no_corrupted
    <> None)

(* ------------------------------------------------------------------ *)
(* structured outcomes *)

let test_liveness_timeout_structure () =
  match
    Engine.run_outcome ~n:5 ~t:1 ~seed:0 ~max_rounds:1
      ~protocol:
        (Tree_aa.protocol ~tree:tree5 ~inputs:(fun i -> inputs5.(i)) ~t:1)
      ~adversary:(Adversary.passive "none") ()
  with
  | Outcome.Liveness_timeout { report; undecided; reason } as o ->
      check_string "label" "liveness-timeout" (Outcome.label o);
      check "all five parties undecided" true (undecided = [ 0; 1; 2; 3; 4 ]);
      check "reason is human-readable" true (String.length reason > 0);
      check_int "partial report saw the budget" 1 report.Report.rounds_used;
      check "no outputs in the partial report" true (report.Report.outputs = [])
  | o -> Alcotest.failf "expected a liveness timeout, got %s" (Outcome.label o)

let unit_check (_ : _ Report.t) =
  { Verdict.termination = true; validity = true; agreement = true }

let test_runner_contains_check_error () =
  let runner =
    Runner.of_protocol ~name:"boom" ~n:5 ~t:1
      ~max_rounds:(Tree_aa.rounds ~tree:tree5)
      ~protocol:(fun () ->
        Tree_aa.protocol ~tree:tree5 ~inputs:(fun i -> inputs5.(i)) ~t:1)
      ~adversary:(fun () -> Adversary.passive "none")
      ~check:(fun _ -> failwith "verdict checker exploded")
      ()
  in
  let o = runner.Runner.run ~seed:0 () in
  (match o.Runner.status with
  | Runner.Errored { stage; exn_text } ->
      check_string "stage" "check" stage;
      check "exception text captured" true (String.length exn_text > 0)
  | _ -> Alcotest.fail "expected Errored status");
  check_string "label" "engine-error" (Runner.status_label o.Runner.status);
  check "errored runs are not ok" false (Runner.ok o)

let test_runner_contains_engine_error () =
  let exploding () =
    {
      (Adversary.passive "exploding") with
      Adversary.passive = false;
      (* the [passive] flag must be dropped along with the no-op hook:
         engines skip a passive adversary's hooks entirely *)
      corrupt_more = (fun _ -> failwith "adversary exploded");
    }
  in
  let runner =
    Runner.of_protocol ~name:"boom" ~n:5 ~t:1
      ~max_rounds:(Tree_aa.rounds ~tree:tree5)
      ~protocol:(fun () ->
        Tree_aa.protocol ~tree:tree5 ~inputs:(fun i -> inputs5.(i)) ~t:1)
      ~adversary:exploding ~check:unit_check ()
  in
  let o = runner.Runner.run ~seed:0 () in
  match o.Runner.status with
  | Runner.Errored { stage; _ } -> check_string "stage" "engine" stage
  | _ -> Alcotest.fail "expected Errored status"

(* ------------------------------------------------------------------ *)
(* grading rules *)

let failed = { Verdict.termination = false; validity = true; agreement = true }

let test_grading_rules () =
  let ok_verdict =
    { Verdict.termination = true; validity = true; agreement = true }
  in
  check "all-ok is Passed whatever the faults" true
    (Verdict.grade ~n:4 ~t:1 ~faulty:3 ~excuse:"irrelevant" ok_verdict
    = Verdict.Passed);
  check "in-model failure is Violated" true
    (Verdict.grade ~n:4 ~t:1 ~faulty:1 failed = Verdict.Violated failed);
  (match Verdict.grade ~n:4 ~t:1 ~faulty:2 failed with
  | Verdict.Excused { verdict; reason } ->
      check "over-budget excusal keeps the verdict" true (verdict = failed);
      check "auto excusal has a reason" true (String.length reason > 0)
  | _ -> Alcotest.fail "faulty > t must excuse");
  (match Verdict.grade ~n:4 ~t:1 ~faulty:0 ~excuse:"lossy plan" failed with
  | Verdict.Excused { reason; _ } ->
      check_string "caller excuse" "lossy plan" reason
  | _ -> Alcotest.fail "caller-supplied excuse must excuse");
  check_string "labels" "passed" (Verdict.graded_label Verdict.Passed);
  check_string "labels" "violated"
    (Verdict.graded_label (Verdict.Violated failed));
  check_string "labels" "excused"
    (Verdict.graded_label (Verdict.Excused { reason = "r"; verdict = failed }))

let test_timeout_excusal_through_runner () =
  (* The liveness-excusal rule: a timeout under an active fault plan is
     excused; the same timeout with no faults in play stays Violated. *)
  let runner fault_plan =
    Runner.of_protocol ~name:"stall" ~n:5 ~t:1 ~max_rounds:1 ~fault_plan
      ~protocol:(fun () ->
        Tree_aa.protocol ~tree:tree5 ~inputs:(fun i -> inputs5.(i)) ~t:1)
      ~adversary:(fun () -> Adversary.passive "none")
      ~check:(fun _ -> failed)
      ()
  in
  let benign = (runner Fault_plan.empty).Runner.run ~seed:0 () in
  check "benign timeout is Violated" true
    (match benign.Runner.grade with Verdict.Violated _ -> true | _ -> false);
  let faulty =
    (runner [ Fault_plan.Crash { party = 0; at_round = 1 } ]).Runner.run
      ~seed:0 ()
  in
  check "timeout under a fault plan is excused" true (Runner.excused faulty)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "faults"
    [
      ( "plan",
        [
          Alcotest.test_case "grammar" `Quick test_plan_io_grammar;
          QCheck_alcotest.to_alcotest prop_plan_io_roundtrip;
          QCheck_alcotest.to_alcotest prop_plan_json_roundtrip;
          Alcotest.test_case "validation" `Quick test_plan_validate;
          Alcotest.test_case "fault classes" `Quick test_plan_classes;
        ] );
      ( "inject",
        [
          Alcotest.test_case "deterministic in seed" `Quick
            test_inject_deterministic;
          Alcotest.test_case "async-only faults inert under sync" `Quick
            test_async_only_faults_inert_under_sync;
        ] );
      ( "crash-differential",
        [
          QCheck_alcotest.to_alcotest prop_crash_differential_sync;
          QCheck_alcotest.to_alcotest prop_crash_differential_async;
          Alcotest.test_case "runner: crash within budget" `Quick
            test_crash_runner_within_budget;
        ] );
      ( "async-faults",
        [
          Alcotest.test_case "delay clamped below patience" `Quick
            test_delay_never_exceeds_patience;
          Alcotest.test_case "laggards + omission compose" `Quick
            test_laggards_omission_compose;
        ] );
      ( "watchdogs",
        [
          Alcotest.test_case "benign run unchanged" `Quick
            test_watchdogs_benign_zero_cost;
          Alcotest.test_case "catalog costs O(n) words a round" `Quick
            test_watchdogs_allocate_per_party;
          Alcotest.test_case "corruption budget fires" `Quick
            test_corruption_budget_fires;
          Alcotest.test_case "spread non-expansion" `Quick
            test_spread_non_expansion_direct;
          Alcotest.test_case "hull containment" `Quick
            test_hull_containment_direct;
          Alcotest.test_case "grade consistency" `Quick
            test_grade_consistency_direct;
        ] );
      ( "outcomes",
        [
          Alcotest.test_case "liveness timeout structure" `Quick
            test_liveness_timeout_structure;
          Alcotest.test_case "check errors contained" `Quick
            test_runner_contains_check_error;
          Alcotest.test_case "engine errors contained" `Quick
            test_runner_contains_engine_error;
        ] );
      ( "grading",
        [
          Alcotest.test_case "grade rules" `Quick test_grading_rules;
          Alcotest.test_case "timeout excusal via runner" `Quick
            test_timeout_excusal_through_runner;
        ] );
    ]

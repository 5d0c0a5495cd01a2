(* Exercises the public umbrella API (library [treeagree]) exactly the way
   the README and examples do — guards against the facade drifting from the
   internals. *)

open Treeagree

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_quick_agree_readme_snippet () =
  let tree = Tree.of_labeled_edges [ ("a", "b"); ("b", "c"); ("c", "d") ] in
  let inputs = [| 0; 3; 1; 2; 0; 3; 1 |] in
  let outcome =
    Quick.agree ~tree ~inputs ~t:2
      ~adversary:(Strategies.silent ~victims:[ 5; 6 ])
      ()
  in
  check "verdict" true (Verdict.all_ok outcome.verdict);
  check_int "five honest outputs" 5 (List.length outcome.outputs);
  check_int "labels match outputs" 5
    (List.length (Quick.output_labels tree outcome));
  List.iter
    (fun (_, label) -> check "label exists" true (Tree.mem_label tree label))
    (Quick.output_labels tree outcome)

let test_quick_agree_default_adversary () =
  let tree = Generate.star 20 in
  let inputs = [| 1; 5; 9; 13 |] in
  let outcome = Quick.agree ~tree ~inputs ~t:1 () in
  check "verdict" true (Verdict.all_ok outcome.verdict);
  check_int "rounds = schedule" (Tree_aa.rounds ~tree) outcome.rounds

let test_umbrella_names_cover_the_stack () =
  (* touch one entry point per re-exported module group *)
  let rng = Rng.create 1 in
  let tree = Generate.random rng 12 in
  let rooted = Rooted.make tree in
  let tour = Euler_tour.compute rooted in
  let lca = Lca.build tour in
  check_int "lca of root" (Tree.root tree) (Lca.query lca (Tree.root tree) 5);
  let hull = Convex_hull.compute rooted [ 2; 7 ] in
  check "hull nonempty" true (Convex_hull.size hull >= 1);
  check "prufer count" true (Prufer.count ~n:5 = 125);
  check "rounds formula" true (Rounds.bdh_rounds ~range:100. ~eps:1. > 0);
  check "fekete" true (Fekete.min_rounds ~n:10 ~t:3 ~d:100. ~eps:1. >= 1);
  check "chain" true
    (List.length (Chain.one_round_chain ~n:4 ~t:1 ~a:0. ~b:1.) = 5);
  check "closest int" true (Closest_int.closest_int 1.6 = 2);
  check "trim" true (Trim.trimmed_mean ~t:1 [ 1.; 2.; 3. ] = Some 2.);
  let ring = Auth.Keyring.setup ~n:3 in
  check "auth" true (Auth.signer (Auth.sign (Auth.Keyring.key ring 1) "x") = 1);
  check "tree io" true
    (Tree.equal tree (Tree_io.of_edge_list (Tree_io.to_edge_list tree)));
  check "metrics" true (Metrics.diameter tree >= 1)

let test_async_entry_points () =
  (* the asynchronous model, via the umbrella names only *)
  let fifo () = Async_engine.passive "fifo" in
  let bcast =
    Async_engine.run ~n:4 ~t:1
      ~reactor:(Bracha.reactor ~sender:0 ~inputs:(fun _ -> 7) ~t:1)
      ~adversary:(fifo ()) ()
  in
  check_int "bracha: all deliver" 4 (List.length bcast.Report.outputs);
  List.iter
    (fun (_, v) -> check_int "bracha: sender's value" 7 v)
    bcast.Report.outputs;
  let aa =
    Async_engine.run ~n:4 ~t:1
      ~reactor:
        (Async_aa.real ~inputs:(fun i -> float_of_int (10 * i)) ~t:1
           ~iterations:3)
      ~adversary:(fifo ()) ()
  in
  check_int "async real AA: all decide" 4 (List.length aa.Report.outputs);
  let tree = Generate.path 8 in
  let nr =
    Async_engine.run ~n:4 ~t:1
      ~reactor:
        (Async_aa.tree ~tree
           ~inputs:(fun i -> 2 * i)
           ~t:1
           ~iterations:(Nr_baseline.iterations_for tree))
      ~adversary:(fifo ()) ()
  in
  List.iter
    (fun (_, (r : Tree.vertex Async_aa.result)) ->
      check "async tree AA: vertex output" true
        (r.Async_aa.value >= 0 && r.Async_aa.value < Tree.n_vertices tree))
    nr.Report.outputs

let test_adversary_entry_points () =
  (* every adversary module reachable under its umbrella name *)
  let tree = Generate.star 10 in
  let inputs = [| 3; 5; 7; 9 |] in
  let outcome =
    Quick.agree ~tree ~inputs ~t:1
      ~adversary:(Strategies.random_silent ~count:1) ()
  in
  check "random-silent verdict" true (Verdict.all_ok outcome.verdict);
  let crashed =
    Quick.agree ~tree ~inputs ~t:1
      ~adversary:(Strategies.crash ~at_round:2 ~victims:[ 0 ]) ()
  in
  check "crash verdict" true (Verdict.all_ok crashed.verdict);
  Alcotest.(check (list int)) "spoiler corruption set" [ 8; 9 ]
    (Spoiler.parties_of ~n:10 ~t:2);
  (* constructing the wedges and a phased composition is the smoke test:
     their wire types must keep matching the protocols' *)
  let (_ : float Adversary.t) = Wedge.naive_wedge () in
  let (_ : float Gradecast.Multi.msg Adversary.t) = Wedge.gradecast_wedge () in
  let (_ : (int, int) Composed.msg Adversary.t) =
    Compose_adversary.phased ~name:"both-silent" ~barrier:3
      ~first:(Strategies.silent ~victims:[ 3 ])
      ~second:(Strategies.silent ~victims:[ 3 ])
  in
  ()

let test_runtime_entry_points () =
  (* the shared runtime substrate, via the umbrella names only *)
  check_int "defaults: max_rounds" ((4 * 9) + 64) (Defaults.max_rounds ~n:9);
  check_int "defaults: patience" (8 * 9 * 9) (Defaults.patience ~n:9);
  let mb = Mailbox.create ~n:3 in
  Mailbox.post mb { Types.src = 0; dst = 1; body = "hi" };
  Mailbox.post mb { Types.src = 0; dst = 1; body = "dup" };
  Alcotest.(check (list (pair int string)))
    "mailbox dedups per pair" [ (0, "hi") ]
    (List.map
       (fun (e : string Types.envelope) -> (e.Types.sender, e.Types.payload))
       (Inbox.to_list (Mailbox.inbox mb 1)));
  (* both engines return the one report type: a sync report is readable
     through [Report], and a sync protocol runs under the async engine via
     [Round_sim] with identical honest outputs *)
  let inputs = (fun i -> float_of_int (3 * i)) in
  let protocol = Real_aa.protocol ~inputs ~t:1 ~iterations:2 () in
  let sync =
    Engine.run ~n:4 ~t:1 ~protocol ~adversary:(Adversary.passive "none") ()
  in
  check "report engine tag" true (String.equal sync.Report.engine "sync");
  check_int "report finally honest" 4 (Report.finally_honest sync);
  let async =
    Async_engine.run ~n:4 ~t:1
      ~reactor:(Round_sim.reactor_of_protocol protocol)
      ~adversary:(Async_engine.passive "fifo") ()
  in
  check "report engine tag (async)" true
    (String.equal async.Report.engine "async");
  let values outs = List.map (fun (p, (r : Real_aa.result)) -> (p, r.Real_aa.value)) outs in
  Alcotest.(check (list (pair int (float 1e-9))))
    "differential: identical honest outputs" (values sync.Report.outputs)
    (values (List.map (fun (p, (o, _)) -> (p, o)) async.Report.outputs));
  (* any sync adversary strategy runs against the async engine unchanged *)
  let lifted =
    Async_engine.with_scheduler ~scheduler:Async_engine.Fifo
      (Strategies.silent ~victims:[ 3 ])
  in
  let silenced =
    Async_engine.run ~n:4 ~t:1
      ~reactor:(Bracha.reactor ~sender:0 ~inputs:(fun _ -> 7) ~t:1)
      ~adversary:lifted ()
  in
  Alcotest.(check (list int))
    "lifted strategy corrupts" [ 3 ] silenced.Report.corrupted;
  check_int "honest parties still decide" 3
    (List.length silenced.Report.outputs)

let test_telemetry_entry_points () =
  let stats = Telemetry.Stats.create () in
  let tree = Generate.path 6 in
  let outcome =
    Quick.agree ~tree ~inputs:[| 0; 5; 2; 4 |] ~t:1
      ~telemetry:(Telemetry.Stats.sink stats) ()
  in
  check_int "stats counted the run" outcome.report.Report.honest_messages
    (Telemetry.Stats.total_honest stats);
  check "null sink is recognisable" true
    (Telemetry.Sink.is_null Telemetry.Sink.null)

let test_report_fields_accessible () =
  let tree = Generate.path 20 in
  let inputs = [| 0; 19; 7; 12 |] in
  let outcome =
    Quick.agree ~tree ~inputs ~t:1 ~adversary:(Strategies.silent ~victims:[ 3 ]) ()
  in
  let report = outcome.report in
  check "messages counted" true (report.Report.honest_messages > 0);
  Alcotest.(check (list int)) "corrupted" [ 3 ] report.Report.corrupted;
  check "termination rounds recorded" true
    (List.length report.Report.termination_rounds = 3)

let () =
  Alcotest.run "public-api"
    [
      ( "quick",
        [
          Alcotest.test_case "README snippet" `Quick
            test_quick_agree_readme_snippet;
          Alcotest.test_case "default adversary" `Quick
            test_quick_agree_default_adversary;
          Alcotest.test_case "umbrella coverage" `Quick
            test_umbrella_names_cover_the_stack;
          Alcotest.test_case "report fields" `Quick test_report_fields_accessible;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "async entry points" `Quick
            test_async_entry_points;
          Alcotest.test_case "adversary entry points" `Quick
            test_adversary_entry_points;
          Alcotest.test_case "runtime entry points" `Quick
            test_runtime_entry_points;
          Alcotest.test_case "telemetry entry points" `Quick
            test_telemetry_entry_points;
        ] );
    ]

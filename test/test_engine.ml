(* Tests for the synchronous engine: delivery, termination, authenticated
   channels, adaptive corruption budget, composition, determinism. *)

open Aat_engine

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A one-round protocol: broadcast own id, output the sorted list of sender
   ids heard. *)
type gather_state = { self : int; n : int; heard : int list option }

let gather : (gather_state, int, int list) Protocol.t =
  {
    name = "gather";
    init = (fun ~self ~n -> { self; n; heard = None });
    send =
      (fun ~round ~self st ->
        if round = 1 then List.init st.n (fun p -> (p, self)) else []);
    receive =
      (fun ~round:_ ~self:_ ~inbox st ->
        { st with heard = Some (List.map (fun (e : int Types.envelope) -> e.payload) inbox) });
    output = (fun st -> st.heard);
  }

(* A protocol that never decides — for the max_rounds test. *)
let never : (unit, int, unit) Protocol.t =
  {
    name = "never";
    init = (fun ~self:_ ~n:_ -> ());
    send = (fun ~round:_ ~self:_ () -> []);
    receive = (fun ~round:_ ~self:_ ~inbox:_ () -> ());
    output = (fun () -> None);
  }

(* A protocol that decides at init (zero rounds). *)
let instant : (unit, int, int) Protocol.t =
  {
    name = "instant";
    init = (fun ~self:_ ~n:_ -> ());
    send = (fun ~round:_ ~self:_ () -> []);
    receive = (fun ~round:_ ~self:_ ~inbox:_ () -> ());
    output = (fun () -> Some 42);
  }

(* Runs [k] rounds of echoing before deciding; used for composition. *)
let countdown k : (int, int, int) Protocol.t =
  {
    name = Printf.sprintf "countdown%d" k;
    init = (fun ~self:_ ~n:_ -> k);
    send = (fun ~round:_ ~self st -> if st > 0 then [ (self, 0) ] else []);
    receive = (fun ~round:_ ~self:_ ~inbox:_ st -> st - 1);
    output = (fun st -> if st <= 0 then Some k else None);
  }

let test_gather_no_faults () =
  let report =
    Sync_engine.run ~n:5 ~t:0 ~protocol:gather
      ~adversary:(Adversary.passive "none") ()
  in
  check_int "rounds" 1 report.rounds_used;
  check_int "honest outputs" 5 (List.length report.outputs);
  List.iter
    (fun senders -> Alcotest.(check (list int)) "all heard" [ 0; 1; 2; 3; 4 ] senders)
    (Sync_engine.honest_outputs report);
  check_int "messages" 25 report.honest_messages

let test_gather_with_silent () =
  let report =
    Sync_engine.run ~n:7 ~t:2 ~protocol:gather
      ~adversary:(Aat_adversary.Strategies.silent ~victims:[ 5; 6 ]) ()
  in
  check_int "honest outputs" 5 (List.length report.outputs);
  List.iter
    (fun senders ->
      Alcotest.(check (list int)) "silent missing" [ 0; 1; 2; 3; 4 ] senders)
    (Sync_engine.honest_outputs report);
  Alcotest.(check (list int)) "corrupted" [ 5; 6 ] report.corrupted

let test_forgery_rejected () =
  let forger =
    Adversary.static ~name:"forger"
      ~pick:(fun ~n:_ ~t:_ _ -> [ 3 ])
      ~deliver:(fun view ->
        if view.Adversary.round = 1 then
          (* claims to be honest party 0 *)
          [ { Types.src = 0; dst = 1; body = 99 }; { Types.src = 3; dst = 1; body = 77 } ]
        else [])
  in
  let report = Sync_engine.run ~n:4 ~t:1 ~protocol:gather ~adversary:forger () in
  check_int "one forgery rejected" 1 report.rejected_forgeries;
  check_int "one byz message accepted" 1 report.adversary_messages;
  (* party 1 heard honest 0,1,2 plus byz 3's 77 — but not the forged 99 *)
  let p1 = Sync_engine.output_of report 1 in
  Alcotest.(check (list int)) "inbox senders" [ 0; 1; 2; 77 ] p1

let test_corruption_budget_capped () =
  let greedy =
    Adversary.static ~name:"greedy"
      ~pick:(fun ~n:_ ~t:_ _ -> [ 0; 1; 2; 3 ])
      ~deliver:(fun _ -> [])
  in
  let report = Sync_engine.run ~n:5 ~t:2 ~protocol:gather ~adversary:greedy () in
  check_int "only t corrupted" 2 (List.length report.corrupted)

let test_adaptive_corruption_budget () =
  let adaptive =
    {
      Adversary.name = "adaptive-greedy";
      passive = false;
      reads_history = false;
      initial_corruptions = (fun ~n:_ ~t:_ _ -> [ 0 ]);
      corrupt_more = (fun view -> if view.Adversary.round = 1 then [ 1; 2; 3 ] else []);
      deliver = (fun _ -> []);
    }
  in
  let report = Sync_engine.run ~n:5 ~t:2 ~protocol:gather ~adversary:adaptive () in
  Alcotest.(check (list int)) "capped at t" [ 0; 1 ] report.corrupted

let test_crash_retracts_current_round () =
  (* Victim crashes in round 1: its messages for round 1 are retracted, so
     nobody hears it. *)
  let report =
    Sync_engine.run ~n:4 ~t:1 ~protocol:gather
      ~adversary:(Aat_adversary.Strategies.crash ~at_round:1 ~victims:[ 3 ]) ()
  in
  List.iter
    (fun senders -> Alcotest.(check (list int)) "crashed silent" [ 0; 1; 2 ] senders)
    (Sync_engine.honest_outputs report)

let test_max_rounds () =
  check "raises" true
    (try
       ignore
         (Sync_engine.run ~n:3 ~t:0 ~max_rounds:5 ~protocol:never
            ~adversary:(Adversary.passive "none") ());
       false
     with Sync_engine.Exceeded_max_rounds _ -> true)

let test_zero_round_output () =
  let report =
    Sync_engine.run ~n:3 ~t:0 ~protocol:instant
      ~adversary:(Adversary.passive "none") ()
  in
  check_int "no rounds" 0 report.rounds_used;
  Alcotest.(check (list int)) "outputs" [ 42; 42; 42 ] (Sync_engine.honest_outputs report)

let test_invalid_params () =
  check "n=0" true
    (try ignore (Sync_engine.run ~n:0 ~t:0 ~protocol:instant ~adversary:(Adversary.passive "x") ()); false
     with Invalid_argument _ -> true);
  check "t=n" true
    (try ignore (Sync_engine.run ~n:3 ~t:3 ~protocol:instant ~adversary:(Adversary.passive "x") ()); false
     with Invalid_argument _ -> true)

let test_sequential_composition () =
  let composed =
    Protocol.sequential ~name:"two-phase" ~first:(countdown 2) ~rounds_of_first:2
      ~second:(fun o1 -> Protocol.map_output (fun o2 -> (o1, o2)) (countdown 3))
  in
  let report =
    Sync_engine.run ~n:4 ~t:0 ~protocol:composed
      ~adversary:(Adversary.passive "none") ()
  in
  check_int "total rounds" 5 report.rounds_used;
  List.iter
    (fun (a, b) ->
      check_int "first output" 2 a;
      check_int "second output" 3 b)
    (Sync_engine.honest_outputs report)

let test_sequential_barrier_failure () =
  (* first phase needs 3 rounds but the barrier is set at 2: must fail *)
  let composed =
    Protocol.sequential ~name:"bad-barrier" ~first:(countdown 3)
      ~rounds_of_first:2 ~second:(fun _ -> countdown 1)
  in
  check "fails at barrier" true
    (try
       ignore
         (Sync_engine.run ~n:3 ~t:0 ~protocol:composed
            ~adversary:(Adversary.passive "none") ());
       false
     with Failure _ -> true)

let test_sequential_messages_segregated () =
  (* A Byzantine party injects phase-2 messages during phase 1; they must be
     filtered out by the composition. *)
  let composed =
    Protocol.sequential ~name:"seg" ~first:gather ~rounds_of_first:1
      ~second:(fun _senders -> gather)
  in
  let inject =
    Adversary.static ~name:"inject"
      ~pick:(fun ~n:_ ~t:_ _ -> [ 4 ])
      ~deliver:(fun view ->
        let m =
          if view.Adversary.round = 1 then Composed.M2 7 else Composed.M1 7
        in
        List.init view.Adversary.n (fun dst -> { Types.src = 4; dst; body = m }))
  in
  let report = Sync_engine.run ~n:5 ~t:1 ~protocol:composed ~adversary:inject () in
  (* Phase 1 sees only M1 messages: the M2-injected ones disappear; phase 2
     rejects the M1 ones. Honest parties heard each other (0..3) in both
     phases; in phase 2 byz sent M1 which is dropped. *)
  List.iter
    (fun senders -> Alcotest.(check (list int)) "m2 filtered" [ 0; 1; 2; 3 ] senders)
    (Sync_engine.honest_outputs report)

let test_determinism () =
  let run () =
    Sync_engine.run ~n:6 ~t:1 ~seed:99 ~protocol:gather
      ~adversary:(Aat_adversary.Strategies.random_silent ~count:1) ()
  in
  let a = run () and b = run () in
  check "same corrupted" true (a.corrupted = b.corrupted);
  check "same outputs" true (a.outputs = b.outputs)

let test_rushing_view () =
  (* The adversary echoes each honest round-1 message back in the same
     round, proving it saw the outbox before delivery. *)
  let echoer =
    Adversary.static ~name:"rush"
      ~pick:(fun ~n:_ ~t:_ _ -> [ 2 ])
      ~deliver:(fun view ->
        List.filter_map
          (fun (l : int Types.letter) ->
            if l.dst = 2 then Some { Types.src = 2; dst = l.src; body = l.body + 100 }
            else None)
          view.Adversary.honest_outbox)
  in
  let report = Sync_engine.run ~n:3 ~t:1 ~protocol:gather ~adversary:echoer () in
  (* party 0 hears: 0 (self), 1 (honest), and 100 + 0 (its own id echoed) *)
  Alcotest.(check (list int)) "echoed back" [ 0; 1; 100 ] (Sync_engine.output_of report 0)

let test_verdict_real () =
  let v =
    Verdict.real ~eps:0.5 ~n_honest:3 ~honest_inputs:[ 0.; 1.; 2. ]
      ~honest_outputs:[ 1.0; 1.2; 1.4 ]
  in
  check "ok" true (Verdict.all_ok v);
  let v2 =
    Verdict.real ~eps:0.1 ~n_honest:3 ~honest_inputs:[ 0.; 1.; 2. ]
      ~honest_outputs:[ 1.0; 1.2; 1.4 ]
  in
  check "agreement violated" false v2.agreement;
  check "validity still ok" true v2.validity;
  let v3 =
    Verdict.real ~eps:1. ~n_honest:3 ~honest_inputs:[ 0.; 1. ]
      ~honest_outputs:[ 1.5 ]
  in
  check "termination violated" false v3.termination;
  check "validity violated" false v3.validity

let test_verdict_spread () =
  Alcotest.(check (float 1e-9)) "spread" 2.5 (Verdict.spread [ 1.; 3.5; 2. ]);
  Alcotest.(check (float 1e-9)) "empty" 0. (Verdict.spread [])

let test_trace_agrees_with_telemetry () =
  (* record_trace and the telemetry sink are two views of the same delivery:
     each recorded round's letter count must equal the sink's [delivered_msgs]
     for that round. The adversary double-sends to one destination so the
     per-(src,dst) dedup actually bites: submissions > deliveries. *)
  let doubler =
    Adversary.static ~name:"doubler"
      ~pick:(fun ~n:_ ~t:_ _ -> [ 3 ])
      ~deliver:(fun view ->
        if view.Adversary.round <= 2 then
          [
            { Types.src = 3; dst = 0; body = 9 };
            { Types.src = 3; dst = 0; body = 8 };
          ]
        else [])
  in
  let stats = Aat_telemetry.Telemetry.Stats.create () in
  let report =
    Sync_engine.run ~n:4 ~t:1 ~record_trace:true
      ~telemetry:(Aat_telemetry.Telemetry.Stats.sink stats)
      ~protocol:(countdown 3) ~adversary:doubler ()
  in
  let events = Aat_telemetry.Telemetry.Stats.events stats in
  check_int "one event per recorded round" (List.length report.trace)
    (List.length events);
  List.iter2
    (fun row (e : Aat_telemetry.Telemetry.event) ->
      check_int "trace row length = delivered_msgs" (List.length row)
        e.delivered_msgs)
    report.trace events;
  (* both submitted letters count against the adversary (2 per round for 2
     rounds), but only one per (src,dst) is delivered — the first two events
     must show submissions exceeding deliveries by exactly the duplicate *)
  check_int "submissions all counted" 4 report.adversary_messages;
  List.iteri
    (fun i (e : Aat_telemetry.Telemetry.event) ->
      if i < 2 then
        check_int "one duplicate dropped"
          (e.honest_msgs + e.adversary_msgs - 1)
          e.delivered_msgs)
    events;
  check_int "sink saw the same honest total" report.honest_messages
    (Aat_telemetry.Telemetry.Stats.total_honest stats);
  check_int "sink saw the same adversary total" report.adversary_messages
    (Aat_telemetry.Telemetry.Stats.total_adversary stats)

let test_corruption_rounds_recorded () =
  (* initial corruption is stamped round 0; adaptive corruption with the
     round it happened — the distinction Validity-under-adaptivity needs *)
  let r1 =
    Sync_engine.run ~n:4 ~t:1 ~protocol:gather
      ~adversary:(Aat_adversary.Strategies.silent ~victims:[ 3 ]) ()
  in
  check "initial is round 0" true (r1.corruption_rounds = [ (3, 0) ]);
  Alcotest.(check (list int)) "initially corrupted" [ 3 ]
    (Sync_engine.initially_corrupted r1);
  let r2 =
    Sync_engine.run ~n:4 ~t:1 ~protocol:(countdown 3)
      ~adversary:(Aat_adversary.Strategies.crash ~at_round:2 ~victims:[ 1 ]) ()
  in
  check "adaptive stamped with its round" true (r2.corruption_rounds = [ (1, 2) ]);
  Alcotest.(check (list int)) "not initially corrupted" []
    (Sync_engine.initially_corrupted r2)

let () =
  Alcotest.run "engine"
    [
      ( "delivery",
        [
          Alcotest.test_case "gather fault-free" `Quick test_gather_no_faults;
          Alcotest.test_case "gather with silent byz" `Quick
            test_gather_with_silent;
          Alcotest.test_case "forgery rejected" `Quick test_forgery_rejected;
          Alcotest.test_case "rushing view" `Quick test_rushing_view;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "budget capped" `Quick
            test_corruption_budget_capped;
          Alcotest.test_case "adaptive budget" `Quick
            test_adaptive_corruption_budget;
          Alcotest.test_case "crash retracts round" `Quick
            test_crash_retracts_current_round;
          Alcotest.test_case "corruption rounds recorded" `Quick
            test_corruption_rounds_recorded;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "trace agrees with telemetry" `Quick
            test_trace_agrees_with_telemetry;
        ] );
      ( "termination",
        [
          Alcotest.test_case "max rounds" `Quick test_max_rounds;
          Alcotest.test_case "zero-round output" `Quick test_zero_round_output;
          Alcotest.test_case "invalid params" `Quick test_invalid_params;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
      ( "composition",
        [
          Alcotest.test_case "sequential" `Quick test_sequential_composition;
          Alcotest.test_case "barrier failure" `Quick
            test_sequential_barrier_failure;
          Alcotest.test_case "message segregation" `Quick
            test_sequential_messages_segregated;
        ] );
      ( "verdict",
        [
          Alcotest.test_case "real AA verdicts" `Quick test_verdict_real;
          Alcotest.test_case "spread" `Quick test_verdict_spread;
        ] );
    ]

(* Tests for the synchronous engine: delivery, termination, authenticated
   channels, adaptive corruption budget, composition, determinism. *)

open Aat_engine
module Report = Aat_runtime.Report

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
        Protocol.To (if round = 1 then List.init st.n (fun p -> (p, self)) else []));
    receive =
      (fun ~round:_ ~self:_ ~inbox st ->
        let inbox = Inbox.to_list inbox in
        { st with heard = Some (List.map (fun (e : int Types.envelope) -> e.payload) inbox) });
    output = (fun st -> st.heard);
  }

(* A protocol that never decides — for the max_rounds test. *)
let never : (unit, int, unit) Protocol.t =
  {
    name = "never";
    init = (fun ~self:_ ~n:_ -> ());
    send = (fun ~round:_ ~self:_ () -> Protocol.To []);
    receive = (fun ~round:_ ~self:_ ~inbox:_ () -> ());
    output = (fun () -> None);
  }

(* A protocol that decides at init (zero rounds). *)
let instant : (unit, int, int) Protocol.t =
  {
    name = "instant";
    init = (fun ~self:_ ~n:_ -> ());
    send = (fun ~round:_ ~self:_ () -> Protocol.To []);
    receive = (fun ~round:_ ~self:_ ~inbox:_ () -> ());
    output = (fun () -> Some 42);
  }

(* Runs [k] rounds of echoing before deciding; used for composition. *)
let countdown k : (int, int, int) Protocol.t =
  {
    name = Printf.sprintf "countdown%d" k;
    init = (fun ~self:_ ~n:_ -> k);
    send =
      (fun ~round:_ ~self st -> Protocol.To (if st > 0 then [ (self, 0) ] else []));
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
    (Report.honest_outputs report);
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
    (Report.honest_outputs report);
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
  let p1 = Report.output_of report 1 in
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
    (Report.honest_outputs report)

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
  Alcotest.(check (list int)) "outputs" [ 42; 42; 42 ] (Report.honest_outputs report)

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
    (Report.honest_outputs report)

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
    (Report.honest_outputs report)

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
          (Lazy.force view.Adversary.honest_outbox))
  in
  let report = Sync_engine.run ~n:3 ~t:1 ~protocol:gather ~adversary:echoer () in
  (* party 0 hears: 0 (self), 1 (honest), and 100 + 0 (its own id echoed) *)
  Alcotest.(check (list int)) "echoed back" [ 0; 1; 100 ] (Report.output_of report 0)

(* --- outboxes and inboxes --- *)

(* Every party names party 0 twice in one [To] outbox, 100 + self first
   and 200 + self second, and outputs the payloads it received. *)
let twice : (int list option, int, int list) Protocol.t =
  {
    name = "twice";
    init = (fun ~self:_ ~n:_ -> None);
    send =
      (fun ~round:_ ~self _ ->
        Protocol.To [ (0, 100 + self); (1, self); (0, 200 + self) ]);
    receive =
      (fun ~round:_ ~self:_ ~inbox _ ->
        Some
          (List.map
             (fun (e : int Types.envelope) -> e.payload)
             (Inbox.to_list inbox)));
    output = Fun.id;
  }

let test_duplicate_recipient_first_wins () =
  let first = [ 100; 101; 102 ] in
  let sync adversary =
    Sync_engine.run ~n:3 ~t:0 ~protocol:twice ~adversary ()
  in
  (* sends nothing, like the passive adversary, but does not declare it *)
  let idle =
    Adversary.static ~name:"idle" ~pick:(fun ~n:_ ~t:_ _ -> []) ~deliver:(fun _ -> [])
  in
  List.iter
    (fun (path, report) ->
      Alcotest.(check (list int))
        (path ^ ": first letter to p0 wins")
        first (Report.output_of report 0);
      Alcotest.(check (list int))
        (path ^ ": p1 unaffected") [ 0; 1; 2 ] (Report.output_of report 1);
      check_int (path ^ ": every letter counts as sent") 9
        report.honest_messages)
    [ ("passive", sync (Adversary.passive "none")); ("idle", sync idle) ];
  let lifted =
    Aat_async.Async_engine.run ~n:3 ~t:0
      ~reactor:(Aat_async.Round_sim.reactor_of_protocol twice)
      ~adversary:(Aat_async.Async_engine.passive "fifo") ()
  in
  Alcotest.(check (list int))
    "round-sim: first letter to p0 wins" first
    (fst (List.assoc 0 lifted.Report.outputs))

(* The same protocol with its broadcasts spelled out as [To] lists: the
   engine must not tell the two apart, on either send path, under any
   fault draw. *)
let explicit ~n (p : ('s, 'm, 'o) Protocol.t) =
  {
    p with
    Protocol.send =
      (fun ~round ~self s ->
        Protocol.To (Protocol.outbox_to_list ~n (p.send ~round ~self s)));
  }

let prop_outbox_forms_agree =
  QCheck2.Test.make ~name:"To_all m = To [(0, m); ...; (n-1, m)]" ~count:150
    QCheck2.Gen.(
      quad (int_bound 1_000_000) (int_range 4 10) (int_range 0 2)
        (int_range 0 30))
    (fun (seed, n, adv_class, omission) ->
      let t = (n - 1) / 3 in
      let rng = Aat_util.Rng.create seed in
      let inputs = Array.init n (fun _ -> float_of_int (Aat_util.Rng.int rng 100)) in
      let at_round = 1 + Aat_util.Rng.int rng 6 in
      let protocol =
        Aat_realaa.Bdh.protocol ~inputs:(fun i -> inputs.(i)) ~t ~iterations:2 ()
      in
      let plan =
        match
          Aat_faults.Plan_io.parse
            (Printf.sprintf "omission:%.2f" (float_of_int omission /. 100.))
        with
        | Ok p -> p
        | Error m -> failwith m
      in
      let run protocol =
        let adversary =
          match adv_class with
          | 0 -> Adversary.passive "none"
          | 1 -> Aat_adversary.Strategies.random_silent ~count:t
          | _ -> Aat_adversary.Strategies.crash ~at_round ~victims:[ 0; n - 1 ]
        in
        let stats = Aat_telemetry.Telemetry.Stats.create () in
        let report =
          Sync_engine.run ~n ~t ~seed ~record_trace:true
            ~telemetry:(Aat_telemetry.Telemetry.Stats.sink stats)
            ~fault_filter:(Aat_faults.Inject.filter ~engine:`Sync ~seed plan)
            ~protocol ~adversary ()
        in
        (report, Aat_telemetry.Telemetry.Stats.events stats)
      in
      let report, events = run protocol
      and report', events' = run (explicit ~n protocol) in
      report = report' && events = events')

(* A protocol that keeps its round-1 inbox and reads it in round 2. *)
let hoarder : (int Inbox.t option, int, int) Protocol.t =
  {
    name = "hoarder";
    init = (fun ~self:_ ~n:_ -> None);
    send = (fun ~round:_ ~self _ -> Protocol.To_all self);
    receive =
      (fun ~round:_ ~self:_ ~inbox -> function
        | None -> Some inbox
        | Some kept ->
            ignore (Inbox.fold (fun acc _ m -> acc + m) 0 kept);
            Some kept);
    output = (fun _ -> None);
  }

let test_stale_inbox_rejected () =
  check "engine raises the mailbox's Invalid_argument" true
    (try
       ignore
         (Sync_engine.run ~n:3 ~t:0 ~max_rounds:3 ~protocol:hoarder
            ~adversary:(Adversary.passive "none") ());
       false
     with Invalid_argument m -> String.starts_with ~prefix:"Mailbox.inbox:" m);
  let runner =
    Aat_campaign.Runner.of_protocol ~name:"hoarder" ~n:3 ~t:0 ~max_rounds:3
      ~protocol:(fun () -> hoarder)
      ~adversary:(fun () -> Adversary.passive "none")
      ~check:(fun _ ->
        { Verdict.termination = true; validity = true; agreement = true })
      ()
  in
  match (runner.Aat_campaign.Runner.run ~seed:0 ()).Aat_campaign.Runner.status with
  | Aat_campaign.Runner.Errored { stage; exn_text } ->
      Alcotest.(check string) "errored at the engine stage" "engine" stage;
      check "raised the mailbox's Invalid_argument" true
        (String.starts_with ~prefix:"Invalid_argument(\"Mailbox.inbox:" exn_text)
  | _ -> Alcotest.fail "a stale inbox read must error the run"

(* A protocol that keeps its round-1 inbox and reads it in round 2's
   [send]. *)
let send_hoarder : (int Inbox.t option, int, int) Protocol.t =
  {
    name = "send-hoarder";
    init = (fun ~self:_ ~n:_ -> None);
    send =
      (fun ~round:_ ~self kept ->
        Option.iter
          (fun inbox -> ignore (Inbox.fold (fun acc _ m -> acc + m) 0 inbox))
          kept;
        Protocol.To_all self);
    receive =
      (fun ~round:_ ~self:_ ~inbox kept ->
        if Option.is_none kept then Some inbox else kept);
    output = (fun _ -> None);
  }

let test_stale_inbox_in_send_rejected () =
  let names_round_2 m =
    String.starts_with ~prefix:"Mailbox.inbox:" m
    && String.ends_with
         ~suffix:"read in round 2 (an inbox is valid only during its round)" m
  in
  List.iter
    (fun (name, adversary) ->
      match
        Sync_engine.run ~n:4 ~t:1 ~max_rounds:2 ~protocol:send_hoarder
          ~adversary ()
      with
      | _ -> Alcotest.failf "%s: the run finished" name
      | exception Sync_engine.Exceeded_max_rounds m ->
          Alcotest.failf "%s: the stale read went unnoticed (%s)" name m
      | exception Invalid_argument m ->
          check (name ^ ": the mailbox names round 2") true (names_round_2 m))
    [
      ("passive", Adversary.passive "none");
      ("random-silent", Aat_adversary.Strategies.random_silent ~count:1);
    ]

(* Stashes its round-1 view and forces that view's honest outbox in
   round 2. *)
let stale_viewer () =
  let stash = ref None in
  Adversary.static ~name:"stale-viewer"
    ~pick:(fun ~n:_ ~t:_ _ -> [ 2 ])
    ~deliver:(fun view ->
      (match !stash with
      | None -> stash := Some view
      | Some old -> ignore (Lazy.force old.Adversary.honest_outbox));
      [])

let test_stale_view_rejected () =
  let engine_error m = String.starts_with ~prefix:"Sync_engine: the round-1 view" m in
  check "engine raises Invalid_argument" true
    (try
       ignore
         (Sync_engine.run ~n:4 ~t:1 ~max_rounds:3 ~protocol:(countdown 3)
            ~adversary:(stale_viewer ()) ());
       false
     with Invalid_argument m -> engine_error m);
  let runner =
    Aat_campaign.Runner.of_protocol ~name:"countdown" ~n:4 ~t:1 ~max_rounds:3
      ~protocol:(fun () -> countdown 3)
      ~adversary:stale_viewer
      ~check:(fun _ ->
        { Verdict.termination = true; validity = true; agreement = true })
      ()
  in
  match (runner.Aat_campaign.Runner.run ~seed:0 ()).Aat_campaign.Runner.status with
  | Aat_campaign.Runner.Errored { stage; exn_text } ->
      Alcotest.(check string) "errored at the engine stage" "engine" stage;
      check "raised the engine's Invalid_argument" true
        (String.starts_with ~prefix:"Invalid_argument(\"Sync_engine: the round-1 view"
           exn_text)
  | _ -> Alcotest.fail "forcing a stale view must error the run"

(* [corrupt_more] stashes its view and corrupts party 1; [deliver] then
   forces both views. The first still lists party 1's retracted letters,
   as when it was made; the second leaves them out. *)
let test_views_around_a_corruption () =
  let first = ref None and seen = ref [] in
  let senders view =
    List.sort_uniq compare
      (List.map (fun (l : int Types.letter) -> l.src) (Lazy.force view.Adversary.honest_outbox))
  in
  let adversary =
    {
      (Adversary.static ~name:"corrupt-1"
         ~pick:(fun ~n:_ ~t:_ _ -> [])
         ~deliver:(fun view ->
           (match !first with
           | Some v when view.Adversary.round = 1 -> seen := [ senders v; senders view ]
           | _ -> ());
           []))
      with
      Adversary.corrupt_more =
        (fun view ->
          if view.Adversary.round = 1 then (first := Some view; [ 1 ]) else []);
    }
  in
  ignore (Sync_engine.run ~n:4 ~t:1 ~protocol:gather ~adversary ());
  Alcotest.(check (list (list int)))
    "first view, then the view after the corruption"
    [ [ 0; 1; 2; 3 ]; [ 0; 2; 3 ] ]
    !seen

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
    (Report.initially_corrupted r1);
  let r2 =
    Sync_engine.run ~n:4 ~t:1 ~protocol:(countdown 3)
      ~adversary:(Aat_adversary.Strategies.crash ~at_round:2 ~victims:[ 1 ]) ()
  in
  check "adaptive stamped with its round" true (r2.corruption_rounds = [ (1, 2) ]);
  Alcotest.(check (list int)) "not initially corrupted" []
    (Report.initially_corrupted r2)

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
          Alcotest.test_case "duplicate recipient: first letter wins" `Quick
            test_duplicate_recipient_first_wins;
          QCheck_alcotest.to_alcotest prop_outbox_forms_agree;
          Alcotest.test_case "stale inbox read is rejected" `Quick
            test_stale_inbox_rejected;
          Alcotest.test_case
            "stale inbox read in send is rejected under any adversary" `Quick
            test_stale_inbox_in_send_rejected;
          Alcotest.test_case "stale view's honest outbox is rejected" `Quick
            test_stale_view_rejected;
          Alcotest.test_case "views before and after a corruption" `Quick
            test_views_around_a_corruption;
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

(* Tests for the unified runtime substrate: shared defaults, the transport
   mailbox, forgery-count parity across both engines, the engine-agnostic
   adversary interface, and differential execution of one protocol text
   under both engines via the round-simulation adapter. *)

open Aat_engine
open Aat_async
open Aat_adversary
module Runtime = Aat_runtime
module Rng = Aat_util.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- fixtures ------------------------------------------------------ *)

(* one-round gather: everyone pings everyone in round 1, decides on its
   sorted round-1 inbox (the synchronous twin of the gather reactor) *)
let gather_protocol : (int * int list option, int, int list) Protocol.t =
  {
    Protocol.name = "gather1";
    init = (fun ~self:_ ~n -> (n, None));
    send =
      (fun ~round ~self (n, _) ->
        Protocol.To (if round = 1 then List.init n (fun p -> (p, self)) else []));
    receive =
      (fun ~round ~self:_ ~inbox (n, got) ->
        let inbox = Runtime.Inbox.to_list inbox in
        if round = 1 then
          ( n,
            Some
              (List.sort compare
                 (List.map (fun (e : int Types.envelope) -> e.payload) inbox))
          )
        else (n, got));
    output = (fun (_, got) -> got);
  }

type gather = { mutable heard : int list }

let gather_reactor ~quota : (gather, int, int list) Async_engine.reactor =
  {
    name = "gather";
    init = (fun ~self ~n -> ({ heard = [] }, List.init n (fun p -> (p, self))));
    on_message =
      (fun ~self:_ e st ->
        st.heard <- e.payload :: st.heard;
        (st, []));
    output =
      (fun st ->
        if List.length st.heard >= quota then
          Some (List.sort compare st.heard)
        else None);
  }

let never_protocol : (unit, int, unit) Protocol.t =
  {
    Protocol.name = "never";
    init = (fun ~self:_ ~n:_ -> ());
    send = (fun ~round:_ ~self:_ () -> Protocol.To []);
    receive = (fun ~round:_ ~self:_ ~inbox:_ () -> ());
    output = (fun () -> None);
  }

(* --- shared defaults ----------------------------------------------- *)

let test_default_formulas () =
  check_int "max_rounds" ((4 * 3) + 64) (Runtime.Defaults.max_rounds ~n:3);
  check_int "patience" (8 * 5 * 5) (Runtime.Defaults.patience ~n:5);
  check "max_events positive" true (Runtime.Defaults.max_events > 0);
  check "stride positive" true (Runtime.Defaults.telemetry_stride > 0)

let test_sync_engine_reads_default_max_rounds () =
  (* no ~max_rounds: the engine must give up after exactly the shared
     default, and say so in the exception *)
  match
    Sync_engine.run ~n:3 ~t:0 ~protocol:never_protocol
      ~adversary:(Adversary.passive "none") ()
  with
  | _ -> Alcotest.fail "never-protocol terminated"
  | exception Sync_engine.Exceeded_max_rounds msg ->
      Alcotest.(check string) "message names the shared default"
        (Printf.sprintf "never: honest party undecided after %d rounds"
           (Runtime.Defaults.max_rounds ~n:3))
        msg

let test_async_engine_reads_default_patience () =
  (* no ~patience: the laggard scheduler starves party 0, the shared
     default must still force its messages through *)
  let report =
    Async_engine.run ~n:5 ~t:0
      ~reactor:(gather_reactor ~quota:5)
      ~adversary:
        (Async_engine.passive ~scheduler:(Async_engine.Laggards [ 0 ]) "lag")
      ()
  in
  check_int "all decided" 5 (List.length report.outputs);
  List.iter
    (fun (_, heard) ->
      Alcotest.(check (list int)) "heard all" [ 0; 1; 2; 3; 4 ] heard)
    report.outputs

(* --- the transport mailbox ----------------------------------------- *)

let letter src dst body = { Types.src; dst; body }

let test_mailbox_dedup_and_inbox_order () =
  let mb : int Runtime.Mailbox.t = Runtime.Mailbox.create ~n:4 in
  Runtime.Mailbox.begin_round ~round:1 mb;
  Runtime.Mailbox.post mb (letter 2 0 20);
  Runtime.Mailbox.post mb (letter 1 0 10);
  Runtime.Mailbox.post mb (letter 2 0 99);
  (* dup pair: dropped *)
  Runtime.Mailbox.post mb (letter 3 1 30);
  Alcotest.(check (list (pair int int)))
    "inbox sorted by sender, one per pair"
    [ (1, 10); (2, 20) ]
    (List.map
       (fun (e : int Types.envelope) -> (e.sender, e.payload))
       (Runtime.Inbox.to_list (Runtime.Mailbox.inbox mb 0)));
  check_int "delivered this round" 3
    (List.length (Runtime.Mailbox.delivered mb));
  Runtime.Mailbox.begin_round ~round:2 mb;
  check_int "round state reset" 0
    (List.length (Runtime.Inbox.to_list (Runtime.Mailbox.inbox mb 0)));
  (* last-submitted-wins posting: the adversary's final double-send
     choice is the one delivered *)
  Runtime.Mailbox.post_last_wins mb [ letter 2 0 1; letter 2 0 2 ];
  Alcotest.(check (list (pair int int)))
    "last wins" [ (2, 2) ]
    (List.map
       (fun (e : int Types.envelope) -> (e.sender, e.payload))
       (Runtime.Inbox.to_list (Runtime.Mailbox.inbox mb 0)))

let test_mailbox_screen () =
  let mb : int Runtime.Mailbox.t = Runtime.Mailbox.create ~n:4 in
  let corrupted = Runtime.Party_set.of_list ~n:4 [ 3 ] in
  let kept =
    Runtime.Mailbox.screen mb ~adversary:"test" ~corrupted
      [
        letter 3 0 1 (* legit *);
        letter 0 1 2 (* forged honest sender *);
        letter 9 1 3 (* forged out-of-range sender *);
        letter 3 9 4 (* void recipient: silent drop *);
      ]
  in
  check_int "kept" 1 (List.length kept);
  check_int "forgeries counted" 2 (Runtime.Mailbox.rejected_forgeries mb)

(* --- forgery-count parity across engines --------------------------- *)

(* One canned injection batch, delivered at sync round 1 / async event 1 by
   the same engine-agnostic adversary core: both engines must screen it
   through the shared mailbox and report identical counters. *)
let canned_injector : int Adversary.t =
  Adversary.static ~name:"canned"
    ~pick:(fun ~n:_ ~t:_ _ -> [ 4 ])
    ~deliver:(fun view ->
      if view.Adversary.round = 1 then
        [
          letter 0 1 900 (* forged: honest src *);
          letter 2 3 901 (* forged: honest src *);
          letter 4 0 444;
          letter 4 1 444;
          letter 4 2 444;
          letter 4 99 902 (* void recipient *);
        ]
      else [])

let test_forgery_count_parity () =
  let sync_report =
    Sync_engine.run ~n:5 ~t:1 ~protocol:gather_protocol
      ~adversary:canned_injector ()
  in
  let async_report =
    Async_engine.run ~n:5 ~t:1
      ~reactor:(gather_reactor ~quota:4)
      ~adversary:(Async_engine.with_scheduler canned_injector)
      ()
  in
  check_int "sync: forgeries" 2 sync_report.rejected_forgeries;
  check_int "async: forgeries" 2 async_report.rejected_forgeries;
  check_int "sync: accepted adversary letters" 3 sync_report.adversary_messages;
  check_int "async: accepted adversary letters" 3
    async_report.adversary_messages;
  Alcotest.(check string) "engine tags" "sync/async"
    (sync_report.engine ^ "/" ^ async_report.engine);
  (* the injected 444s actually reach the sync inboxes *)
  Alcotest.(check (list int))
    "sync p0 inbox" [ 0; 1; 2; 3; 444 ]
    (Runtime.Report.output_of sync_report 0)

(* --- lib/adversary strategies against the async engine -------------- *)

let test_silent_strategy_on_async () =
  let report =
    Async_engine.run ~n:5 ~t:1
      ~reactor:(gather_reactor ~quota:4)
      ~adversary:(Async_engine.with_scheduler (Strategies.silent ~victims:[ 4 ]))
      ()
  in
  Alcotest.(check (list int)) "corrupted" [ 4 ] report.corrupted;
  check_int "honest outputs" 4 (List.length report.outputs);
  List.iter
    (fun (_, heard) ->
      Alcotest.(check (list int)) "no ping from the silent party"
        [ 0; 1; 2; 3 ] heard)
    report.outputs

let test_crash_strategy_on_async () =
  (* adaptive corruption under the async engine: the view's round is the
     event counter, so crash@r3 fells its victim at delivery event 3; the
     victim's in-flight init pings were sent while honest and still arrive *)
  let report =
    Async_engine.run ~n:5 ~t:1
      ~reactor:(gather_reactor ~quota:5)
      ~adversary:
        (Async_engine.with_scheduler (Strategies.crash ~at_round:3 ~victims:[ 0 ]))
      ()
  in
  Alcotest.(check (list (pair int int)))
    "corruption event recorded" [ (0, 3) ] report.corruption_rounds;
  check_int "remaining honest parties all decide" 4
    (List.length report.outputs)

(* --- differential execution: one protocol, both engines -------------- *)

let scheduler_of = function
  | 0 -> Async_engine.Fifo
  | 1 -> Async_engine.Lifo
  | _ -> Async_engine.Random_order

(* RealAA run natively under the sync engine vs lifted into the async
   engine by the round-simulation adapter: honest outputs AND decision
   rounds must match bit for bit — under any scheduler, because the
   lock-step simulation is delivery-order-invariant. *)
let prop_differential_realaa =
  QCheck2.Test.make
    ~name:"differential: RealAA sync vs round-simulated async" ~count:25
    QCheck2.Gen.(
      triple (int_bound 1_000_000) (int_range 4 8) (int_bound 2))
    (fun (seed, n, sched) ->
      let rng = Rng.create seed in
      let t = Rng.int rng (((n - 1) / 3) + 1) in
      let values = Array.init n (fun _ -> float_of_int (Rng.int rng 1000)) in
      let iterations = 2 + Rng.int rng 2 in
      let protocol () =
        Aat_realaa.Bdh.protocol
          ~inputs:(fun i -> values.(i))
          ~t ~iterations ()
      in
      let sync_report =
        Sync_engine.run ~n ~t ~protocol:(protocol ())
          ~adversary:(Adversary.passive "none")
          ()
      in
      let async_report =
        Async_engine.run ~n ~t ~seed ~max_events:100_000
          ~reactor:(Round_sim.reactor_of_protocol (protocol ()))
          ~adversary:(Async_engine.passive ~scheduler:(scheduler_of sched) "none")
          ()
      in
      List.map (fun (p, (o, _)) -> (p, o)) async_report.outputs
      = sync_report.outputs
      && List.map (fun (p, (_, r)) -> (p, r)) async_report.outputs
         = sync_report.termination_rounds)

(* Bracha run natively under the async engine vs folded into lock-step
   rounds by the converse adapter: same deliveries, same values, and the
   round structure collapses to the textbook three rounds. *)
let prop_differential_bracha =
  QCheck2.Test.make ~name:"differential: Bracha async vs sync rounds"
    ~count:30
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 4 10))
    (fun (seed, n) ->
      let t = (n - 1) / 3 in
      let inputs self = 100 + self in
      let sender = seed mod n in
      let reactor () = Bracha.reactor ~sender ~inputs ~t in
      let async_report =
        Async_engine.run ~n ~t ~seed
          ~reactor:(reactor ())
          ~adversary:
            (Async_engine.passive ~scheduler:(scheduler_of (seed mod 3)) "none")
          ()
      in
      let sync_report =
        Sync_engine.run ~n ~t ~max_rounds:8
          ~protocol:(Round_sim.protocol_of_reactor (reactor ()))
          ~adversary:(Adversary.passive "none")
          ()
      in
      sync_report.outputs = async_report.outputs
      && List.length sync_report.outputs = n
      && List.for_all (fun (_, r) -> r = 3) sync_report.termination_rounds)

(* determinism of the lift itself: two async runs of the simulated
   protocol under different schedulers agree with each other *)
let test_round_sim_scheduler_invariance () =
  let values = [| 3.; 99.; 41.; 7.; 60. |] in
  let run scheduler seed =
    Async_engine.run ~n:5 ~t:1 ~seed
      ~reactor:
        (Round_sim.reactor_of_protocol
           (Aat_realaa.Bdh.protocol
              ~inputs:(fun i -> values.(i))
              ~t:1 ~iterations:3 ()))
      ~adversary:(Async_engine.passive ~scheduler "none")
      ()
  in
  let a = run Async_engine.Fifo 1 in
  let b = run Async_engine.Lifo 2 in
  let c = run Async_engine.Random_order 3 in
  check "fifo = lifo" true (a.outputs = b.outputs);
  check "fifo = random" true (a.outputs = c.outputs)

let () =
  Alcotest.run "runtime"
    [
      ( "defaults",
        [
          Alcotest.test_case "formulas" `Quick test_default_formulas;
          Alcotest.test_case "sync engine reads max_rounds" `Quick
            test_sync_engine_reads_default_max_rounds;
          Alcotest.test_case "async engine reads patience" `Quick
            test_async_engine_reads_default_patience;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "dedup + inbox order" `Quick
            test_mailbox_dedup_and_inbox_order;
          Alcotest.test_case "forgery screening" `Quick test_mailbox_screen;
        ] );
      ( "parity",
        [
          Alcotest.test_case "both engines count forgeries identically" `Quick
            test_forgery_count_parity;
        ] );
      ( "unified-adversary",
        [
          Alcotest.test_case "silent strategy, async engine" `Quick
            test_silent_strategy_on_async;
          Alcotest.test_case "adaptive crash, async engine" `Quick
            test_crash_strategy_on_async;
        ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_differential_realaa;
          QCheck_alcotest.to_alcotest prop_differential_bracha;
          Alcotest.test_case "round-sim scheduler invariance" `Quick
            test_round_sim_scheduler_invariance;
        ] );
    ]

(* Tests for the asynchronous substrate: the event engine, Bracha reliable
   broadcast, and witness-based iterated AA (real-valued and on trees). *)

open Aat_engine
open Aat_async
open Aat_tree
module Report = Aat_runtime.Report
module Rng = Aat_util.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- engine basics: a ping protocol counting what it hears --- *)

type ping_state = { mutable heard : int list; n : int }

let gather_reactor ~quota : (ping_state, int, int list) Async_engine.reactor =
  {
    name = "gather";
    init =
      (fun ~self ~n ->
        ({ heard = []; n }, List.init n (fun p -> (p, self))));
    on_message =
      (fun ~self:_ e st ->
        st.heard <- e.payload :: st.heard;
        (st, []));
    output =
      (fun st -> if List.length st.heard >= quota then Some (List.sort compare st.heard) else None);
  }

let test_engine_delivers_everything () =
  List.iter
    (fun scheduler ->
      let report =
        Async_engine.run ~n:5 ~t:0 ~reactor:(gather_reactor ~quota:5)
          ~adversary:(Async_engine.passive ~scheduler "none")
          ()
      in
      check_int "all honest decided" 5 (List.length report.outputs);
      List.iter
        (fun (_, heard) -> Alcotest.(check (list int)) "heard all" [ 0; 1; 2; 3; 4 ] heard)
        report.outputs)
    [ Async_engine.Fifo; Async_engine.Lifo; Async_engine.Random_order ]

let test_engine_patience_beats_starvation () =
  (* the laggard scheduler starves party 0's messages; patience must force
     them through so everyone still hears 5 of 5 *)
  let report =
    Async_engine.run ~n:5 ~t:0 ~patience:10
      ~reactor:(gather_reactor ~quota:5)
      ~adversary:(Async_engine.passive ~scheduler:(Async_engine.Laggards [ 0 ]) "laggard")
      ()
  in
  List.iter
    (fun (_, heard) -> Alcotest.(check (list int)) "heard all" [ 0; 1; 2; 3; 4 ] heard)
    report.outputs

let test_engine_rejects_forged_injections () =
  (* unified interface: the async adversary is a sync-style core plus a
     scheduler; its view's [round] is the delivery-event counter *)
  let adversary =
    Async_engine.with_scheduler
      (Adversary.static ~name:"forger"
         ~pick:(fun ~n:_ ~t:_ _ -> [ 4 ])
         ~deliver:(fun view ->
           if view.Adversary.round = 1 then
             { Types.src = 0; dst = 1; body = 999 } (* forged: honest src *)
             :: List.init view.Adversary.n (fun dst ->
                    { Types.src = 4; dst; body = 444 })
           else []))
  in
  let report =
    Async_engine.run ~n:5 ~t:1 ~reactor:(gather_reactor ~quota:5) ~adversary ()
  in
  check_int "forgery rejected" 1 report.rejected_forgeries;
  check_int "injections accepted" 5 report.adversary_messages;
  (* party 1 heard: 4 honest pings (0..3; byz 4 sends nothing itself) + 444 *)
  Alcotest.(check (list int)) "inbox" [ 0; 1; 2; 3; 444 ] (List.assoc 1 report.outputs)

let test_engine_liveness_failure_detected () =
  check "deadlock raises" true
    (try
       ignore
         (Async_engine.run ~n:3 ~t:0 ~max_events:100
            ~reactor:(gather_reactor ~quota:99)
            ~adversary:(Async_engine.passive "none")
            ());
       false
     with Async_engine.Exceeded_max_events _ -> true)

let test_engine_determinism () =
  let run () =
    Async_engine.run ~n:6 ~t:0 ~seed:42
      ~reactor:(gather_reactor ~quota:6)
      ~adversary:(Async_engine.passive ~scheduler:Async_engine.Random_order "rand")
      ()
  in
  let a = run () and b = run () in
  check "same events" true (a.rounds_used = b.rounds_used);
  check "same outputs" true (a.outputs = b.outputs)

(* --- the pending pool --- *)

(* Random adds and swap-removes against a plain array model. Each op is
   one event; an add's key lies up to [patience] events in the past or
   the future of it, as [Delay] faults produce. After every op the pool
   must hold the model's keys slot by slot and [oldest_slot] must be
   the leftmost minimal one, found by a linear scan. *)
let prop_pending_oldest_slot =
  let patience = 8 in
  let op =
    QCheck2.Gen.(
      frequency
        [
          (4, map (fun d -> `Add d) (int_range (-patience) patience));
          (1, return `Oldest);
          (1, return `Last);
          (1, map (fun i -> `At i) nat);
        ])
  in
  QCheck2.Test.make ~name:"oldest_slot = leftmost minimal key" ~count:300
    QCheck2.Gen.(list_size (int_range 0 400) op)
    (fun ops ->
      let pool : int Pending.t = Pending.create () in
      (* (key, id) per slot; the pool stores id as src and body *)
      let model = ref [||] in
      let remove i =
        let m = !model in
        let last = Array.length m - 1 in
        m.(i) <- m.(last);
        model := Array.sub m 0 last;
        Pending.remove pool i
      in
      List.iteri
        (fun step op ->
          let len = Array.length !model in
          (match op with
          | `Add d ->
              let key = max 0 (step + d) in
              Pending.add pool ~src:step ~dst:d ~key step;
              model := Array.append !model [| (key, step) |]
          | `Oldest -> if len > 0 then remove (Pending.oldest_slot pool)
          | `Last -> if len > 0 then remove (len - 1)
          | `At i -> if len > 0 then remove (i mod len));
          let m = !model in
          if Pending.length pool <> Array.length m then
            QCheck2.Test.fail_reportf "step %d: length" step;
          Array.iteri
            (fun j (k, id) ->
              if
                Pending.key pool j <> k
                || Pending.src pool j <> id
                || Pending.body pool j <> id
              then QCheck2.Test.fail_reportf "step %d: slot %d" step j)
            m;
          if Array.length m > 0 then begin
            let best = ref 0 in
            Array.iteri (fun j (k, _) -> if k < fst m.(!best) then best := j) m;
            if Pending.oldest_slot pool <> !best then
              QCheck2.Test.fail_reportf "step %d: oldest_slot %d, scan %d" step
                (Pending.oldest_slot pool) !best
          end)
        ops;
      true)

(* --- Bracha reliable broadcast --- *)

let bracha_inputs self = 100 + self

let test_bracha_honest_sender () =
  List.iter
    (fun scheduler ->
      let report =
        Async_engine.run ~n:7 ~t:2
          ~reactor:(Bracha.reactor ~sender:0 ~inputs:bracha_inputs ~t:2)
          ~adversary:(Async_engine.passive ~scheduler "none")
          ()
      in
      check_int "everyone delivers" 7 (List.length report.outputs);
      List.iter (fun (_, v) -> check_int "the value" 100 v) report.outputs)
    [ Async_engine.Fifo; Async_engine.Lifo; Async_engine.Random_order ]

let test_bracha_silent_sender_no_delivery () =
  let adversary =
    Async_engine.with_scheduler
      (Adversary.static ~name:"silent-sender"
         ~pick:(fun ~n:_ ~t:_ _ -> [ 0 ])
         ~deliver:(fun _ -> []))
  in
  check "no delivery, liveness exception" true
    (try
       ignore
         (Async_engine.run ~n:7 ~t:2 ~max_events:500
            ~reactor:(Bracha.reactor ~sender:0 ~inputs:bracha_inputs ~t:2)
            ~adversary ());
       false
     with Async_engine.Exceeded_max_events _ -> true)

(* Equivocating Byzantine sender: conflicting INITs to the two halves, a
   helper echoing one side. Agreement and totality must hold regardless of
   scheduling. *)
let equivocating_sender ~scheduler =
  let key = { Bracha.origin = 6; tag = 0 } in
  Async_engine.with_scheduler ~scheduler
    (Adversary.static ~name:"equivocator"
       ~pick:(fun ~n:_ ~t:_ _ -> [ 5; 6 ])
       ~deliver:(fun view ->
         let n = view.Adversary.n in
         if view.Adversary.round = 1 then
           List.concat
             [
               List.init n (fun dst ->
                   let v = if dst < 3 then 111 else 222 in
                   { Types.src = 6; dst; body = Bracha.Init (key, v) });
               (* the helper echoes 111 to everyone *)
               List.init n (fun dst ->
                   { Types.src = 5; dst; body = Bracha.Echo (key, 111) });
             ]
         else []))

let equivocator_runs =
  [
    (Async_engine.Fifo, 1); (Async_engine.Lifo, 2);
    (Async_engine.Random_order, 3); (Async_engine.Random_order, 4);
    (Async_engine.Laggards [ 0; 1 ], 5);
  ]

let test_bracha_equivocator_agreement () =
  (* Some runs deliver 111 everywhere, some deliver nothing before the
     event budget: both are fine; what must never happen is two honest
     parties delivering different values. *)
  List.iter
    (fun (scheduler, seed) ->
      match
        Async_engine.run ~n:7 ~t:2 ~seed ~max_events:3_000
          ~reactor:(Bracha.reactor ~sender:6 ~inputs:bracha_inputs ~t:2)
          ~adversary:(equivocating_sender ~scheduler)
          ()
      with
      | report ->
          (* totality: engine only returns when ALL honest delivered *)
          check_int "all or none" 5 (List.length report.outputs);
          let values = List.sort_uniq compare (List.map snd report.outputs) in
          check "agreement" true (List.length values <= 1)
      | exception Async_engine.Exceeded_max_events _ -> ())
    equivocator_runs

(* Votes count once per (sender, value): a repeated ECHO does not add,
   an ECHO of a second value counts toward that value. n = 4, t = 1: the
   echo quorum is 3, so the third distinct echoer of a value is the one
   that makes this party READY it. *)
let test_bracha_vote_per_sender_value () =
  let key = { Bracha.origin = 0; tag = 0 } in
  let inst : int Bracha.Instances.t = Bracha.Instances.create ~n:4 ~t:1 in
  let echo sender v = Bracha.Instances.handle inst ~sender (Bracha.Echo (key, v)) in
  let silent what (out, delivered) =
    check what true (out = None && delivered = None)
  in
  silent "first echo of 7" (echo 1 7);
  silent "same sender, same value: no second vote" (echo 1 7);
  silent "same sender, other value" (echo 1 8);
  silent "second echoer of 7" (echo 2 7);
  silent "second echoer of 8" (echo 2 8);
  (match echo 3 8 with
  | Some (Bracha.Ready (k, 8)), None -> check "ready for key" true (k = key)
  | _ -> Alcotest.fail "third distinct echoer of 8 must trigger READY 8");
  silent "READY is sent once per instance" (echo 3 7)

(* --- async AA on reals --- *)

(* the unified report lets the sync-world verdict checker consume async
   runs directly *)
let async_real_verdict values report ~eps =
  Verdict.real_of_report ~eps
    ~inputs:(fun i -> values.(i))
    ~value:(fun (r : float Async_aa.result) -> r.value)
    report

let test_async_real_converges () =
  let values = [| 0.; 100.; 20.; 60.; 40.; 90.; 10. |] in
  let iterations = Aat_realaa.Rounds.halving_iterations ~range:100. ~eps:1. in
  List.iter
    (fun scheduler ->
      let report =
        Async_engine.run ~n:7 ~t:2
          ~reactor:(Async_aa.real ~inputs:(fun i -> values.(i)) ~t:2 ~iterations)
          ~adversary:(Async_engine.passive ~scheduler "none")
          ()
      in
      check "verdict" true (Verdict.all_ok (async_real_verdict values report ~eps:1.)))
    [ Async_engine.Fifo; Async_engine.Lifo; Async_engine.Random_order ]

let test_async_real_with_silent_byz () =
  (* two corrupted parties never participate: quorums are n - t, so the
     protocol must stay live *)
  let values = [| 0.; 100.; 20.; 60.; 40.; 90.; 10. |] in
  let iterations = Aat_realaa.Rounds.halving_iterations ~range:100. ~eps:1. in
  let adversary =
    Async_engine.with_scheduler ~scheduler:Async_engine.Random_order
      (Adversary.static ~name:"silent"
         ~pick:(fun ~n:_ ~t:_ _ -> [ 5; 6 ])
         ~deliver:(fun _ -> []))
  in
  let report =
    Async_engine.run ~n:7 ~t:2
      ~reactor:(Async_aa.real ~inputs:(fun i -> values.(i)) ~t:2 ~iterations)
      ~adversary ()
  in
  check "verdict" true (Verdict.all_ok (async_real_verdict values report ~eps:1.))

let test_async_real_laggard_scheduler () =
  let values = [| 0.; 100.; 20.; 60.; 40.; 90.; 10. |] in
  let iterations = Aat_realaa.Rounds.halving_iterations ~range:100. ~eps:1. in
  let report =
    Async_engine.run ~n:7 ~t:2 ~patience:200
      ~reactor:(Async_aa.real ~inputs:(fun i -> values.(i)) ~t:2 ~iterations)
      ~adversary:
        (Async_engine.passive ~scheduler:(Async_engine.Laggards [ 0; 1 ]) "lag")
      ()
  in
  check "verdict" true (Verdict.all_ok (async_real_verdict values report ~eps:1.))

(* Byzantine parties injecting random protocol messages (malformed reports,
   junk RBC traffic, equivocating broadcasts of their own instances). *)
let random_async_byz ~seed =
  let rng = Rng.create seed in
  Async_engine.with_scheduler ~scheduler:Async_engine.Random_order
    (Adversary.static ~name:"random-async-byz"
       ~pick:(fun ~n:_ ~t:_ _ -> [ 5; 6 ])
       ~deliver:(fun view ->
         let step = view.Adversary.round and n = view.Adversary.n in
         if step > 600 || step mod 3 <> 0 then []
         else
           let src = if Rng.bool rng then 5 else 6 in
           let key = { Bracha.origin = src; tag = 1 + Rng.int rng 8 } in
           let junk_value () = float_of_int (Rng.int rng 1000) -. 200. in
           List.init n (fun dst ->
               let body =
                 match Rng.int rng 5 with
                 | 0 -> Async_aa.Rbc (Bracha.Init (key, junk_value ()))
                 | 1 -> Async_aa.Rbc (Bracha.Echo (key, junk_value ()))
                 | 2 -> Async_aa.Rbc (Bracha.Ready (key, junk_value ()))
                 | 3 ->
                     Async_aa.Report
                       { iteration = 1 + Rng.int rng 8; ids = [ 0; 1 ] }
                       (* malformed: too small *)
                 | _ ->
                     Async_aa.Report
                       {
                         iteration = 1 + Rng.int rng 8;
                         ids = List.init (n - 2) Fun.id;
                       }
               in
               { Types.src; dst; body })))

let prop_async_real_random_byz =
  QCheck2.Test.make ~name:"async AA under random byzantine injections"
    ~count:25
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let values = Array.init 7 (fun _ -> float_of_int (Rng.int rng 500)) in
      let iterations = Aat_realaa.Rounds.halving_iterations ~range:500. ~eps:1. in
      let report =
        Async_engine.run ~n:7 ~t:2 ~seed ~max_events:500_000
          ~reactor:(Async_aa.real ~inputs:(fun i -> values.(i)) ~t:2 ~iterations)
          ~adversary:(random_async_byz ~seed)
          ()
      in
      Verdict.all_ok (async_real_verdict values report ~eps:1.))

(* --- async AA on trees ([33]) --- *)

let async_tree_verdict tree inputs report =
  let honest_inputs =
    Array.to_list (Array.mapi (fun i v -> (i, v)) inputs)
    |> List.filter_map (fun (i, v) ->
           if List.mem i report.Report.corrupted then None else Some v)
  in
  let honest_outputs =
    List.map
      (fun (_, (r : Labeled_tree.vertex Async_aa.result)) -> r.value)
      report.Report.outputs
  in
  Aat_treeaa.Tree_verdict.check ~tree ~n_honest:(List.length honest_inputs)
    ~honest_inputs ~honest_outputs

let test_async_tree_on_fig3 () =
  let tree =
    Labeled_tree.of_labeled_edges
      [ ("v1", "v2"); ("v2", "v3"); ("v3", "v6"); ("v3", "v7");
        ("v2", "v4"); ("v4", "v8"); ("v2", "v5") ]
  in
  let v l = Labeled_tree.vertex_of_label tree l in
  let inputs = [| v "v3"; v "v6"; v "v5"; v "v8"; v "v1"; v "v7"; v "v4" |] in
  let iterations = Aat_treeaa.Nr_baseline.iterations_for tree in
  let report =
    Async_engine.run ~n:7 ~t:2
      ~reactor:
        (Async_aa.tree ~tree ~inputs:(fun i -> inputs.(i)) ~t:2 ~iterations)
      ~adversary:(Async_engine.passive ~scheduler:Async_engine.Random_order "none")
      ()
  in
  check "verdict" true (Verdict.all_ok (async_tree_verdict tree inputs report))

let test_async_tree_long_path () =
  let tree = Generate.path 200 in
  let inputs = [| 0; 199; 50; 120; 75; 30; 160 |] in
  let iterations = Aat_treeaa.Nr_baseline.iterations_for tree in
  let adversary =
    Async_engine.with_scheduler ~scheduler:Async_engine.Lifo
      (Adversary.static ~name:"silent"
         ~pick:(fun ~n:_ ~t:_ _ -> [ 5; 6 ])
         ~deliver:(fun _ -> []))
  in
  let report =
    Async_engine.run ~n:7 ~t:2
      ~reactor:
        (Async_aa.tree ~tree ~inputs:(fun i -> inputs.(i)) ~t:2 ~iterations)
      ~adversary ()
  in
  check "verdict" true (Verdict.all_ok (async_tree_verdict tree inputs report))

let prop_async_tree_random =
  QCheck2.Test.make ~name:"async tree AA on random trees" ~count:20
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 2 40))
    (fun (seed, nv) ->
      let rng = Rng.create seed in
      let tree = Generate.random rng nv in
      let inputs = Array.init 7 (fun _ -> Rng.int rng nv) in
      let iterations = Aat_treeaa.Nr_baseline.iterations_for tree in
      let report =
        Async_engine.run ~n:7 ~t:2 ~seed
          ~reactor:
            (Async_aa.tree ~tree ~inputs:(fun i -> inputs.(i)) ~t:2 ~iterations)
          ~adversary:
            (Async_engine.passive ~scheduler:Async_engine.Random_order "none")
          ()
      in
      Verdict.all_ok (async_tree_verdict tree inputs report))

(* The engine keeps in-flight letters in flat arrays, Bracha tallies
   votes in bitsets and a broadcast is fanned out once: a delivery event
   of a passive Fifo run costs a few dozen minor words, most of them the
   reactor's envelope, return pair and fan-out list. *)
let test_async_tree_allocation () =
  let rng = Rng.create 1 in
  let tree = Generate.random_of_diameter rng ~n:31 ~diameter:12 in
  let n = 13 and t = 4 in
  let inputs = Array.init n (fun _ -> Rng.int rng (Labeled_tree.n_vertices tree)) in
  let reactor =
    Async_aa.tree ~tree ~inputs:(fun i -> inputs.(i)) ~t
      ~iterations:(Aat_treeaa.Nr_baseline.iterations_for tree)
  in
  let before = Gc.minor_words () in
  let report =
    Async_engine.run ~n ~t ~reactor
      ~adversary:(Async_engine.passive ~scheduler:Async_engine.Fifo "none")
      ()
  in
  let per_event = (Gc.minor_words () -. before) /. float_of_int report.rounds_used in
  check_int "all honest decided" n (List.length report.outputs);
  if per_event > 50. then
    Alcotest.failf "%.1f minor words per delivery event (bound 50)" per_event

(* --- pinned runs: report and recorded trace, rendered exactly --- *)

(* One line per report field and per delivered letter, floats in hex;
   a timed-out run also renders its undecided parties and reason. The
   md5 of this text pins every delivery the engine makes, in order. *)
let render_outcome ~value ~body outcome =
  let b = Buffer.create 65536 in
  let ints l = List.iter (Printf.bprintf b " %d") l in
  let pairs l = List.iter (fun (p, r) -> Printf.bprintf b " %d@%d" p r) l in
  let report (r : _ Async_engine.report) =
    List.iter
      (fun (p, o) ->
        Printf.bprintf b "out %d " p;
        value b o;
        Buffer.add_char b '\n')
      r.outputs;
    Buffer.add_string b "decided";
    pairs r.termination_rounds;
    Buffer.add_string b "\ncorrupted";
    ints r.corrupted;
    Buffer.add_string b "\ncorrupted at";
    pairs r.corruption_rounds;
    Printf.bprintf b "\nevents %d honest %d injected %d forged %d\n"
      r.rounds_used r.honest_messages r.adversary_messages
      r.rejected_forgeries;
    List.iter
      (List.iter (fun (l : _ Types.letter) ->
           Printf.bprintf b "%d>%d " l.src l.dst;
           body b l.body;
           Buffer.add_char b '\n'))
      r.trace
  in
  (match outcome with
  | Aat_runtime.Outcome.Completed r -> report r
  | Aat_runtime.Outcome.Liveness_timeout { report = r; undecided; reason } ->
      report r;
      Buffer.add_string b "undecided";
      ints undecided;
      Printf.bprintf b "\n%s\n" reason
  | Aat_runtime.Outcome.Engine_error _ -> Buffer.add_string b "engine error\n");
  Digest.to_hex (Digest.string (Buffer.contents b))

let render_rbc value b (m : _ Bracha.msg) =
  let kind, (k : Bracha.key), v =
    match m with
    | Bracha.Init (k, v) -> ("I", k, v)
    | Echo (k, v) -> ("E", k, v)
    | Ready (k, v) -> ("R", k, v)
  in
  Printf.bprintf b "%s%d.%d:" kind k.origin k.tag;
  value b v

let hex b v = Printf.bprintf b "%h" v

let int b v = Printf.bprintf b "%d" v

let test_pinned_random_byz () =
  List.iter
    (fun (seed, want) ->
      let rng = Rng.create seed in
      let values = Array.init 7 (fun _ -> float_of_int (Rng.int rng 500)) in
      let iterations = Aat_realaa.Rounds.halving_iterations ~range:500. ~eps:1. in
      let outcome =
        Async_engine.run_outcome ~n:7 ~t:2 ~seed ~max_events:500_000
          ~record_trace:true
          ~reactor:(Async_aa.real ~inputs:(fun i -> values.(i)) ~t:2 ~iterations)
          ~adversary:(random_async_byz ~seed)
          ()
      in
      let value b (r : float Async_aa.result) =
        Printf.bprintf b "%h after %d" r.value r.iterations_done
      in
      let body b = function
        | Async_aa.Rbc m -> render_rbc hex b m
        | Async_aa.Report { iteration; ids } ->
            Printf.bprintf b "report %d:" iteration;
            List.iter (Printf.bprintf b " %d") ids
      in
      Alcotest.(check string)
        (Printf.sprintf "random byz seed %d" seed)
        want
        (render_outcome ~value ~body outcome))
    [
      (1, "b13fcf3278f222133766e5043c53ed6f");
      (2, "2d09ad7ff5194733ab7781590bf514cb");
      (3, "cd87bdbf92f3e1d99b6cfe410381ed2f");
    ]

let test_pinned_equivocator () =
  List.iter
    (fun ((scheduler, seed), want) ->
      let outcome =
        Async_engine.run_outcome ~n:7 ~t:2 ~seed ~max_events:3_000
          ~record_trace:true
          ~reactor:(Bracha.reactor ~sender:6 ~inputs:bracha_inputs ~t:2)
          ~adversary:(equivocating_sender ~scheduler)
          ()
      in
      Alcotest.(check string)
        (Printf.sprintf "equivocator seed %d" seed)
        want
        (render_outcome ~value:int ~body:(render_rbc int) outcome))
    (List.combine equivocator_runs
       [
         "a46f86d8ca36e8174068e3742cdf0ff5";
         "489cd58a86dc4409420433ca30b88d85";
         "8999b3a6d5a38c9dee2d72efe94713e2";
         "64a67bc5a8b4d4dc4bcee86eb863e3a4";
         "1fb23920cce49f4d0e13383a4221239f";
       ])

let () =
  Alcotest.run "async"
    [
      ( "engine",
        [
          Alcotest.test_case "delivers under all schedulers" `Quick
            test_engine_delivers_everything;
          Alcotest.test_case "patience beats starvation" `Quick
            test_engine_patience_beats_starvation;
          Alcotest.test_case "forged injections rejected" `Quick
            test_engine_rejects_forged_injections;
          Alcotest.test_case "liveness failure detected" `Quick
            test_engine_liveness_failure_detected;
          Alcotest.test_case "determinism" `Quick test_engine_determinism;
        ] );
      ( "pending",
        [ QCheck_alcotest.to_alcotest prop_pending_oldest_slot ] );
      ( "bracha",
        [
          Alcotest.test_case "honest sender" `Quick test_bracha_honest_sender;
          Alcotest.test_case "silent sender: no delivery" `Quick
            test_bracha_silent_sender_no_delivery;
          Alcotest.test_case "equivocator: agreement + totality" `Quick
            test_bracha_equivocator_agreement;
          Alcotest.test_case "one vote per (sender, value)" `Quick
            test_bracha_vote_per_sender_value;
        ] );
      ( "async-aa-real",
        [
          Alcotest.test_case "converges under all schedulers" `Quick
            test_async_real_converges;
          Alcotest.test_case "silent byz" `Quick test_async_real_with_silent_byz;
          Alcotest.test_case "laggard scheduler" `Quick
            test_async_real_laggard_scheduler;
          QCheck_alcotest.to_alcotest prop_async_real_random_byz;
        ] );
      ( "async-aa-tree",
        [
          Alcotest.test_case "fig3" `Quick test_async_tree_on_fig3;
          Alcotest.test_case "long path, LIFO, silent byz" `Quick
            test_async_tree_long_path;
          QCheck_alcotest.to_alcotest prop_async_tree_random;
          Alcotest.test_case "allocates <= 50 minor words per delivery event"
            `Quick test_async_tree_allocation;
        ] );
      ( "pinned",
        [
          Alcotest.test_case "random byz seeds 1-3: report + trace" `Quick
            test_pinned_random_byz;
          Alcotest.test_case "equivocator, five schedules: report + trace"
            `Quick test_pinned_equivocator;
        ] );
    ]

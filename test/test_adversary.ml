(* Tests for the attack library itself: puppeteer fidelity, omission,
   spoiler bookkeeping, wedge camps, the phased adapter, and engine trace
   recording. *)

open Aat_engine
open Aat_realaa
module Report = Aat_runtime.Report
module Strategies = Aat_adversary.Strategies
module Spoiler = Aat_adversary.Spoiler
module Wedge = Aat_adversary.Wedge
module Compose = Aat_adversary.Compose
module Async_engine = Aat_async.Async_engine
module Multi = Aat_gradecast.Gradecast.Multi
module Telemetry = Aat_telemetry.Telemetry
module Rng = Aat_util.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* the little gather protocol again *)
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

(* --- puppeteer --- *)

let test_puppeteer_identity_is_honest () =
  (* a puppeteered party with an identity twist is indistinguishable from an
     honest one *)
  let honest_run =
    Sync_engine.run ~n:5 ~t:0 ~protocol:gather
      ~adversary:(Adversary.passive "none") ()
  in
  let puppet_run =
    Sync_engine.run ~n:5 ~t:1 ~protocol:gather
      ~adversary:
        (Strategies.puppeteer ~name:"identity" ~protocol:gather ~victims:[ 4 ]
           ~twist:(fun ~round:_ ~src:_ ~dst:_ m -> Some m))
      ()
  in
  (* honest parties hear the same things in both runs *)
  List.iter
    (fun p ->
      check "same inbox" true
        (Report.output_of honest_run p = Report.output_of puppet_run p))
    [ 0; 1; 2; 3 ]

let test_puppeteer_rewrites_per_recipient () =
  let adversary =
    Strategies.puppeteer ~name:"equivocate" ~protocol:gather ~victims:[ 4 ]
      ~twist:(fun ~round:_ ~src:_ ~dst m ->
        Some (if dst < 2 then m + 100 else m))
  in
  let report = Sync_engine.run ~n:5 ~t:1 ~protocol:gather ~adversary () in
  Alcotest.(check (list int)) "p0 sees twisted" [ 0; 1; 2; 3; 104 ]
    (Report.output_of report 0);
  Alcotest.(check (list int)) "p3 sees original" [ 0; 1; 2; 3; 4 ]
    (Report.output_of report 3)

let test_omit_towards () =
  let adversary =
    Strategies.omit_towards ~name:"omit" ~protocol:gather ~victims:[ 4 ]
      ~blocked:[ 0; 1 ]
  in
  let report = Sync_engine.run ~n:5 ~t:1 ~protocol:gather ~adversary () in
  Alcotest.(check (list int)) "blocked" [ 0; 1; 2; 3 ] (Report.output_of report 0);
  Alcotest.(check (list int)) "not blocked" [ 0; 1; 2; 3; 4 ]
    (Report.output_of report 2)

(* puppeteer over multiple rounds: victims track state from real traffic *)
let counter : (int, int, int) Protocol.t =
  {
    name = "counter";
    init = (fun ~self:_ ~n:_ -> 0);
    send = (fun ~round:_ ~self st -> Protocol.To [ (self, st) ]);
    receive = (fun ~round:_ ~self:_ ~inbox:_ st -> st + 1);
    output = (fun st -> if st >= 4 then Some st else None);
  }

let test_puppeteer_multi_round_state () =
  let sent_values = ref [] in
  let adversary =
    Strategies.puppeteer ~name:"observer" ~protocol:counter ~victims:[ 2 ]
      ~twist:(fun ~round:_ ~src:_ ~dst:_ m ->
        sent_values := m :: !sent_values;
        Some m)
  in
  let report = Sync_engine.run ~n:3 ~t:1 ~protocol:counter ~adversary () in
  check_int "honest finished" 2 (List.length report.outputs);
  (* the victim's internal counter advanced across rounds: it sent 0,1,2,3 *)
  Alcotest.(check (list int)) "victim state advanced" [ 0; 1; 2; 3 ]
    (List.rev !sent_values)

(* --- spoiler bookkeeping --- *)

let test_spoiler_burns_all_when_iterations_cover_t () =
  let n = 10 and t = 3 in
  let values = Array.init n (fun i -> float_of_int (100 * i)) in
  let report =
    Sync_engine.run ~n ~t ~max_rounds:9
      ~protocol:(Bdh.protocol ~inputs:(fun i -> values.(i)) ~t ~iterations:3 ())
      ~adversary:(Spoiler.realaa_spoiler ~t ~iterations:3)
      ()
  in
  (* every spoiler burned itself, so every honest party blacklists all t *)
  List.iter
    (fun (r : Bdh.result) ->
      Alcotest.(check (list int)) "all spoilers blacklisted" [ 7; 8; 9 ] r.blacklisted)
    (Report.honest_outputs report)

let test_spoiler_parties_of () =
  Alcotest.(check (list int)) "corruption set" [ 7; 8; 9 ] (Spoiler.parties_of ~n:10 ~t:3);
  Alcotest.(check (list int)) "empty" [] (Spoiler.parties_of ~n:4 ~t:0)

let test_relentless_spoiler_never_burns () =
  (* against the faithful protocol the relentless spoiler is blacklisted at
     its first split and is harmless afterwards: AA must hold *)
  let n = 7 and t = 2 in
  let values = Array.init n (fun i -> float_of_int (100 * i)) in
  let iterations = Rounds.bdh_iterations ~range:600. ~eps:1. in
  let report =
    Sync_engine.run ~n ~t ~max_rounds:(3 * iterations)
      ~protocol:(Bdh.protocol ~inputs:(fun i -> values.(i)) ~t ~iterations ())
      ~adversary:(Spoiler.relentless_spoiler ~t ~iterations)
      ()
  in
  let outputs =
    List.map (fun (r : Bdh.result) -> r.value) (Report.honest_outputs report)
  in
  check "agreement" true (Verdict.spread outputs <= 1.)

(* The per-pair row builder the spoiler used before rows were shared per
   recipient class, kept as the oracle (its code verbatim, its comments
   dropped): one fresh row for every (Byzantine sender, honest recipient)
   pair in rounds 2 and 3. *)
module Per_pair_spoiler = struct
  type plan = {
    iteration : int;
    planted : float;
    cover : float;
    spent_now : Types.party_id list;
    h1 : Types.party_id list;
    voters : Types.party_id list;
    targets : Types.party_id list;
    honest_value : (Types.party_id, float) Hashtbl.t;
  }

  let generic_spoiler ~relentless ~project ~embed ~t ~iterations =
    let spent : (Types.party_id, unit) Hashtbl.t = Hashtbl.create (max 1 t) in
    let current_plan : plan option ref = ref None in
    let make_plan (view : _ Adversary.view) iteration =
      let honest_value = Hashtbl.create 16 in
      List.iter
        (fun (l : _ Types.letter) ->
          match l.body with
          | Multi.Value v -> Hashtbl.replace honest_value l.src (project v)
          | Multi.Echo _ | Multi.Vote _ -> ())
        (Lazy.force view.honest_outbox);
      let honest =
        Hashtbl.fold (fun p v acc -> (p, v) :: acc) honest_value []
        |> List.sort (fun (_, a) (_, b) -> compare b a)
      in
      let values = List.map snd honest in
      let lo = List.fold_left Float.min infinity values in
      let hi = List.fold_left Float.max neg_infinity values in
      let width = Float.max 1. (hi -. lo) in
      let planted = lo -. width -. 1. in
      let cover = hi +. width +. 1. in
      let byz_pool =
        Adversary.corrupted_parties view
        |> List.filter (fun p -> not (Hashtbl.mem spent p))
      in
      let helpers = List.length byz_pool in
      let remaining = max 1 (iterations - iteration + 1) in
      let k =
        if helpers = 0 then 0
        else min helpers ((helpers + remaining - 1) / remaining)
      in
      let k =
        if relentless then min 1 helpers
        else if iterations - iteration >= helpers then 0
        else k
      in
      let spent_now = List.filteri (fun i _ -> i < k) byz_pool in
      let n_h1 = max 0 (view.n - view.t - helpers) in
      let h1 = List.filteri (fun i _ -> i < n_h1) (List.map fst honest) in
      let n_voters = max 1 (view.t + 1 - helpers) in
      let voters = List.filteri (fun i _ -> i < n_voters) h1 in
      let ascending = List.rev (List.map fst honest) in
      let n_targets = min view.t (max 1 (List.length ascending - 1)) in
      let targets = List.filteri (fun i _ -> i < n_targets) ascending in
      { iteration; planted; cover; spent_now; h1; voters; targets; honest_value }
    in
    let deliver (view : _ Adversary.view) =
      let iteration = ((view.round - 1) / 3) + 1 in
      let sub = ((view.round - 1) mod 3) + 1 in
      let plan =
        if sub = 1 then begin
          let p = make_plan view iteration in
          current_plan := Some p;
          p
        end
        else
          match !current_plan with
          | Some p when p.iteration = iteration -> p
          | Some _ | None -> make_plan view iteration
      in
      let honest = Adversary.honest_parties view in
      let byz =
        Adversary.corrupted_parties view
        |> List.filter (fun p -> not (Hashtbl.mem spent p))
      in
      let actively_spending = plan.spent_now in
      let letters = ref [] in
      let say src dst body = letters := { Types.src; dst; body } :: !letters in
      (match sub with
      | 1 ->
          List.iter
            (fun b -> List.iter (fun x -> say b x (Multi.Value (embed plan.planted))) plan.h1)
            actively_spending;
          List.iter
            (fun b ->
              if not (List.mem b actively_spending) then
                List.iter (fun x -> say b x (Multi.Value (embed plan.cover))) honest)
            byz
      | 2 ->
          List.iter
            (fun c ->
              List.iter
                (fun x ->
                  let row = Array.make view.n None in
                  List.iter
                    (fun b ->
                      if List.mem x plan.voters then row.(b) <- Some (embed plan.planted))
                    actively_spending;
                  List.iter
                    (fun b ->
                      if not (List.mem b actively_spending) then
                        row.(b) <- Some (embed plan.cover))
                    byz;
                  Hashtbl.iter (fun p v -> row.(p) <- Some (embed v)) plan.honest_value;
                  say c x (Multi.Echo row))
                honest)
            byz
      | _ ->
          List.iter
            (fun c ->
              List.iter
                (fun x ->
                  let row = Array.make view.n None in
                  List.iter
                    (fun b ->
                      if List.mem x plan.targets then row.(b) <- Some (embed plan.planted))
                    actively_spending;
                  List.iter
                    (fun b ->
                      if not (List.mem b actively_spending) then
                        row.(b) <- Some (embed plan.cover))
                    byz;
                  Hashtbl.iter (fun p v -> row.(p) <- Some (embed v)) plan.honest_value;
                  say c x (Multi.Vote row))
                honest)
            byz);
      if sub = 3 && not relentless then
        List.iter (fun b -> Hashtbl.replace spent b ()) actively_spending;
      !letters
    in
    deliver
end

(* Drive the library spoiler and the per-pair oracle through the same
   synthetic views: a random corruption set that may grow at iteration
   boundaries, random honest round-1 values (ties included, so voters and
   targets move), and a run entered at a random iteration, so the spent
   set each round sees varies too. *)
let spoiler_matches_oracle ~rng ~n ~t ~iterations ~honest_wire
    (spoiler : 'v Multi.msg Adversary.t) oracle =
  let corrupted = Array.make n false in
  List.iter
    (fun p -> corrupted.(p) <- true)
    (Rng.sample_without_replacement rng (Rng.int rng (t + 1)) n);
  let first_iteration = 1 + Rng.int rng iterations in
  for round = (3 * (first_iteration - 1)) + 1 to 3 * (iterations + 1) do
    let sub = ((round - 1) mod 3) + 1 in
    (if sub = 1 && Rng.int rng 3 = 0 then
       let honest = List.filter (fun p -> not corrupted.(p)) (List.init n Fun.id) in
       if List.length honest > n - t then
         corrupted.(List.nth honest (Rng.int rng (List.length honest))) <- true);
    let honest_outbox =
      if sub > 1 then []
      else
        List.filter_map
          (fun p ->
            if corrupted.(p) then None
            else
              Some
                {
                  Types.src = p;
                  dst = 0;
                  body = Multi.Value (honest_wire (float_of_int (Rng.int rng 6)));
                })
          (List.init n Fun.id)
    in
    let view =
      {
        Adversary.round;
        n;
        t;
        corrupted = Array.copy corrupted;
        honest_outbox = Lazy.from_val honest_outbox;
        history = [];
        rng = Rng.create 0;
      }
    in
    let got = spoiler.Adversary.deliver view and want = oracle view in
    if got <> want then
      QCheck2.Test.fail_reportf "n=%d t=%d round %d: letters differ" n t round;
    List.iter2
      (fun (a : _ Types.letter) (b : _ Types.letter) ->
        if Telemetry.payload_bytes a.body <> Telemetry.payload_bytes b.body then
          QCheck2.Test.fail_reportf "n=%d t=%d round %d: %d>%d payload_bytes differ"
            n t round a.src a.dst)
      got want;
    if sub > 1 then begin
      let rows =
        List.fold_left
          (fun acc (l : _ Types.letter) ->
            match l.body with
            | Multi.Echo row | Multi.Vote row ->
                if List.exists (fun r -> r == row) acc then acc else row :: acc
            | Multi.Value _ ->
                QCheck2.Test.fail_reportf "round %d: a value letter" round)
          [] got
      in
      if List.length rows > 2 then
        QCheck2.Test.fail_reportf "n=%d t=%d round %d: %d distinct rows" n t
          round (List.length rows)
    end
  done;
  true

let prop_spoiler_rows_shared_per_class =
  QCheck2.Test.make
    ~name:"spoiler: two rows a round, letters = per-pair builder" ~count:200
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 4 + Rng.int rng 37 in
      let t = Rng.int rng (((n - 1) / 3) + 1) in
      let iterations = 1 + Rng.int rng 5 in
      let oracle = Per_pair_spoiler.generic_spoiler ~t ~iterations in
      match Rng.int rng 3 with
      | 0 ->
          spoiler_matches_oracle ~rng ~n ~t ~iterations ~honest_wire:Fun.id
            (Spoiler.realaa_spoiler ~t ~iterations)
            (oracle ~relentless:false ~project:Fun.id ~embed:Fun.id)
      | 1 ->
          spoiler_matches_oracle ~rng ~n ~t ~iterations ~honest_wire:Fun.id
            (Spoiler.relentless_spoiler ~t ~iterations)
            (oracle ~relentless:true ~project:Fun.id ~embed:Fun.id)
      | _ ->
          spoiler_matches_oracle ~rng ~n ~t ~iterations
            ~honest_wire:(fun x -> (x, Rng.bool rng))
            (Spoiler.early_stopping_spoiler ~t ~iterations)
            (oracle ~relentless:false ~project:fst ~embed:(fun x -> (x, false))))

(* --- wedge camps --- *)

let test_wedge_camps_split_honest () =
  let view : int Adversary.view =
    {
      round = 1;
      n = 7;
      t = 2;
      corrupted = [| false; false; false; false; false; true; true |];
      honest_outbox = Lazy.from_val [];
      history = [];
      rng = Aat_util.Rng.create 0;
    }
  in
  let a, b = Wedge.camps view in
  Alcotest.(check (list int)) "camp a" [ 0; 1; 2 ] a;
  Alcotest.(check (list int)) "camp b" [ 3; 4 ] b

(* --- phased adapter --- *)

let test_phased_adapter_routing () =
  let seen_first = ref [] and seen_second = ref [] in
  let probe seen =
    {
      Adversary.name = "probe";
      passive = false;
      reads_history = true;
      initial_corruptions = (fun ~n:_ ~t:_ _ -> [ 3 ]);
      corrupt_more = (fun _ -> []);
      deliver =
        (fun view ->
          seen := (view.Adversary.round, List.length view.history) :: !seen;
          []);
    }
  in
  let composed =
    Protocol.sequential ~name:"probe-composed" ~first:gather ~rounds_of_first:1
      ~second:(fun _ -> gather)
  in
  let adversary =
    Compose.phased ~name:"probe-both" ~barrier:1 ~first:(probe seen_first)
      ~second:(probe seen_second)
  in
  ignore (Sync_engine.run ~n:4 ~t:1 ~protocol:composed ~adversary ());
  (* phase 1 saw its round 1 with empty history; phase 2 saw its (renumbered)
     round 1 with empty (projected) history *)
  check "first phase rounds" true (List.mem (1, 0) !seen_first);
  check "second phase renumbered" true (List.mem (1, 0) !seen_second);
  check "second phase saw only its rounds" true
    (List.for_all (fun (r, h) -> r >= 1 && h < r) !seen_second)

(* --- history contract --- *)

(* A silent probe corrupting party [n - 1] that logs, per view, its round
   and how many history entries it was shown. *)
let history_probe ~reads_history seen =
  {
    Adversary.name = "history-probe";
    passive = false;
    reads_history;
    initial_corruptions = (fun ~n ~t:_ _ -> [ n - 1 ]);
    corrupt_more = (fun _ -> []);
    deliver =
      (fun view ->
        seen := (view.Adversary.round, List.length view.history) :: !seen;
        []);
  }

(* A reader is shown every earlier round (sync) or delivery event
   (async); a non-reader is shown none, whether or not a trace is kept. *)
let expect_history ~reads_history what seen =
  check what true
    (!seen <> []
    && List.for_all
         (fun (r, h) -> h = if reads_history then r - 1 else 0)
         !seen)

let bool_pairs = [ (false, false); (false, true); (true, false); (true, true) ]

let test_history_contract_sync () =
  List.iter
    (fun (reads_history, record_trace) ->
      let seen = ref [] in
      let report =
        Sync_engine.run ~n:4 ~t:1 ~record_trace ~protocol:counter
          ~adversary:(history_probe ~reads_history seen)
          ()
      in
      check_int "four rounds" 4 report.rounds_used;
      expect_history ~reads_history
        (Printf.sprintf "sync, reads_history=%b, record_trace=%b" reads_history
           record_trace)
        seen)
    bool_pairs

(* every party pings everyone once and decides on hearing three pings *)
let ping : (int, int, int) Async_engine.reactor =
  {
    name = "ping";
    init = (fun ~self ~n -> (0, List.init n (fun p -> (p, self))));
    on_message = (fun ~self:_ _ heard -> (heard + 1, []));
    output = (fun heard -> if heard >= 3 then Some heard else None);
  }

let test_history_contract_async () =
  List.iter
    (fun (reads_history, record_trace) ->
      let seen = ref [] in
      let report =
        Async_engine.run ~n:4 ~t:1 ~record_trace ~reactor:ping
          ~adversary:
            (Async_engine.with_scheduler (history_probe ~reads_history seen))
          ()
      in
      check "trace kept iff recorded" record_trace (report.trace <> []);
      expect_history ~reads_history
        (Printf.sprintf "async, reads_history=%b, record_trace=%b"
           reads_history record_trace)
        seen)
    bool_pairs

let test_history_contract_phased () =
  let composed =
    Protocol.sequential ~name:"counter-twice" ~first:counter ~rounds_of_first:4
      ~second:(fun _ -> counter)
  in
  List.iter
    (fun (first_reads, second_reads) ->
      let seen_first = ref [] and seen_second = ref [] in
      let adversary =
        Compose.phased ~name:"history-both" ~barrier:4
          ~first:(history_probe ~reads_history:first_reads seen_first)
          ~second:(history_probe ~reads_history:second_reads seen_second)
      in
      check "composite reads history iff a phase does"
        (first_reads || second_reads) adversary.Adversary.reads_history;
      let report = Sync_engine.run ~n:4 ~t:1 ~protocol:composed ~adversary () in
      check_int "eight rounds" 8 report.rounds_used;
      expect_history ~reads_history:first_reads "first phase" seen_first;
      expect_history ~reads_history:second_reads "second phase (renumbered)"
        seen_second)
    bool_pairs

(* --- engine trace recording --- *)

let test_trace_recording () =
  let report =
    Sync_engine.run ~n:3 ~t:0 ~record_trace:true ~protocol:gather
      ~adversary:(Adversary.passive "none") ()
  in
  check_int "one round traced" 1 (List.length report.trace);
  check_int "nine letters" 9 (List.length (List.hd report.trace));
  let no_trace =
    Sync_engine.run ~n:3 ~t:0 ~protocol:gather
      ~adversary:(Adversary.passive "none") ()
  in
  check "trace off by default" true (no_trace.trace = [])

let () =
  Alcotest.run "adversary"
    [
      ( "puppeteer",
        [
          Alcotest.test_case "identity twist = honest" `Quick
            test_puppeteer_identity_is_honest;
          Alcotest.test_case "per-recipient rewrite" `Quick
            test_puppeteer_rewrites_per_recipient;
          Alcotest.test_case "omit_towards" `Quick test_omit_towards;
          Alcotest.test_case "multi-round state" `Quick
            test_puppeteer_multi_round_state;
        ] );
      ( "spoiler",
        [
          Alcotest.test_case "burns all byz over t iterations" `Quick
            test_spoiler_burns_all_when_iterations_cover_t;
          Alcotest.test_case "parties_of" `Quick test_spoiler_parties_of;
          Alcotest.test_case "relentless vs faithful protocol" `Quick
            test_relentless_spoiler_never_burns;
          QCheck_alcotest.to_alcotest prop_spoiler_rows_shared_per_class;
        ] );
      ( "wedge",
        [ Alcotest.test_case "camps" `Quick test_wedge_camps_split_honest ] );
      ( "phased",
        [ Alcotest.test_case "routing and renumbering" `Quick test_phased_adapter_routing ] );
      ( "history",
        [
          Alcotest.test_case "sync: only readers see history" `Quick
            test_history_contract_sync;
          Alcotest.test_case "async: only readers see history" `Quick
            test_history_contract_async;
          Alcotest.test_case "phased: only the reading phase" `Quick
            test_history_contract_phased;
        ] );
      ( "trace",
        [ Alcotest.test_case "recording" `Quick test_trace_recording ] );
    ]

(* Tests for the simulated-signature substrate and accountable broadcast
   (the authenticated-setting note of Section 7). *)

open Aat_engine
open Aat_auth
module Report = Aat_runtime.Report
module Strategies = Aat_adversary.Strategies
module Rng = Aat_util.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- signatures --- *)

let test_sign_roundtrip () =
  let ring = Auth.Keyring.setup ~n:4 in
  let k2 = Auth.Keyring.key ring 2 in
  let s = Auth.sign k2 "hello" in
  Alcotest.(check string) "data" "hello" (Auth.data s);
  check_int "signer" 2 (Auth.signer s);
  check_int "key signer" 2 (Auth.Keyring.signer k2)

let test_conflict_detection () =
  let ring = Auth.Keyring.setup ~n:4 in
  let k = Auth.Keyring.key ring 1 in
  let a = Auth.sign k 10 and b = Auth.sign k 20 and c = Auth.sign k 10 in
  check "different data conflicts" true (Auth.conflict a b);
  check "same data no conflict" false (Auth.conflict a c);
  let k3 = Auth.Keyring.key ring 3 in
  check "different signers no conflict" false (Auth.conflict a (Auth.sign k3 20))

(* --- accountable broadcast --- *)

let ring7 = Auth.Keyring.setup ~n:7

let run_broadcast ~adversary ~t inputs =
  let protocol =
    Auth.Accountable.protocol ~keyring:ring7 ~inputs:(fun i -> inputs.(i))
  in
  let report = Sync_engine.run ~n:7 ~t ~max_rounds:3 ~protocol ~adversary () in
  Report.honest_outputs report

let test_honest_senders_accepted () =
  let inputs = [| 10; 20; 30; 40; 50; 60; 70 |] in
  let outcomes = run_broadcast ~adversary:(Adversary.passive "none") ~t:0 inputs in
  check_int "all honest" 7 (List.length outcomes);
  List.iter
    (fun per_sender ->
      Array.iteri
        (fun sender outcome ->
          match outcome with
          | Auth.Accountable.Accepted s ->
              check "value" true (Auth.data s = inputs.(sender));
              check_int "signer" sender (Auth.signer s)
          | Auth.Accountable.Missing | Auth.Accountable.Convicted _ ->
              Alcotest.fail "honest sender not accepted")
        per_sender)
    outcomes

let test_silent_sender_missing () =
  let inputs = [| 10; 20; 30; 40; 50; 60; 70 |] in
  let outcomes =
    run_broadcast ~adversary:(Strategies.silent ~victims:[ 6 ]) ~t:2 inputs
  in
  List.iter
    (fun per_sender ->
      match per_sender.(6) with
      | Auth.Accountable.Missing -> ()
      | _ -> Alcotest.fail "silent sender should be Missing")
    outcomes

(* A sender signing two different values to two halves: everyone must either
   convict it or at least never accept different values. *)
let equivocator ~victim ~keyring =
  let key = Auth.Keyring.key keyring victim in
  {
    Adversary.name = "signed-equivocator";
    passive = false;
    reads_history = false;
    initial_corruptions = (fun ~n:_ ~t:_ _ -> [ victim ]);
    corrupt_more = (fun _ -> []);
    deliver =
      (fun view ->
        if view.Adversary.round = 1 then
          List.init view.Adversary.n (fun dst ->
              let v = if dst < view.Adversary.n / 2 then 111 else 222 in
              { Types.src = victim; dst; body = Auth.Accountable.forge ~key v })
        else [] (* refuses to forward, hiding the evidence *));
  }

let test_equivocator_convicted_or_consistent () =
  let inputs = [| 10; 20; 30; 40; 50; 60; 70 |] in
  let outcomes = run_broadcast ~adversary:(equivocator ~victim:6 ~keyring:ring7) ~t:2 inputs in
  let accepted_values =
    List.filter_map
      (fun per_sender ->
        match per_sender.(6) with
        | Auth.Accountable.Accepted s -> Some (Auth.data s)
        | Auth.Accountable.Missing -> None
        | Auth.Accountable.Convicted (a, b) ->
            check "proof is a real conflict" true (Auth.conflict a b);
            check_int "proof signer" 6 (Auth.signer a);
            None)
      outcomes
  in
  (* value consistency: all accepted values equal *)
  (match accepted_values with
  | [] -> ()
  | v :: rest -> List.iter (fun v' -> check "consistent" true (v = v')) rest);
  (* honest parties cross-forward: here the split announcement reaches both
     halves by round 2, so everyone must in fact convict *)
  List.iter
    (fun per_sender ->
      match per_sender.(6) with
      | Auth.Accountable.Convicted _ -> ()
      | _ -> Alcotest.fail "equivocation with honest forwarding must convict")
    outcomes

(* A selective sender: announces a single value to one party only. Inclusion
   may split (that is the documented gap) but value consistency must hold
   and nobody may convict an equivocation that never happened. *)
let selective ~victim ~keyring =
  let key = Auth.Keyring.key keyring victim in
  {
    Adversary.name = "selective-sender";
    passive = false;
    reads_history = false;
    initial_corruptions = (fun ~n:_ ~t:_ _ -> [ victim ]);
    corrupt_more = (fun _ -> []);
    deliver =
      (fun view ->
        if view.Adversary.round = 1 then
          [ { Types.src = victim; dst = 0; body = Auth.Accountable.forge ~key 99 } ]
        else []);
  }

let test_selective_sender_no_false_conviction () =
  let inputs = [| 10; 20; 30; 40; 50; 60; 70 |] in
  let outcomes = run_broadcast ~adversary:(selective ~victim:6 ~keyring:ring7) ~t:2 inputs in
  let values =
    List.filter_map
      (fun per_sender ->
        match per_sender.(6) with
        | Auth.Accountable.Accepted s -> Some (Auth.data s)
        | Auth.Accountable.Missing -> None
        | Auth.Accountable.Convicted _ ->
            Alcotest.fail "single signed value cannot convict")
      outcomes
  in
  match values with
  | [] -> ()
  | v :: rest ->
      check "the one signed value" true (v = 99);
      List.iter (fun v' -> check "consistent" true (v' = 99)) rest

(* Replaying an honest signature is allowed and harmless: the replayed value
   equals the original, so no conflict arises. *)
let replayer ~keyring:_ =
  let stash = ref [] in
  {
    Adversary.name = "replayer";
    passive = false;
    reads_history = false;
    initial_corruptions = (fun ~n:_ ~t:_ _ -> [ 6 ]);
    corrupt_more = (fun _ -> []);
    deliver =
      (fun view ->
        (* collect honest announcements from the rushing view, replay them
           in round 2 *)
        (if view.Adversary.round = 1 then
           stash :=
             List.filter_map
               (fun (l : _ Types.letter) ->
                 match l.body with
                 | Auth.Accountable.Announce s -> Some s
                 | _ -> None)
               (Lazy.force view.honest_outbox));
        if view.Adversary.round = 2 then
          List.init view.Adversary.n (fun dst ->
              {
                Types.src = 6;
                dst;
                body = Auth.Accountable.forward_msg !stash;
              })
        else [])
  }

let test_replay_is_harmless () =
  let inputs = [| 10; 20; 30; 40; 50; 60; 70 |] in
  let outcomes = run_broadcast ~adversary:(replayer ~keyring:ring7) ~t:2 inputs in
  List.iter
    (fun per_sender ->
      for sender = 0 to 5 do
        match per_sender.(sender) with
        | Auth.Accountable.Accepted s ->
            check "original value" true (Auth.data s = inputs.(sender))
        | _ -> Alcotest.fail "replay must not disturb honest senders"
      done)
    outcomes

let prop_random_byz_value_consistency =
  (* randomized adversary: signs random values to random subsets, forwards
     random subsets of what it saw; value consistency and no-false-
     conviction must always hold *)
  QCheck2.Test.make ~name:"accountable broadcast under random byzantine"
    ~count:80
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let keyring = ring7 in
      let key = Auth.Keyring.key keyring 6 in
      let rng = Rng.create seed in
      let adversary =
        {
          Adversary.name = "random-signed";
          passive = false;
          reads_history = false;
          initial_corruptions = (fun ~n:_ ~t:_ _ -> [ 6 ]);
          corrupt_more = (fun _ -> []);
          deliver =
            (fun view ->
              List.filter_map
                (fun dst ->
                  if Rng.bool rng then None
                  else
                    let body =
                      if view.Adversary.round = 1 || Rng.bool rng then
                        Auth.Accountable.forge ~key (Rng.int rng 5)
                      else Auth.Accountable.forward_msg []
                    in
                    Some { Types.src = 6; dst; body })
                (List.init view.Adversary.n Fun.id));
        }
      in
      let inputs = Array.init 7 (fun i -> 1000 + i) in
      let outcomes = run_broadcast ~adversary ~t:2 inputs in
      (* honest senders always accepted with their value *)
      let honest_ok =
        List.for_all
          (fun per_sender ->
            List.for_all
              (fun sender ->
                match per_sender.(sender) with
                | Auth.Accountable.Accepted s -> Auth.data s = inputs.(sender)
                | _ -> false)
              [ 0; 1; 2; 3; 4; 5 ])
          outcomes
      in
      (* byz sender: consistent accepted values; convictions genuine *)
      let byz_values =
        List.filter_map
          (fun per_sender ->
            match per_sender.(6) with
            | Auth.Accountable.Accepted s -> Some (Auth.data s)
            | Auth.Accountable.Missing -> None
            | Auth.Accountable.Convicted (a, b) ->
                if Auth.conflict a b && Auth.signer a = 6 then None
                else Some (-1) (* poison: invalid proof *))
          outcomes
      in
      let consistent =
        match byz_values with
        | [] -> true
        | v :: rest -> v >= 0 && List.for_all (( = ) v) rest
      in
      honest_ok && consistent)

let () =
  Alcotest.run "auth"
    [
      ( "signatures",
        [
          Alcotest.test_case "sign roundtrip" `Quick test_sign_roundtrip;
          Alcotest.test_case "conflict detection" `Quick test_conflict_detection;
        ] );
      ( "accountable-broadcast",
        [
          Alcotest.test_case "honest accepted" `Quick test_honest_senders_accepted;
          Alcotest.test_case "silent missing" `Quick test_silent_sender_missing;
          Alcotest.test_case "equivocator convicted" `Quick
            test_equivocator_convicted_or_consistent;
          Alcotest.test_case "selective: no false conviction" `Quick
            test_selective_sender_no_false_conviction;
          Alcotest.test_case "replay harmless" `Quick test_replay_is_harmless;
          QCheck_alcotest.to_alcotest prop_random_byz_value_consistency;
        ] );
    ]

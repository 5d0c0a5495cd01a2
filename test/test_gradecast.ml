(* Tests for gradecast: the three properties (validity, soundness, value
   agreement on grade >= 1) under honest, crashing, equivocating and random
   Byzantine leaders. *)

open Aat_engine
open Aat_gradecast
module Report = Aat_runtime.Report
module Multi = Gradecast.Multi
module Strategies = Aat_adversary.Strategies
module Rng = Aat_util.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let inputs self = float_of_int (10 * (self + 1))

let run ~n ~t ~leader ~adversary =
  let report =
    Sync_engine.run ~n ~t ~max_rounds:3
      ~protocol:(Gradecast.protocol ~leader ~inputs ~t)
      ~adversary ()
  in
  Report.honest_outputs report

(* The gradecast properties, as checkers over the honest outcomes. *)
let validity_holds ~leader_value outcomes =
  List.for_all
    (fun (r : float Gradecast.result) ->
      r.grade = Gradecast.G2 && r.value = Some leader_value)
    outcomes

let soundness_holds outcomes =
  let someone_g2 =
    List.exists (fun (r : float Gradecast.result) -> r.grade = Gradecast.G2) outcomes
  in
  (not someone_g2)
  || List.for_all
       (fun (r : float Gradecast.result) -> r.grade <> Gradecast.G0)
       outcomes

let value_agreement_holds outcomes =
  let values =
    List.filter_map (fun (r : float Gradecast.result) -> r.value) outcomes
  in
  match values with [] -> true | v :: vs -> List.for_all (( = ) v) vs

let all_properties outcomes = soundness_holds outcomes && value_agreement_holds outcomes

let test_honest_leader () =
  List.iter
    (fun (n, t) ->
      let outcomes = run ~n ~t ~leader:0 ~adversary:(Adversary.passive "none") in
      check "validity" true (validity_holds ~leader_value:10. outcomes))
    [ (4, 1); (7, 2); (10, 3); (4, 0); (13, 4) ]

let test_honest_leader_with_byz_helpers () =
  (* Leader honest, other parties Byzantine and silent: validity must still
     hold. *)
  let outcomes =
    run ~n:7 ~t:2 ~leader:0 ~adversary:(Strategies.silent ~victims:[ 5; 6 ])
  in
  check "validity despite silent byz" true (validity_holds ~leader_value:10. outcomes)

let test_silent_leader () =
  let outcomes =
    run ~n:7 ~t:2 ~leader:6 ~adversary:(Strategies.silent ~victims:[ 5; 6 ])
  in
  check "all grade 0" true
    (List.for_all
       (fun (r : float Gradecast.result) -> r.grade = Gradecast.G0 && r.value = None)
       outcomes)

let test_equivocating_leader_round1 () =
  (* Leader sends different values to the two halves in round 1, everything
     else honest: soundness and value agreement must survive. *)
  let base = Gradecast.protocol ~leader:6 ~inputs ~t:2 in
  let adversary =
    Strategies.puppeteer ~name:"equivocate" ~protocol:base ~victims:[ 6 ]
      ~twist:(fun ~round ~src:_ ~dst m ->
        match (round, m) with
        | 1, Multi.Value _ -> Some (Multi.Value (if dst < 3 then 1.0 else 2.0))
        | _ -> Some m)
  in
  let outcomes = run ~n:7 ~t:2 ~leader:6 ~adversary in
  check "soundness + agreement" true (all_properties outcomes)

let test_selective_omission_leader () =
  (* Leader sends its value to only n - 2t parties; helpers honest. *)
  let base = Gradecast.protocol ~leader:6 ~inputs ~t:2 in
  let adversary =
    Strategies.puppeteer ~name:"omit" ~protocol:base ~victims:[ 6 ]
      ~twist:(fun ~round ~src:_ ~dst m ->
        match (round, m) with
        | 1, Multi.Value _ -> if dst < 3 then Some m else None
        | _ -> Some m)
  in
  let outcomes = run ~n:7 ~t:2 ~leader:6 ~adversary in
  check "soundness + agreement" true (all_properties outcomes)

let test_lying_echoers () =
  (* Honest leader; Byzantine echoers claim a different value. Validity must
     still hold: honest echo quorum dominates. *)
  let base = Gradecast.protocol ~leader:0 ~inputs ~t:2 in
  let adversary =
    Strategies.puppeteer ~name:"lying-echo" ~protocol:base ~victims:[ 5; 6 ]
      ~twist:(fun ~round:_ ~src:_ ~dst:_ m ->
        match m with
        | Multi.Value _ -> Some m
        | Multi.Echo row -> Some (Multi.Echo (Array.map (Option.map (fun _ -> 999.)) row))
        | Multi.Vote row -> Some (Multi.Vote (Array.map (Option.map (fun _ -> 999.)) row)))
  in
  let outcomes = run ~n:7 ~t:2 ~leader:0 ~adversary in
  check "validity despite lying echoes" true (validity_holds ~leader_value:10. outcomes)

(* Random Byzantine behaviour: corrupted parties send syntactically valid but
   arbitrary messages each round; every gradecast property must hold for
   honest leaders, and soundness/value-agreement for Byzantine ones. *)
let random_forger ~seed =
  let rng = Rng.create seed in
  {
    Adversary.name = "random-forger";
    passive = false;
    reads_history = false;
    initial_corruptions = (fun ~n ~t _ -> List.init t (fun i -> n - t + i));
    corrupt_more = (fun _ -> []);
    deliver =
      (fun view ->
        let byz = Adversary.corrupted_parties view in
        let random_value () = float_of_int (Rng.int rng 100) in
        let random_row () =
          Array.init view.n (fun _ ->
              if Rng.bool rng then Some (random_value ()) else None)
        in
        List.concat_map
          (fun c ->
            List.filter_map
              (fun dst ->
                if Rng.int rng 4 = 0 then None (* sometimes omit *)
                else
                  let body =
                    match Rng.int rng 3 with
                    | 0 -> Multi.Value (random_value ())
                    | 1 -> Multi.Echo (random_row ())
                    | _ -> Multi.Vote (random_row ())
                  in
                  Some { Types.src = c; dst; body })
              (List.init view.n Fun.id))
          byz);
  }

let prop_random_byzantine =
  QCheck2.Test.make ~name:"gradecast properties under random byzantine"
    ~count:120
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 0 2))
    (fun (seed, size_class) ->
      let n, t = List.nth [ (4, 1); (7, 2); (10, 3) ] size_class in
      (* honest leaders: validity; byz leader: soundness + agreement *)
      let honest_outcomes =
        run ~n ~t ~leader:0 ~adversary:(random_forger ~seed)
      in
      let byz_outcomes =
        run ~n ~t ~leader:(n - 1) ~adversary:(random_forger ~seed)
      in
      validity_holds ~leader_value:10. honest_outcomes
      && all_properties byz_outcomes)

(* Round 3 against a reference plurality.

   [reference_plurality] is the column count [Gradecast.Multi] used before
   it tracked values as row indices, kept verbatim as the oracle: the
   first-seen value represents its group, [compare]-equal values group
   together, and the smaller value under [compare] wins on equal counts.
   Round 3's votes and grades must match it, each winner must be the very
   box the oracle picks, and the vote's [payload_bytes] (a reachable-words
   count, which sees sharing) must not move. *)
let reference_plurality table leader =
  let vals : 'v option array ref = ref (Array.make 8 None) in
  let counts = ref (Array.make 8 0) in
  let d = ref 0 in
  Array.iter
    (fun (row : 'v option array) ->
      match row.(leader) with
      | None -> ()
      | Some v ->
          let rec probe i =
            if i = !d then begin
              (if !d = Array.length !vals then begin
                 let nv = Array.make (2 * !d) None in
                 Array.blit !vals 0 nv 0 !d;
                 vals := nv;
                 let nc = Array.make (2 * !d) 0 in
                 Array.blit !counts 0 nc 0 !d;
                 counts := nc
               end);
              !vals.(!d) <- Some v;
              !counts.(!d) <- 1;
              incr d
            end
            else
              match !vals.(i) with
              | Some u when compare u v = 0 ->
                  !counts.(i) <- !counts.(i) + 1
              | _ -> probe (i + 1)
          in
          probe 0)
    table;
  let best = ref None in
  for i = 0 to !d - 1 do
    match !vals.(i) with
    | Some v -> (
        let c = !counts.(i) in
        match !best with
        | None -> best := Some (v, c)
        | Some (bv, bc) ->
            if c > bc || (c = bc && compare v bv < 0) then best := Some (v, c)
        )
    | None -> ()
  done;
  !best

let reference_vote ~n ~t echoes =
  let vote = Array.make n None in
  for leader = 0 to n - 1 do
    match reference_plurality echoes leader with
    | Some (v, c) when c >= n - t -> vote.(leader) <- Some v
    | Some _ | None -> ()
  done;
  vote

let reference_results ~n ~t votes =
  Array.init n (fun leader ->
      match reference_plurality votes leader with
      | Some (v, c) when c >= n - t -> { Gradecast.value = Some v; grade = Gradecast.G2 }
      | Some (v, c) when c >= t + 1 -> { Gradecast.value = Some v; grade = Gradecast.G1 }
      | Some _ | None -> { Gradecast.value = None; grade = Gradecast.G0 })

(* A table as data, built once per payload type. A cell names a palette
   value and how it is boxed: [Shared] carries the palette's own box (an
   honest row), [Copy] an equal value in a box of its own, [Reused] one
   [Some] box the row repeats at every leader holding that value (a
   forged row can). A row is missing (the sender's slot keeps the shared
   all-[None] row), the very array an earlier sender sent, or its own. *)
type cell = Absent | Shared of int | Copy of int | Reused of int
type row = Missing | Same_as of int | Cells of cell array
type plan = { n : int; t : int; echoes : row array; votes : row array }

type 'v payload = {
  values : 'v option array; (* one [Some] box per palette value *)
  copy : 'v -> 'v; (* an equal value in a fresh box *)
}

let palette_size = 6

(* 0. and -0. are one group under [compare] with two representatives, and
   nan equals itself: both reach the identity-first check's fallback. *)
let float_payload =
  {
    values = Array.map Option.some [| 0.; -0.; nan; 1.5; -2.25; 1e300 |];
    copy = (fun x -> x *. Sys.opaque_identity 1.);
  }

let int_payload =
  { values = Array.map Option.some [| 0; 1; -1; 7; max_int; min_int |]; copy = Fun.id }

let pair_payload =
  {
    values =
      Array.map Option.some
        [| (0., false); (-0., false); (nan, true); (1.5, true); (1.5, false); (-2.25, true) |];
    copy = (fun (x, b) -> (x *. Sys.opaque_identity 1., b));
  }

let build (p : 'v payload) rows =
  let built = Array.make (Array.length rows) None in
  Array.iteri
    (fun r row ->
      built.(r) <-
        (match row with
        | Missing -> None
        | Same_as s -> built.(s)
        | Cells cells ->
            let reused = Array.map (fun o -> Some (Option.get o)) p.values in
            Some
              (Array.map
                 (function
                   | Absent -> None
                   | Shared i -> Some (Option.get p.values.(i))
                   | Copy i -> Some (p.copy (Option.get p.values.(i)))
                   | Reused i -> reused.(i))
                 cells)))
    rows;
  built

(* Row [r]'s cells over the first [k] palette values, by column kind:
   all-None, alternating between two distinct values (count ties), or
   random. *)
let gen_cells ~n ~k columns r =
  let open QCheck2.Gen in
  let cell col =
    match columns.(col) with
    | 0 -> pure Absent
    | 1 -> oneofl [ Shared (3 * (r land 1)); Copy (3 * (r land 1)) ]
    | _ ->
        frequency
          [
            (3, pure Absent);
            (4, map (fun i -> Shared i) (int_bound (k - 1)));
            (2, map (fun i -> Copy i) (int_bound (k - 1)));
            (1, map (fun i -> Reused i) (int_bound (k - 1)));
          ]
  in
  map (fun cells -> Cells (Array.of_list cells)) (flatten_l (List.init n cell))

(* An n-row table; its column kinds come back too, so more rows can be
   drawn alike. *)
let gen_table ~n ~k =
  let open QCheck2.Gen in
  let* columns = array_size (pure n) (int_bound 5) in
  let row r =
    if r = 0 then frequency [ (1, pure Missing); (6, gen_cells ~n ~k columns r) ]
    else
      frequency
        [
          (1, pure Missing);
          (2, map (fun s -> Same_as s) (int_bound (r - 1)));
          (6, gen_cells ~n ~k columns r);
        ]
  in
  map (fun rows -> (columns, Array.of_list rows)) (flatten_l (List.init n row))

let gen_plan =
  let open QCheck2.Gen in
  let* n = int_range 1 40 in
  let* t = int_range 0 n in
  let* k = int_range 1 palette_size in
  let* _, echoes = gen_table ~n ~k in
  let+ _, votes = gen_table ~n ~k in
  { n; t; echoes; votes }

let print_plan { n; t; echoes; votes } =
  let cell = function
    | Absent -> "."
    | Shared i -> string_of_int i
    | Copy i -> Printf.sprintf "c%d" i
    | Reused i -> Printf.sprintf "r%d" i
  in
  let row = function
    | Missing -> "missing"
    | Same_as s -> Printf.sprintf "same as %d" s
    | Cells cells -> String.concat " " (Array.to_list (Array.map cell cells))
  in
  let table rows = String.concat "\n" (Array.to_list (Array.map row rows)) in
  Printf.sprintf "n=%d t=%d\nechoes:\n%s\nvotes:\n%s" n t (table echoes) (table votes)

let dense ~n rows = Array.map (function Some r -> r | None -> Array.make n None) rows

let inbox wrap rows =
  Inbox.of_list
    (List.concat
       (List.mapi
          (fun sender -> function
            | Some row -> [ { Types.sender; payload = wrap row } ]
            | None -> [])
          (Array.to_list rows)))

let vote_of ~n outbox =
  match Protocol.outbox_to_list ~n outbox with
  | (_, Multi.Vote v) :: _ -> v
  | _ -> Alcotest.fail "round 3 sent no vote"

let same_box a b =
  match (a, b) with Some x, Some y -> x == y | None, None -> true | _ -> false

(* A party's vote against the reference on its own echo table: equal,
   the same boxes, and the same [payload_bytes]. *)
let vote_matches ~n ~t echoes vote =
  let expected = reference_vote ~n ~t (dense ~n echoes) in
  let bytes v = Aat_telemetry.Telemetry.payload_bytes (Multi.Vote v) in
  compare vote expected = 0
  && Array.for_all2 same_box vote expected
  && bytes vote = bytes expected

let results_match ~n ~t votes results =
  let expected = reference_results ~n ~t (dense ~n votes) in
  compare results expected = 0
  && Array.for_all2
       (fun (a : _ Gradecast.result) (b : _ Gradecast.result) -> same_box a.value b.value)
       results expected

let round3_matches_reference (p : 'v payload) { n; t; echoes; votes } =
  let echoes = build p echoes and votes = build p votes in
  let st =
    Multi.start ~share:(Multi.share ()) ~n ~t ~self:0 ~own:(Option.get p.values.(0))
  in
  let st = Multi.receive ~round:2 ~inbox:(inbox (fun r -> Multi.Echo r) echoes) st in
  let vote = vote_of ~n (Multi.send ~round:3 st) in
  let st = Multi.receive ~round:3 ~inbox:(inbox (fun r -> Multi.Vote r) votes) st in
  vote_matches ~n ~t echoes vote && results_match ~n ~t votes (Multi.results st)

let prop_round3_reference =
  QCheck2.Test.make ~name:"round 3 = reference plurality (float, int, float*bool)"
    ~count:400 ~print:print_plan gen_plan (fun plan ->
      round3_matches_reference float_payload plan
      && round3_matches_reference int_payload plan
      && round3_matches_reference pair_payload plan)

(* Round 3 over one share, against the same reference.

   Several parties share a [Multi.share] through two batches
   ([Multi.next]), in a random party order. A table is [base] rows that
   every party holds by reference, with a few slots swapped per party for
   the share's empty row ([Missing]) or for a row of the party's own; the
   last slot is swapped most often, so a table that differs from another
   only there must still miss. The share then serves a second run: either
   the first run's very rows again at a new [t] (its batches reversed, so
   its first tables are the ones the share saw last), or a fresh [n] and
   [t]. Every party's vote and grades must match the reference on its own
   table. *)
type shared_table = { base : row array; swaps : (int * row) list array }

type batch = {
  echo_table : shared_table;
  vote_table : shared_table;
  send_order : int list;
  receive_order : int list;
}

type shared_run = { rn : int; rt : int; batches : batch list }

type second_run = Replay of int | Fresh of shared_run
type share_plan = { parties : int; first_run : shared_run; second_run : second_run }

let gen_shared_table ~parties ~n ~k =
  let open QCheck2.Gen in
  let* columns, base = gen_table ~n ~k in
  let swap =
    let* slot = frequency [ (2, pure (n - 1)); (3, int_bound (n - 1)) ] in
    let+ row = frequency [ (1, pure Missing); (2, gen_cells ~n ~k columns slot) ] in
    (slot, row)
  in
  let+ swaps =
    array_size (pure parties)
      (frequency [ (2, pure []); (3, list_size (int_range 1 2) swap) ])
  in
  { base; swaps }

let gen_shared_run ~parties ~n ~t =
  let open QCheck2.Gen in
  let* k = int_range 1 palette_size in
  let order = shuffle_l (List.init parties Fun.id) in
  let batch =
    let* echo_table = gen_shared_table ~parties ~n ~k in
    let* vote_table = gen_shared_table ~parties ~n ~k in
    let* send_order = order in
    let+ receive_order = order in
    { echo_table; vote_table; send_order; receive_order }
  in
  let+ batches = flatten_l [ batch; batch ] in
  { rn = n; rt = t; batches }

let gen_share_plan =
  let open QCheck2.Gen in
  let* parties = int_range 2 6 in
  let* n = int_range 1 30 in
  let* t = int_range 0 n in
  let* first_run = gen_shared_run ~parties ~n ~t in
  let+ second_run =
    frequency
      [
        (1, map (fun t -> Replay t) (int_range 0 n));
        ( 1,
          let* n' = int_range 1 30 in
          let* t' = frequency [ (1, pure (min t n')); (2, int_range 0 n') ] in
          map (fun r -> Fresh r) (gen_shared_run ~parties ~n:n' ~t:t') );
      ]
  in
  { parties; first_run; second_run }

let print_share_plan { parties; first_run; second_run } =
  let row = function
    | Missing -> "missing"
    | Same_as s -> Printf.sprintf "same as %d" s
    | Cells _ -> "own"
  in
  let table { base; swaps } =
    Printf.sprintf "[%s] swaps [%s]"
      (String.concat "; " (Array.to_list (Array.map row base)))
      (String.concat "; "
         (Array.to_list
            (Array.map
               (fun l ->
                 String.concat ","
                   (List.map (fun (slot, r) -> Printf.sprintf "%d:%s" slot (row r)) l))
               swaps)))
  in
  let order l = String.concat "," (List.map string_of_int l) in
  let run { rn; rt; batches } =
    Printf.sprintf "n=%d t=%d\n%s" rn rt
      (String.concat "\n"
         (List.map
            (fun b ->
              Printf.sprintf "echoes %s\nvotes %s\nsend %s receive %s" (table b.echo_table)
                (table b.vote_table) (order b.send_order) (order b.receive_order))
            batches))
  in
  Printf.sprintf "parties=%d\n%s\nthen %s" parties (run first_run)
    (match second_run with
    | Replay t -> Printf.sprintf "replay at t=%d" t
    | Fresh r -> run r)

(* Each party's table: the base rows, then its swaps. *)
let build_shared (p : 'v payload) parties { base; swaps } =
  let base = build p base in
  Array.init parties (fun party ->
      let rows = Array.copy base in
      List.iter (fun (slot, row) -> rows.(slot) <- (build p [| row |]).(0)) swaps.(party);
      rows)

let drive_shared (p : 'v payload) share parties { rn = n; rt = t; batches } built =
  let own party = Option.get p.values.(party mod palette_size) in
  let states = Array.make parties None in
  List.for_all2
    (fun b (echoes, votes) ->
      Array.iteri
        (fun party st ->
          states.(party) <-
            Some
              (match st with
              | None -> Multi.start ~share ~n ~t ~self:(party mod n) ~own:(own party)
              | Some st -> Multi.next st ~own:(own party)))
        states;
      let st party = Option.get states.(party) in
      Array.iteri
        (fun party _ ->
          states.(party) <-
            Some
              (Multi.receive ~round:2
                 ~inbox:(inbox (fun r -> Multi.Echo r) echoes.(party))
                 (st party)))
        states;
      let voted =
        List.for_all
          (fun party ->
            vote_matches ~n ~t echoes.(party) (vote_of ~n (Multi.send ~round:3 (st party))))
          b.send_order
      in
      voted
      && List.for_all
           (fun party ->
             let s =
               Multi.receive ~round:3 ~inbox:(inbox (fun r -> Multi.Vote r) votes.(party))
                 (st party)
             in
             states.(party) <- Some s;
             results_match ~n ~t votes.(party) (Multi.results s))
           b.receive_order)
    batches built

let shared_rounds_match (p : 'v payload) { parties; first_run; second_run } =
  let share = Multi.share () in
  let build_run r =
    List.map
      (fun b -> (build_shared p parties b.echo_table, build_shared p parties b.vote_table))
      r.batches
  in
  let built = build_run first_run in
  let first = drive_shared p share parties first_run built in
  let second =
    match second_run with
    | Replay t ->
        drive_shared p share parties
          { first_run with rt = t; batches = List.rev first_run.batches }
          (List.rev built)
    | Fresh r -> drive_shared p share parties r (build_run r)
  in
  first && second

let prop_shared_round3 =
  QCheck2.Test.make ~name:"round 3 on one share = reference per party" ~count:100
    ~print:print_share_plan gen_share_plan (fun plan ->
      shared_rounds_match float_payload plan
      && shared_rounds_match int_payload plan
      && shared_rounds_match pair_payload plan)

(* Round 3's minor words per party, send and receive, with honest rows at
   n = 64 and party [self] on [share_of self]; the run must be a correct
   honest one. *)
let round3_words ~share_of =
  let n = 64 and t = 21 in
  let deliver sent =
    (* sent.(s) is party s's outbox; inbox.(p) what p receives *)
    let sent = Array.map (Protocol.outbox_to_list ~n) sent in
    Array.init n (fun p ->
        Inbox.of_list
          (List.concat
             (List.mapi
                (fun sender out -> [ { Types.sender; payload = List.assoc p out } ])
                (Array.to_list sent))))
  in
  let states =
    Array.init n (fun self ->
        Multi.start ~share:(share_of self) ~n ~t ~self ~own:(float_of_int self))
  in
  let exchange ~round states =
    let inboxes = deliver (Array.map (Multi.send ~round) states) in
    Array.mapi (fun p st -> Multi.receive ~round ~inbox:inboxes.(p) st) states
  in
  let states = exchange ~round:2 (exchange ~round:1 states) in
  let words f =
    let before = Gc.minor_words () in
    let r = f () in
    (Gc.minor_words () -. before, r)
  in
  let sent = Array.map (fun st -> words (fun () -> Multi.send ~round:3 st)) states in
  let inboxes = deliver (Array.map snd sent) in
  let received =
    Array.mapi
      (fun p st -> words (fun () -> Multi.receive ~round:3 ~inbox:inboxes.(p) st))
      states
  in
  Array.iter
    (fun (_, st) ->
      Array.iteri
        (fun leader (r : float Gradecast.result) ->
          check "honest leader graded 2" true
            (r.grade = Gradecast.G2 && r.value = Some (float_of_int leader)))
        (Multi.results st))
    received;
  (Array.map fst sent, Array.map fst received)

(* Round 3 costs O(n) words per party, not one buffer, closure and tuple
   per leader, even when every party counts for itself (a share each). *)
let test_round3_allocation () =
  let sent, received = round3_words ~share_of:(fun _ -> Multi.share ()) in
  let n = Array.length sent in
  let per_party a = Array.fold_left ( +. ) 0. a /. float_of_int n in
  let bound = float_of_int (20 * n) in
  let send_words = per_party sent in
  let receive_words = per_party received in
  check (Printf.sprintf "send %.0f words <= %.0f" send_words bound) true (send_words <= bound);
  check
    (Printf.sprintf "receive %.0f words <= %.0f" receive_words bound)
    true (receive_words <= bound)

(* On one share, the first party counts each table and every later party
   takes its vote and grades: about 4 and 21 words, where counting costs
   about 400 and 610. *)
let test_round3_shared_allocation () =
  let share = Multi.share () in
  let sent, received = round3_words ~share_of:(fun _ -> share) in
  Array.iteri
    (fun p w ->
      if p > 0 then begin
        check (Printf.sprintf "party %d send %.0f words <= 40" p w) true (w <= 40.);
        let r = received.(p) in
        check (Printf.sprintf "party %d receive %.0f words <= 40" p r) true (r <= 40.)
      end)
    sent

let test_rounds_constant () =
  check_int "three rounds" 3 Multi.rounds;
  let report =
    Sync_engine.run ~n:4 ~t:1 ~max_rounds:3
      ~protocol:(Gradecast.protocol ~leader:0 ~inputs ~t:1)
      ~adversary:(Adversary.passive "none") ()
  in
  check_int "terminates in exactly 3" 3 report.rounds_used

let test_grade_utils () =
  check_int "g0" 0 (Gradecast.grade_to_int Gradecast.G0);
  check_int "g1" 1 (Gradecast.grade_to_int Gradecast.G1);
  check_int "g2" 2 (Gradecast.grade_to_int Gradecast.G2)

let () =
  Alcotest.run "gradecast"
    [
      ( "properties",
        [
          Alcotest.test_case "honest leader validity" `Quick test_honest_leader;
          Alcotest.test_case "honest leader, silent byz" `Quick
            test_honest_leader_with_byz_helpers;
          Alcotest.test_case "silent leader" `Quick test_silent_leader;
          Alcotest.test_case "equivocating leader" `Quick
            test_equivocating_leader_round1;
          Alcotest.test_case "selective omission" `Quick
            test_selective_omission_leader;
          Alcotest.test_case "lying echoers" `Quick test_lying_echoers;
          Alcotest.test_case "rounds" `Quick test_rounds_constant;
          Alcotest.test_case "grade utils" `Quick test_grade_utils;
        ] );
      ( "random-byzantine",
        [ QCheck_alcotest.to_alcotest prop_random_byzantine ] );
      ( "plurality",
        [
          QCheck_alcotest.to_alcotest prop_round3_reference;
          Alcotest.test_case "round 3 allocates O(n) words per party" `Quick
            test_round3_allocation;
          QCheck_alcotest.to_alcotest prop_shared_round3;
          Alcotest.test_case "round 3 on one share: later parties count nothing" `Quick
            test_round3_shared_allocation;
        ] );
    ]

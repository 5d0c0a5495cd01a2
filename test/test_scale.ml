(* Regression net for the flat-array transport refactor (PR 7).

   Three layers of evidence that the rewrite changed the constant factors
   and nothing else:

   - a qcheck equivalence drive of the flat bitmatrix mailbox against a
     re-implementation of the seed's list-and-hashtable mailbox, over
     random post / post_last_wins / fault-filter scripts;
   - pinned flight-recorder digests for every protocol runner at n = 7
     (and, behind AAT_SCALE_TESTS=1 — wired into @scale-smoke — at
     n = 300): the digest covers outcome, verdict and full telemetry
     trace, so a match is bit-identity of everything observable;
   - replay of the committed BENCH_GAP champion records: the records were
     produced by the pre-refactor engine, so a clean replay pins the
     refactored engine to historical behavior, not just to itself. *)

open Treeagree

let check = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* 1. flat mailbox vs the seed's list-based transport, as an oracle *)

module Oracle = struct
  (* The pre-refactor mailbox delivery core, verbatim semantics: hashtable
     per-pair dedup, per-recipient cons lists re-sorted on read, fault
     decision ahead of dedup. Accounting/screening are unchanged by the
     refactor and are not duplicated here. *)
  type 'msg t = {
    n : int;
    seen : (Types.party_id * Types.party_id, unit) Hashtbl.t;
    inboxes : (Types.party_id, 'msg Types.envelope list) Hashtbl.t;
    mutable delivered_rev : 'msg Types.letter list;
    mutable filter : Mailbox.fault_filter option;
    mutable round : Types.round;
  }

  let create ~n =
    {
      n;
      seen = Hashtbl.create 64;
      inboxes = Hashtbl.create 16;
      delivered_rev = [];
      filter = None;
      round = 0;
    }

  let set_fault_filter o f = o.filter <- Some f

  let begin_round ~round o =
    o.round <- round;
    Hashtbl.reset o.seen;
    Hashtbl.reset o.inboxes;
    o.delivered_rev <- []

  let post o (l : 'msg Types.letter) =
    let verdict =
      match o.filter with
      | None -> `Deliver
      | Some f -> (
          match f ~round:o.round ~src:l.src ~dst:l.dst with
          | Mailbox.Drop -> `Drop
          | Mailbox.Deliver | Mailbox.Duplicate | Mailbox.Delay _ -> `Deliver)
    in
    if verdict = `Deliver && not (Hashtbl.mem o.seen (l.src, l.dst)) then begin
      Hashtbl.replace o.seen (l.src, l.dst) ();
      o.delivered_rev <- l :: o.delivered_rev;
      let prev = Option.value ~default:[] (Hashtbl.find_opt o.inboxes l.dst) in
      Hashtbl.replace o.inboxes l.dst
        ({ Types.sender = l.src; payload = l.body } :: prev)
    end

  let post_last_wins o letters = List.iter (post o) (List.rev letters)

  let inbox o p =
    Option.value ~default:[] (Hashtbl.find_opt o.inboxes p)
    |> List.sort (fun (a : _ Types.envelope) b -> compare a.sender b.sender)

  let delivered o = o.delivered_rev
end

(* A pure drop filter: no internal RNG state, so feeding it to both
   mailboxes cannot desynchronize a stream (the real probabilistic
   filters are stateful, but the engines call them on identical letter
   sequences — which is exactly what this test establishes). *)
let drop_filter ~salt ~round ~src ~dst =
  if ((round * 31) + (src * 7) + (dst * 3) + salt) mod 5 = 0 then Mailbox.Drop
  else Mailbox.Deliver

let prop_mailbox_matches_oracle =
  QCheck2.Test.make ~name:"flat mailbox == seed list mailbox" ~count:300
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 3 + Rng.int rng 7 in
      let mb : int Mailbox.t = Mailbox.create ~n in
      let o : int Oracle.t = Oracle.create ~n in
      (if Rng.bool rng then begin
         let salt = Rng.int rng 100 in
         Mailbox.set_fault_filter mb (drop_filter ~salt);
         Oracle.set_fault_filter o (drop_filter ~salt)
       end);
      let letter () =
        {
          Types.src = Rng.int rng n;
          dst = Rng.int rng n;
          body = Rng.int rng 1000;
        }
      in
      for round = 1 to 4 do
        Mailbox.begin_round ~round mb;
        Oracle.begin_round ~round o;
        (* a burst of first-posted-wins singles... *)
        for _ = 1 to Rng.int rng (3 * n * n) do
          let l = letter () in
          Mailbox.post mb l;
          Oracle.post o l
        done;
        (* ...then a last-submitted-wins adversary batch *)
        let batch = List.init (Rng.int rng (n * n)) (fun _ -> letter ()) in
        Mailbox.post_last_wins mb batch;
        Oracle.post_last_wins o batch;
        for p = 0 to n - 1 do
          if Inbox.to_list (Mailbox.inbox mb p) <> Oracle.inbox o p then
            QCheck2.Test.fail_reportf "round %d: inbox %d differs" round p
        done;
        let d_mb = Mailbox.delivered mb and d_o = Oracle.delivered o in
        if d_mb <> d_o then
          QCheck2.Test.fail_reportf "round %d: delivered list differs" round;
        if Mailbox.delivered_count mb <> List.length d_o then
          QCheck2.Test.fail_reportf "round %d: delivered count differs" round
      done;
      true)

(* the delivered counter keeps counting when list tracking is off *)
let test_untracked_count () =
  let mb : int Mailbox.t = Mailbox.create ~n:4 in
  Mailbox.set_delivered_tracking mb false;
  Mailbox.begin_round ~round:1 mb;
  List.iter (Mailbox.post mb)
    [
      { Types.src = 0; dst = 1; body = 10 };
      { Types.src = 0; dst = 1; body = 11 };
      (* deduped *)
      { Types.src = 2; dst = 3; body = 12 };
    ];
  check "list suppressed" true (Mailbox.delivered mb = []);
  Alcotest.(check int) "count maintained" 2 (Mailbox.delivered_count mb);
  check "inbox intact" true
    (List.map (fun (e : _ Types.envelope) -> (e.sender, e.payload))
       (Inbox.to_list (Mailbox.inbox mb 1))
    = [ (0, 10) ])

(* ------------------------------------------------------------------ *)
(* 2. pinned flight-recorder digests — every protocol runner, both
      engines, same specs the seed engine was measured on *)

let golden_spec ~n ~t name protocol tree inputs adversary =
  {
    Campaign.Spec.name;
    protocol;
    tree;
    n = Campaign.Spec.Exactly n;
    t_budget = Campaign.Spec.Fixed_t t;
    inputs;
    adversary;
    faults = Campaign.Spec.No_faults;
    watchdogs = true;
    repetitions = 1;
    base_seed = 7;
  }

let golden_specs ~n ~t =
  let open Campaign.Spec in
  let star9 = Star_tree (Exactly 9) and path12 = Path_tree (Exactly 12) in
  [
    golden_spec ~n ~t "tree-aa" Tree_aa star9 Random_vertices Random_silent;
    golden_spec ~n ~t "nr-baseline" Nr_baseline star9 Random_vertices
      Random_silent;
    golden_spec ~n ~t "path-aa" Path_aa path12 Random_vertices Random_silent;
    golden_spec ~n ~t "known-path-aa" Known_path_aa path12 Random_vertices
      Random_silent;
    golden_spec ~n ~t "realaa" (Real_aa { eps = 1.0 }) path12
      (Linspace_reals 1000.) Random_silent;
    golden_spec ~n ~t "iterated-midpoint"
      (Iterated_midpoint { eps = 1.0 })
      path12 (Linspace_reals 1000.) Random_silent;
    golden_spec ~n ~t "async-tree-aa" Async_tree_aa star9 Random_vertices
      Passive;
    golden_spec ~n ~t "round-sim-tree-aa" Round_sim_tree_aa star9
      Random_vertices Passive;
  ]

(* Digests recorded from the pre-refactor (seed) engine on these exact
   specs with task_seed 42. Regenerate only for a deliberate,
   semantics-changing engine release. *)
let golden_n7 =
  [
    ("tree-aa", "93b2093ca77120ef1e33ebe04f68bf70");
    ("nr-baseline", "7ceb1029d6c42124c8975d2bc8dca326");
    ("path-aa", "6c0ba5dda902b5d529db8d9809261be5");
    ("known-path-aa", "bb75d844577f082a49dcc652393b12d5");
    ("realaa", "6a190ac4e64accc69f9289e3fe7826a3");
    ("iterated-midpoint", "57efe0092d8eea3c24c70a6b261027cf");
    ("async-tree-aa", "dee502349697facaba9f6362db0ad6b6");
    ("round-sim-tree-aa", "f95b485566c3db8efa008decb9c1646f");
  ]

let golden_n300 =
  [
    ("tree-aa", "947badc98e6c01207d9b8355abac23d0");
    ("nr-baseline", "681a2ba1ee64fa10110c1ed316e34ae9");
    ("path-aa", "45e2ecb4e255d4828aba8dc2c4c4eafe");
    ("known-path-aa", "bc0055e6a41289dc7fcb7ebfab1f3238");
    ("realaa", "b5fb8b491fee7d17cedc4ea65ddc328a");
    ("iterated-midpoint", "7986f6f4801f0756a08d4c688e4cc451");
  ]

let check_golden ~specs ~n expected =
  List.iter
    (fun (name, want) ->
      let spec = List.find (fun s -> s.Campaign.Spec.name = name) specs in
      match Recorder.record spec ~task_seed:42 with
      | Error m -> Alcotest.failf "%s (n=%d): record failed: %s" name n m
      | Ok (r, _) -> (
          match r.Recorder.digest with
          | None -> Alcotest.failf "%s (n=%d): record carries no digest" name n
          | Some got ->
              Alcotest.(check string)
                (Printf.sprintf "%s n=%d digest" name n)
                want got))
    expected

let test_goldens_n7 () =
  check_golden ~specs:(golden_specs ~n:7 ~t:2) ~n:7 golden_n7

(* Fault-plan cells, watchdogs on. The passive cells pin the send path
   with a mid-run crash and omission, the silent-adversary cells the
   same path under corruptions (three crash victims, so at least one is
   honest whichever two parties the adversary silences), async-tree-aa
   the async engine's crash handling. Recorded while a crash still retracted
   the crashing party's letters after its send; landing the crash before
   the send must give the same bytes. *)
let golden_fault_specs ~n ~t =
  let open Campaign.Spec in
  let star9 = Star_tree (Exactly 9) and path12 = Path_tree (Exactly 12) in
  let with_plan plan s =
    match Fault_plan_io.parse plan with
    | Ok p -> { s with faults = Fault_plan p }
    | Error m -> failwith m
  in
  let passive = with_plan "crash:1@2;omission:0.15" in
  let active = with_plan "crash:0@2;crash:3@3;crash:5@4;omission:0.1" in
  [
    passive (golden_spec ~n ~t "tree-aa" Tree_aa star9 Random_vertices Passive);
    passive
      (golden_spec ~n ~t "realaa" (Real_aa { eps = 1.0 }) path12
         (Linspace_reals 1000.) Passive);
    active
      (golden_spec ~n ~t "nr-baseline" Nr_baseline star9 Random_vertices
         Random_silent);
    active
      (golden_spec ~n ~t "iterated-midpoint"
         (Iterated_midpoint { eps = 1.0 })
         path12 (Linspace_reals 1000.) Random_silent);
    passive
      (golden_spec ~n ~t "async-tree-aa" Async_tree_aa star9 Random_vertices
         Passive);
  ]

let golden_faults_n7 =
  [
    ("tree-aa", "55f9a6bdaa74b7b3683c0a94626b2836");
    ("realaa", "e32bc7c3b9f01a353c63f8cc6d4cb035");
    ("nr-baseline", "af9004026a70dea0e15ba449a873ca22");
    ("iterated-midpoint", "32966ae557c6bcf03b5413817857449d");
    ("async-tree-aa", "4053c34cade5cb913f120fff31fdcd9a");
  ]

let test_fault_goldens_n7 () =
  check_golden ~specs:(golden_fault_specs ~n:7 ~t:2) ~n:7 golden_faults_n7

(* Spoiler cells, watchdogs on: the send path under the phased
   tree spoiler and the RealAA spoiler. The outcome digest pins what
   honest parties decided; the md5 of the whole record also pins every
   round's telemetry, [adversary_bytes] included, so a change to how the
   spoiler builds its rows shows up even when no decision moves. *)
let golden_spoiler_specs ~n ~t =
  let open Campaign.Spec in
  [
    golden_spec ~n ~t "tree-aa" Tree_aa (Star_tree (Exactly 9)) Random_vertices
      Tree_spoiler;
    golden_spec ~n ~t "realaa" (Real_aa { eps = 1.0 })
      (Path_tree (Exactly 12)) (Linspace_reals 1000.) Real_spoiler;
  ]

let golden_spoiler_n7 =
  [
    ( "tree-aa",
      "4a5f9ff5f079a7463216453e6d552e5c",
      "336efd65a3db89fe8f7c9b5010c2bfe4" );
    ( "realaa",
      "f78d39ac681461ee9d41558959c07d12",
      "c88c0e9d2b60c251dae7ef00f592db52" );
  ]

let check_record_goldens ~what specs expected =
  List.iter
    (fun (name, want_digest, want_record) ->
      let spec = List.find (fun s -> s.Campaign.Spec.name = name) specs in
      match Recorder.record spec ~task_seed:42 with
      | Error m -> Alcotest.failf "%s %s: record failed: %s" name what m
      | Ok (r, _) ->
          Alcotest.(check (option string))
            (Printf.sprintf "%s %s outcome digest" name what)
            (Some want_digest) r.Recorder.digest;
          Alcotest.(check string)
            (Printf.sprintf "%s %s record md5" name what)
            want_record
            (Digest.to_hex (Digest.string (Recorder.to_string r))))
    expected

let test_spoiler_goldens_n7 () =
  check_record_goldens ~what:"spoiler" (golden_spoiler_specs ~n:7 ~t:2)
    golden_spoiler_n7

(* Omission cells on the send path, pinned like the spoiler cells.
   Under the tree spoiler, Byzantine and honest letters cross one fault
   filter, so the record pins the order of its draws across both; the
   crash adversary corrupts live parties mid-run and retracts the
   letters they already sent that round. *)
let golden_omission_specs ~n ~t =
  let open Campaign.Spec in
  let star9 = Star_tree (Exactly 9) in
  let omission s =
    match Fault_plan_io.parse "omission:0.1" with
    | Ok p -> { s with faults = Fault_plan p }
    | Error m -> failwith m
  in
  [
    omission
      (golden_spec ~n ~t "tree-aa-spoiler" Tree_aa star9 Random_vertices
         Tree_spoiler);
    omission
      (golden_spec ~n ~t "tree-aa-crash" Tree_aa star9 Random_vertices
         Random_crash);
  ]

let golden_omission_n7 =
  [
    ( "tree-aa-spoiler",
      "5f1cd048331da27c51097709c01d00d2",
      "6dc28b9cd5dd7e66f4ab6540e8998ce2" );
    ( "tree-aa-crash",
      "fd0c2fb407a0654e835de88899780436",
      "e858725a39bd8316907f2896ffbbc478" );
  ]

let test_omission_goldens_n7 () =
  check_record_goldens ~what:"omission" (golden_omission_specs ~n:7 ~t:2)
    golden_omission_n7

(* The async pending pool under letter-level faults: [delay] stamps
   letters into the future, so pool keys arrive out of order, and
   [duplicate] enqueues one letter twice. Pinned like the spoiler cells,
   by outcome digest and by the md5 of the whole record. *)
let golden_async_fault_specs ~n ~t =
  let open Campaign.Spec in
  match Fault_plan_io.parse "delay:0.3:40;duplicate:0.1" with
  | Error m -> failwith m
  | Ok plan ->
      [
        {
          (golden_spec ~n ~t "async-tree-aa" Async_tree_aa
             (Star_tree (Exactly 9)) Random_vertices Passive)
          with
          faults = Fault_plan plan;
        };
      ]

let golden_async_fault_n7 =
  [
    ( "async-tree-aa",
      "f6758d9f2a712fdc7683c028a0106be5",
      "40e5855422da06f6f100d98abd9b5de9" );
  ]

let test_async_fault_golden_n7 () =
  check_record_goldens ~what:"delay/duplicate"
    (golden_async_fault_specs ~n:7 ~t:2)
    golden_async_fault_n7

(* The gradecast wedge builds a row per (sender, recipient) pair, so no
   two honest parties hold the same echo or vote table. Pinned like the
   spoiler cells, inside the model at n=7, t=2 and at the n=3t boundary
   (n=9, t=3) where the wedge splits the honest parties. *)
let golden_wedge_specs ~n ~t =
  let open Campaign.Spec in
  [
    golden_spec ~n ~t
      (Printf.sprintf "realaa-wedge-n%d" n)
      (Real_aa { eps = 1.0 })
      (Path_tree (Exactly 12)) (Linspace_reals 1000.) Gradecast_wedge;
  ]

let golden_wedge_n7 =
  [
    ( "realaa-wedge-n7",
      "427686096bba9392d89ae4db1db2a907",
      "ea3e971272055c8cadf698fc760f9edf" );
  ]

let golden_wedge_n9 =
  [
    ( "realaa-wedge-n9",
      "03f2574af3923b7d22c44ffbdbbc2a25",
      "2501999957a0f2d0d74ae6b29fae4c03" );
  ]

let test_wedge_goldens () =
  check_record_goldens ~what:"wedge" (golden_wedge_specs ~n:7 ~t:2)
    golden_wedge_n7;
  check_record_goldens ~what:"wedge" (golden_wedge_specs ~n:9 ~t:3)
    golden_wedge_n9

(* A history-reading adversary: the gradecast leader is a puppeteer that
   replays the honest protocol from the delivered traffic and equivocates
   on its round-1 value. The digest covers every honest output and every
   recorded trace letter, rendered exactly (floats in hex). *)
let test_puppeteer_golden_n7 () =
  let module Multi = Gradecast.Multi in
  let inputs self = float_of_int (10 * (self + 1)) in
  let base = Gradecast.protocol ~leader:6 ~inputs ~t:2 in
  let adversary =
    Strategies.puppeteer ~name:"equivocate" ~protocol:base ~victims:[ 6 ]
      ~twist:(fun ~round ~src:_ ~dst m ->
        match (round, m) with
        | 1, Multi.Value _ -> Some (Multi.Value (if dst < 3 then 1.0 else 2.0))
        | _ -> Some m)
  in
  let report =
    Engine.run ~n:7 ~t:2 ~max_rounds:3 ~record_trace:true ~protocol:base
      ~adversary ()
  in
  let b = Buffer.create 4096 in
  let value = function
    | None -> Buffer.add_char b '_'
    | Some v -> Printf.bprintf b "%h" v
  in
  let row r = Array.iter (fun v -> value v; Buffer.add_char b ',') r in
  List.iter
    (fun (p, (r : float Gradecast.result)) ->
      Printf.bprintf b "p%d:g%d:" p (Gradecast.grade_to_int r.grade);
      value r.value;
      Buffer.add_char b '\n')
    report.Report.outputs;
  List.iteri
    (fun i round ->
      Printf.bprintf b "round %d\n" (i + 1);
      List.iter
        (fun (l : float Multi.msg Types.letter) ->
          Printf.bprintf b "%d>%d:" l.src l.dst;
          (match l.body with
          | Multi.Value v -> value (Some v)
          | Multi.Echo r -> Buffer.add_char b 'E'; row r
          | Multi.Vote r -> Buffer.add_char b 'V'; row r);
          Buffer.add_char b '\n')
        round)
    report.Report.trace;
  Alcotest.(check string) "puppeteer outputs + trace digest"
    "bf54f6fe9b26b429c175f0d0d584ea3e"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* The n = 300 rows take ~1.5 min together — out of tier-1, attached to
   @scale-smoke via AAT_SCALE_TESTS=1. *)
let test_goldens_n300 () =
  match Sys.getenv_opt "AAT_SCALE_TESTS" with
  | Some "1" ->
      check_golden ~specs:(golden_specs ~n:300 ~t:99) ~n:300 golden_n300
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* 3. committed GAP champion records replay without divergence *)

let find_repo_root () =
  let rec up dir depth =
    if depth > 8 then None
    else if Sys.file_exists (Filename.concat dir "records/gap") then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else up parent (depth + 1)
  in
  up (Sys.getcwd ()) 0

let test_champion_replay () =
  match find_repo_root () with
  | None -> Alcotest.fail "records/gap not found above cwd"
  | Some root ->
      let dir = Filename.concat root "records/gap" in
      let files =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f ->
               String.length f >= 8 && String.sub f 0 8 = "champion")
        |> List.sort compare
      in
      check "champion records present" true (List.length files >= 4);
      List.iter
        (fun f ->
          let path = Filename.concat dir f in
          match Recorder.read_file path with
          | Error m -> Alcotest.failf "%s: unreadable: %s" f m
          | Ok record -> (
              match Replay.run record with
              | Error m -> Alcotest.failf "%s: replay failed: %s" f m
              | Ok replay -> (
                  match replay.Replay.verdict with
                  | Ok () -> ()
                  | Error d ->
                      Alcotest.failf "%s: DIVERGED — %a" f Replay.pp_divergence
                        d)))
        files

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "scale"
    [
      ( "mailbox",
        [
          QCheck_alcotest.to_alcotest prop_mailbox_matches_oracle;
          Alcotest.test_case "untracked delivered count" `Quick
            test_untracked_count;
        ] );
      ( "goldens",
        [
          Alcotest.test_case "n=7 all protocols" `Quick test_goldens_n7;
          Alcotest.test_case "n=7 fault-plan cells" `Quick
            test_fault_goldens_n7;
          Alcotest.test_case "n=7 spoiler cells" `Quick test_spoiler_goldens_n7;
          Alcotest.test_case "n=7 omission cells" `Quick
            test_omission_goldens_n7;
          Alcotest.test_case "n=7 async delay/duplicate cell" `Quick
            test_async_fault_golden_n7;
          Alcotest.test_case "n=7 puppeteer trace" `Quick
            test_puppeteer_golden_n7;
          Alcotest.test_case "n=7 and n=9 gradecast wedge cells" `Quick
            test_wedge_goldens;
          Alcotest.test_case "n=300 (AAT_SCALE_TESTS=1)" `Slow
            test_goldens_n300;
        ] );
      ( "champions",
        [ Alcotest.test_case "GAP records replay clean" `Quick
            test_champion_replay ] );
    ]

(* Tests for the telemetry layer: the stats sink's per-round aggregates must
   reconstruct the engine report exactly, convergence snapshots must witness
   the contraction the paper proves, the JSONL sink's output must round-trip
   through the parser, and the null sink must be observably absent. *)

open Treeagree

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* fixtures *)

(* A pool of adversaries spanning the strategies the suite uses elsewhere:
   the telemetry invariants must hold against any of them. *)
let adversary_of ~n ~t idx =
  if t = 0 then Adversary.passive "none"
  else
    match idx mod 4 with
    | 0 -> Adversary.passive "none"
    | 1 -> Strategies.silent ~victims:(List.init t (fun i -> n - 1 - i))
    | 2 -> Strategies.crash ~at_round:2 ~victims:(List.init t (fun i -> i))
    | _ -> Strategies.random_silent ~count:t

let random_instance seed =
  let rng = Rng.create seed in
  let n = 4 + Rng.int rng 7 in
  let t = Rng.int rng (((n - 1) / 3) + 1) in
  let tree = Generate.random rng (2 + Rng.int rng 18) in
  let inputs = Array.init n (fun _ -> Rng.int rng (Tree.n_vertices tree)) in
  let adversary = adversary_of ~n ~t (Rng.int rng 4) in
  (n, t, tree, inputs, adversary)

let run_with_stats seed =
  let _, t, tree, inputs, adversary = random_instance seed in
  let stats = Telemetry.Stats.create () in
  let report =
    Tree_aa.run ~seed ~tree ~inputs ~t ~adversary
      ~telemetry:(Telemetry.Stats.sink stats) ()
  in
  (stats, report)

(* ------------------------------------------------------------------ *)
(* property: the stats sink reconstructs the report *)

let prop_stats_match_report =
  QCheck2.Test.make ~name:"stats sink sums equal the engine report" ~count:60
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let stats, report = run_with_stats seed in
      Telemetry.Stats.total_honest stats = report.Report.honest_messages
      && Telemetry.Stats.total_adversary stats
         = report.Report.adversary_messages
      && Telemetry.Stats.rounds stats >= report.Report.rounds_used
      && (* within each round, per-party attribution is complete *)
      List.for_all
        (fun (e : Telemetry.event) ->
          Array.fold_left ( + ) 0 e.sent_by
          = e.honest_msgs + e.adversary_msgs)
        (Telemetry.Stats.events stats)
      && (* the summary line carries the same totals *)
      match Telemetry.Stats.summary stats with
      | None -> false
      | Some s ->
          s.honest_messages = report.Report.honest_messages
          && s.adversary_messages = report.Report.adversary_messages)

(* property: honest-hull diameter never grows round over round (Lemma 6:
   honest values stay within the honest range; the trimmed mean contracts) *)
let prop_convergence_monotone =
  QCheck2.Test.make ~name:"convergence series monotonically non-increasing"
    ~count:60
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let stats, _ = run_with_stats seed in
      let spreads =
        List.map snd (Trace.convergence (Trace.of_stats stats))
      in
      let rec mono = function
        | a :: (b :: _ as rest) -> b <= a +. 1e-9 && mono rest
        | _ -> true
      in
      mono spreads)

(* ------------------------------------------------------------------ *)
(* golden run: JSONL round-trips and reconstructs the report *)

let golden_jsonl () =
  let tree = Generate.path 8 in
  let inputs = [| 0; 7; 3; 5; 1; 6; 2 |] in
  let t = 2 in
  let path = Filename.temp_file "treeagree" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let outcome =
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () ->
            Quick.agree ~tree ~inputs ~t
              ~adversary:(Strategies.silent ~victims:[ 5; 6 ])
              ~telemetry:(Telemetry.Jsonl.sink oc) ())
      in
      let lines =
        let ic = open_in path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () ->
            let rec go acc =
              match input_line ic with
              | line -> go (line :: acc)
              | exception End_of_file -> List.rev acc
            in
            go [])
      in
      (outcome, lines))

let parse line =
  match Telemetry.Json.of_string line with
  | Ok json -> json
  | Error msg -> Alcotest.failf "unparseable JSONL line %S: %s" line msg

let str_field name json =
  match Telemetry.Json.(Option.bind (member name json) to_str) with
  | Some s -> s
  | None -> Alcotest.failf "missing string field %s" name

let int_field name json =
  match Telemetry.Json.(Option.bind (member name json) to_int) with
  | Some i -> i
  | None -> Alcotest.failf "missing int field %s" name

let test_jsonl_round_trip () =
  let outcome, lines = golden_jsonl () in
  let report = outcome.Quick.report in
  check "has start, rounds, stop" true (List.length lines >= 3);
  let jsons = List.map parse lines in
  (* first line: the run metadata, stamped with the format version *)
  let start = List.hd jsons in
  Alcotest.(check string) "start line" "start" (str_field "type" start);
  Alcotest.(check string) "format version stamped"
    Telemetry.format_version_string
    (str_field "format_version" start);
  check "own version accepted" true
    (Result.is_ok (Telemetry.check_format_version start));
  check_int "n" 7 (int_field "n" start);
  check_int "t" 2 (int_field "t" start);
  Alcotest.(check string) "protocol" "tree-aa" (str_field "protocol" start);
  (* last line: the summary, matching the report *)
  let stop = List.nth jsons (List.length jsons - 1) in
  Alcotest.(check string) "stop line" "stop" (str_field "type" stop);
  check_int "stop honest total" report.Report.honest_messages
    (int_field "honest_messages" stop);
  check_int "stop adversary total" report.Report.adversary_messages
    (int_field "adversary_messages" stop);
  (* middle lines: rounds, contiguous from 1, sums matching the report *)
  let rounds =
    List.filter (fun j -> str_field "type" j = "round") jsons
  in
  check_int "everything in between is a round" (List.length jsons - 2)
    (List.length rounds);
  List.iteri
    (fun i j -> check_int "rounds contiguous from 1" (i + 1) (int_field "round" j))
    rounds;
  check_int "per-round honest sums to report"
    report.Report.honest_messages
    (List.fold_left (fun acc j -> acc + int_field "honest_msgs" j) 0 rounds);
  check_int "per-round adversary sums to report"
    report.Report.adversary_messages
    (List.fold_left (fun acc j -> acc + int_field "adversary_msgs" j) 0 rounds)

(* ------------------------------------------------------------------ *)
(* the null sink is free: a telemetered run is the same run *)

let test_null_sink_identical_report () =
  let tree = Generate.caterpillar ~spine:6 ~legs:2 in
  let inputs = [| 2; 9; 4; 11; 0; 7; 3 |] in
  let run telemetry =
    (Quick.agree ~seed:3 ~tree ~inputs ~t:2
       ~adversary:(Strategies.random_silent ~count:2)
       ?telemetry ())
      .Quick.report
  in
  let bare = run None in
  let nulled = run (Some Telemetry.Sink.null) in
  let stats = Telemetry.Stats.create () in
  let sunk = run (Some (Telemetry.Stats.sink stats)) in
  List.iter
    (fun (name, r) ->
      check (name ^ ": outputs") true (r.Report.outputs = bare.Report.outputs);
      check
        (name ^ ": termination rounds")
        true
        (r.Report.termination_rounds = bare.Report.termination_rounds);
      check_int (name ^ ": rounds used") bare.Report.rounds_used
        r.Report.rounds_used;
      check (name ^ ": corrupted") true
        (r.Report.corrupted = bare.Report.corrupted);
      check
        (name ^ ": corruption rounds")
        true
        (r.Report.corruption_rounds = bare.Report.corruption_rounds);
      check_int (name ^ ": honest messages") bare.Report.honest_messages
        r.Report.honest_messages;
      check_int (name ^ ": adversary messages") bare.Report.adversary_messages
        r.Report.adversary_messages;
      check_int
        (name ^ ": rejected forgeries")
        bare.Report.rejected_forgeries r.Report.rejected_forgeries)
    [ ("null sink", nulled); ("stats sink", sunk) ]

(* ------------------------------------------------------------------ *)
(* probes: gradecast grades and the phase-2 barrier mark come through *)

let test_probe_grades_and_marks () =
  let tree = Generate.path 10 in
  let inputs = [| 0; 9; 4; 6; 2; 8; 1 |] in
  let stats = Telemetry.Stats.create () in
  let _ =
    Quick.agree ~tree ~inputs ~t:2
      ~adversary:(Strategies.silent ~victims:[ 5; 6 ])
      ~telemetry:(Telemetry.Stats.sink stats) ()
  in
  let g0, g1, g2 = Telemetry.Stats.grade_totals stats in
  check "some gradecasts graded" true (g0 + g1 + g2 > 0);
  check "honest leaders reach grade 2" true (g2 > 0);
  check "phase-2 barrier marked" true
    (List.exists
       (fun (e : Telemetry.event) -> List.mem_assoc "phase2-entered" e.marks)
       (Telemetry.Stats.events stats));
  check "snapshots collected" true
    (List.exists
       (fun (e : Telemetry.event) -> e.snapshot <> [])
       (Telemetry.Stats.events stats))

(* ------------------------------------------------------------------ *)
(* tee: both branches observe the run *)

let test_tee_sink () =
  let a = Telemetry.Stats.create () in
  let b = Telemetry.Stats.create () in
  let tree = Generate.star 12 in
  let _ =
    Quick.agree ~tree ~inputs:[| 1; 4; 7; 10 |] ~t:1
      ~telemetry:
        (Telemetry.Sink.tee (Telemetry.Stats.sink a) (Telemetry.Stats.sink b))
      ()
  in
  check "tee branches agree" true
    (Telemetry.Stats.events a = Telemetry.Stats.events b);
  check "tee saw rounds" true (Telemetry.Stats.rounds a > 0)

(* ------------------------------------------------------------------ *)
(* async engine: chunked events still account for every message *)

let test_async_stats () =
  let stats = Telemetry.Stats.create () in
  let reactor =
    Async_aa.real ~inputs:(fun i -> float_of_int (10 * i)) ~t:1 ~iterations:3
  in
  let report =
    Async_engine.run ~n:4 ~t:1 ~reactor
      ~adversary:(Async_engine.passive "fifo")
      ~telemetry:(Telemetry.Stats.sink stats)
      ~telemetry_stride:64 ()
  in
  check_int "chunk totals = honest messages" report.Report.honest_messages
    (Telemetry.Stats.total_honest stats);
  check_int "chunk totals = injected" report.Report.adversary_messages
    (Telemetry.Stats.total_adversary stats);
  check "chunks emitted" true (Telemetry.Stats.rounds stats > 0);
  check "chunk indices contiguous from 1" true
    (List.mapi (fun i _ -> i + 1) (Telemetry.Stats.events stats)
    = List.map
        (fun (e : Telemetry.event) -> e.round)
        (Telemetry.Stats.events stats));
  match Telemetry.Stats.meta stats with
  | Some m -> Alcotest.(check string) "engine tag" "async" m.Telemetry.engine
  | None -> Alcotest.fail "no start event"

(* ------------------------------------------------------------------ *)
(* the JSON codec itself *)

let test_json_codec () =
  let sample =
    Telemetry.Json.(
      Obj
        [
          ("s", Str "a\"b\\c\nd\te\u{00e9}");
          ("i", Num 42.);
          ("f", Num 1.5);
          ("neg", Num (-7.));
          ("null", Null);
          ("yes", Bool true);
          ("arr", Arr [ Num 1.; Str "x"; Arr []; Obj [] ]);
        ])
  in
  let round_tripped =
    match Telemetry.Json.of_string (Telemetry.Json.to_string sample) with
    | Ok j -> j
    | Error e -> Alcotest.failf "round trip failed: %s" e
  in
  check "codec round trip" true (round_tripped = sample);
  check "trailing garbage rejected" true
    (Result.is_error (Telemetry.Json.of_string "{\"a\":1} x"));
  check "unterminated string rejected" true
    (Result.is_error (Telemetry.Json.of_string "\"abc"));
  check "bare word rejected" true
    (Result.is_error (Telemetry.Json.of_string "nulls"));
  check "unicode escape" true
    (Telemetry.Json.of_string "\"\\u0041\"" = Ok (Telemetry.Json.Str "A"))

(* property: the codec inverts on arbitrary values — every control
   character escapes, every finite float survives the %.17g rendering,
   arbitrary nesting parses back *)

let json_gen =
  let open QCheck2.Gen in
  let str =
    string_size ~gen:(map Char.chr (int_range 0 127)) (int_bound 12)
  in
  let num =
    oneof
      [
        map float_of_int (int_range (-1_000_000) 1_000_000);
        oneofl
          [
            0.; -0.; 1.5; -2.25; 3.141592653589793; 1e-9; 6.02e23;
            1.7976931348623157e308; 2.2250738585072014e-308;
          ];
      ]
  in
  sized_size (int_bound 5)
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               return Telemetry.Json.Null;
               map (fun b -> Telemetry.Json.Bool b) bool;
               map (fun f -> Telemetry.Json.Num f) num;
               map (fun s -> Telemetry.Json.Str s) str;
             ]
         in
         if n = 0 then leaf
         else
           oneof
             [
               leaf;
               map
                 (fun l -> Telemetry.Json.Arr l)
                 (list_size (int_bound 4) (self (n / 2)));
               map
                 (fun kvs -> Telemetry.Json.Obj kvs)
                 (list_size (int_bound 4) (pair str (self (n / 2))));
             ])

let prop_json_codec_inverts =
  QCheck2.Test.make ~name:"json codec inverts on arbitrary values" ~count:500
    json_gen
    (fun v ->
      match Telemetry.Json.of_string (Telemetry.Json.to_string v) with
      | Ok v' -> v' = v
      | Error e -> QCheck2.Test.fail_reportf "reparse failed: %s" e)

let test_json_deep_nesting () =
  let deep =
    let rec go n acc =
      if n = 0 then acc
      else go (n - 1) (Telemetry.Json.Obj [ ("child", Telemetry.Json.Arr [ acc ]) ])
    in
    go 100 (Telemetry.Json.Str "leaf")
  in
  check "100-deep nesting round trips" true
    (Telemetry.Json.of_string (Telemetry.Json.to_string deep) = Ok deep)

let test_json_malformed_rejected () =
  List.iter
    (fun s ->
      check (Printf.sprintf "rejects %S" s) true
        (Result.is_error (Telemetry.Json.of_string s)))
    [
      "";
      "{";
      "[1,]";
      "{\"a\":}";
      "{\"a\" 1}";
      "{\"a\":1,}";
      "\"\\q\"";
      "\"\\u12\"";
      "tru";
      "[1 2]";
      "{1:2}";
    ]

(* the reader's version gate, on hand-written headers *)
let test_format_version_gate () =
  let header fields =
    Telemetry.Json.Obj (("type", Telemetry.Json.Str "start") :: fields)
  in
  check "missing field accepted (pre-versioning writer)" true
    (Result.is_ok (Telemetry.check_format_version (header [])));
  check "newer minor of our major accepted" true
    (Result.is_ok
       (Telemetry.check_format_version
          (header [ ("format_version", Telemetry.Json.Str "1.99") ])));
  check "unknown major rejected" true
    (Result.is_error
       (Telemetry.check_format_version
          (header [ ("format_version", Telemetry.Json.Str "2.0") ])));
  check "non-string version rejected" true
    (Result.is_error
       (Telemetry.check_format_version
          (header [ ("format_version", Telemetry.Json.Num 1.) ])));
  check "malformed version rejected" true
    (Result.is_error
       (Telemetry.check_format_version
          (header [ ("format_version", Telemetry.Json.Str "one.zero") ])))

let () =
  Alcotest.run "telemetry"
    [
      ( "stats",
        [
          QCheck_alcotest.to_alcotest prop_stats_match_report;
          QCheck_alcotest.to_alcotest prop_convergence_monotone;
          Alcotest.test_case "probe grades and marks" `Quick
            test_probe_grades_and_marks;
          Alcotest.test_case "tee" `Quick test_tee_sink;
        ] );
      ( "jsonl",
        [
          Alcotest.test_case "golden round trip" `Quick test_jsonl_round_trip;
          Alcotest.test_case "json codec" `Quick test_json_codec;
          QCheck_alcotest.to_alcotest prop_json_codec_inverts;
          Alcotest.test_case "deep nesting" `Quick test_json_deep_nesting;
          Alcotest.test_case "malformed rejected" `Quick
            test_json_malformed_rejected;
          Alcotest.test_case "format version gate" `Quick
            test_format_version_gate;
        ] );
      ( "neutrality",
        [
          Alcotest.test_case "null sink identical report" `Quick
            test_null_sink_identical_report;
        ] );
      ( "async",
        [ Alcotest.test_case "chunked stats" `Quick test_async_stats ] );
    ]

(* Tests for the observability layer: flight records round-trip through
   their JSONL serialization and replay bit-identically, replay detects
   perturbations at the exact round and field, the spec codec inverts,
   failing campaign cells emit replayable repro records, traces parse
   back to exactly what the sinks accumulated, blame localization finds
   the earliest demonstrable failure, and the profiler rides the
   null-sink zero-cost discipline. *)

open Treeagree

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ok_or_fail what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what e

(* ------------------------------------------------------------------ *)
(* random valid campaign specs, spanning protocols / engines / faults *)

let spec_of_seed seed =
  let rng = Rng.create seed in
  let between lo hi = lo + Rng.int rng (hi - lo + 1) in
  let size lo hi =
    if Rng.bool rng then Campaign.Spec.Exactly (between lo hi)
    else
      let l = between lo hi in
      Campaign.Spec.Between (l, l + Rng.int rng 2)
  in
  let sync_faults () =
    match Rng.int rng 3 with
    | 0 -> Campaign.Spec.No_faults
    | 1 ->
        Campaign.Spec.Fault_plan
          (ok_or_fail "fault plan" (Fault_plan_io.parse "crash:1@2;omission:0.1"))
    | _ -> Campaign.Spec.Chaos { intensity = 0.25 }
  in
  let protocol, tree, inputs, adversary, faults =
    match Rng.int rng 5 with
    | 0 ->
        ( Campaign.Spec.Tree_aa,
          Rng.pick rng
            [|
              Campaign.Spec.Random_tree (size 4 8);
              Campaign.Spec.Path_tree (size 4 8);
              Campaign.Spec.Star_tree (size 4 8);
              Campaign.Spec.Any_tree;
            |],
          Campaign.Spec.Random_vertices,
          Rng.pick rng
            Campaign.Spec.
              [| Passive; Random_silent; Random_crash; Any_tree_adversary |],
          sync_faults () )
    | 1 ->
        ( Campaign.Spec.Nr_baseline,
          Campaign.Spec.Random_tree (size 4 8),
          Campaign.Spec.Random_vertices,
          Rng.pick rng Campaign.Spec.[| Passive; Random_silent; Random_crash |],
          sync_faults () )
    | 2 ->
        ( Campaign.Spec.Path_aa,
          Campaign.Spec.Path_tree (size 5 8),
          Campaign.Spec.Random_vertices,
          Rng.pick rng
            Campaign.Spec.
              [| Passive; Random_silent; Real_spoiler; Gradecast_wedge |],
          sync_faults () )
    | 3 ->
        ( Campaign.Spec.Real_aa { eps = 0.05 },
          Campaign.Spec.Any_tree,
          (if Rng.bool rng then Campaign.Spec.Linspace_reals 10.
           else
             Campaign.Spec.Log_uniform_reals { log10_min = 0.; log10_max = 2. }),
          Rng.pick rng
            Campaign.Spec.
              [| Passive; Random_silent; Real_spoiler; Any_real_adversary |],
          sync_faults () )
    | _ ->
        ( (if Rng.bool rng then Campaign.Spec.Async_tree_aa
           else Campaign.Spec.Round_sim_tree_aa),
          Campaign.Spec.Random_tree (size 4 6),
          Campaign.Spec.Random_vertices,
          Campaign.Spec.Passive,
          Campaign.Spec.No_faults )
  in
  {
    Campaign.Spec.name = Printf.sprintf "obs-%d" seed;
    protocol;
    tree;
    n = size 4 6;
    t_budget =
      (if Rng.bool rng then Campaign.Spec.Fixed_t 1
       else Campaign.Spec.Up_to_third);
    inputs;
    adversary;
    faults;
    watchdogs = Rng.bool rng;
    repetitions = 1;
    base_seed = seed;
  }

(* a fixed, telemetry-rich spec for the deterministic unit tests *)
let fixed_spec =
  {
    Campaign.Spec.name = "obs-fixed";
    protocol = Campaign.Spec.Tree_aa;
    tree = Campaign.Spec.Random_tree (Campaign.Spec.Exactly 8);
    n = Campaign.Spec.Exactly 6;
    t_budget = Campaign.Spec.Fixed_t 1;
    inputs = Campaign.Spec.Random_vertices;
    adversary = Campaign.Spec.Random_silent;
    faults = Campaign.Spec.No_faults;
    watchdogs = true;
    repetitions = 1;
    base_seed = 11;
  }

(* ------------------------------------------------------------------ *)
(* property: record -> write -> read -> replay is clean, any protocol *)

let prop_record_replay_roundtrip =
  QCheck2.Test.make ~name:"record / write / read / replay is clean" ~count:40
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let spec = spec_of_seed seed in
      let task_seed = (Campaign.task_seeds ~base_seed:seed ~count:1).(0) in
      match Recorder.record spec ~task_seed with
      | Error e -> QCheck2.Test.fail_reportf "record failed: %s" e
      | Ok (record, _) -> (
          let reread =
            ok_or_fail "reparse"
              (Recorder.of_string (Recorder.to_string record))
          in
          match Replay.run reread with
          | Error e -> QCheck2.Test.fail_reportf "replay failed: %s" e
          | Ok replay -> (
              match replay.Replay.verdict with
              | Error d ->
                  QCheck2.Test.fail_reportf "diverged: %a" Replay.pp_divergence
                    d
              | Ok () ->
                  record.Recorder.digest = Some replay.Replay.digest
                  && Trace.diff ~expected:record.Recorder.trace
                       ~actual:replay.Replay.trace
                     = None)))

(* property: the spec JSON codec inverts on every valid spec *)
let prop_spec_json_roundtrip =
  QCheck2.Test.make ~name:"spec JSON codec inverts" ~count:300
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let spec = spec_of_seed seed in
      match Spec_io.of_json (Spec_io.to_json spec) with
      | Ok s -> s = spec
      | Error e -> QCheck2.Test.fail_reportf "decode failed: %s" e)

(* ------------------------------------------------------------------ *)
(* text grammars: every Codec grammar reads back what it prints *)

let round3 x = Float.round (x *. 1000.) /. 1000.

(* [print v] parses back to [v] and is a fixed point of print-then-parse *)
let roundtrips parse print v =
  let s = print v in
  match parse s with
  | Ok v' when v' = v && print v' = s -> true
  | Ok _ -> QCheck2.Test.fail_reportf "%S reads back differently" s
  | Error e -> QCheck2.Test.fail_reportf "%S does not read back: %s" s e

let prop_grammars_roundtrip =
  QCheck2.Test.make ~name:"every grammar: parse (print v) = Ok v" ~count:300
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let open Campaign.Spec in
      let rng = Rng.create seed in
      let short () = round3 (Rng.float rng 1.0) in
      let size () =
        if Rng.bool rng then Exactly (Rng.int rng 50)
        else Between (Rng.int rng 50, Rng.int rng 50)
      in
      let plan =
        Fault_plan.random rng ~n:6 ~rounds_hint:10 ~sync_only:(Rng.bool rng) ()
        |> List.map (function
             | Fault_plan.Omission o -> Fault_plan.Omission { o with prob = round3 o.prob }
             | Fault_plan.Duplicate d -> Fault_plan.Duplicate { d with prob = round3 d.prob }
             | Fault_plan.Delay d -> Fault_plan.Delay { d with prob = round3 d.prob }
             | f -> f)
      in
      let stall_prob = if Rng.bool rng then short () else 0. in
      let chaos =
        {
          Service_chaos.corrupt_frame = short ();
          torn_write = (if Rng.bool rng then short () else 0.);
          drop_frame = short ();
          dup_frame = (if Rng.bool rng then short () else 0.);
          stall_prob;
          stall_seconds = (if stall_prob > 0. then round3 (Rng.float rng 5.) else 0.);
          seed = Rng.int rng 1000 - 500;
        }
      in
      let genome = Genome.random rng ~t:(1 + Rng.int rng 4) ~max_round:20 in
      let tree =
        Rng.pick rng
          [|
            Any_tree; Path_tree (size ()); Star_tree (size ());
            Caterpillar_tree { spine = size (); legs = size () };
            Spider_tree { legs = size (); leg_length = size () };
            Balanced_tree { arity = size (); depth = size () };
            Random_tree (size ());
          |]
      in
      let eps = short () in
      let protocol =
        Rng.pick rng
          [|
            Tree_aa; Nr_baseline; Path_aa; Known_path_aa; Real_aa { eps };
            Iterated_midpoint { eps }; Async_tree_aa; Round_sim_tree_aa;
          |]
      in
      let adversary =
        Rng.pick rng
          [|
            Passive; Random_silent; Random_crash; Tree_spoiler; Real_spoiler;
            Gradecast_wedge; Any_tree_adversary; Any_real_adversary;
            Synth_genome genome;
          |]
      in
      let inputs =
        Rng.pick rng
          [|
            Random_vertices; Linspace_reals (float_of_int (Rng.int rng 1000));
            Log_uniform_reals { log10_min = short (); log10_max = short () };
          |]
      in
      let n () = string_of_int (Rng.int rng 30) in
      let gen =
        Rng.pick rng
          [|
            "path:" ^ n (); "broom:" ^ n () ^ ":" ^ n ();
            "diameter:" ^ n () ^ ":" ^ n () ^ ":" ^ n ();
          |]
      in
      roundtrips Fault_plan_io.parse Fault_plan_io.to_string plan
      && roundtrips Service_chaos.parse Service_chaos.to_string chaos
      && roundtrips Genome.of_string Genome.to_string genome
      && roundtrips Spec_io.size_of_string Spec_io.size_to_string (size ())
      && roundtrips Spec_io.tree_family_of_string Spec_io.tree_family_to_string tree
      && roundtrips (Spec_io.protocol_of_string ~eps) Campaign.Spec.protocol_label protocol
      && roundtrips Spec_io.adversary_of_string Spec_io.adversary_to_string adversary
      && roundtrips Spec_io.inputs_of_string Spec_io.inputs_to_string inputs
      && roundtrips Synth.driver_of_string Synth.driver_label
           (Rng.pick rng Synth.[| Random_search; Hill_climb; Mu_plus_lambda |])
      && roundtrips (Codec.parse Generate.spec) (Codec.print Generate.spec)
           (Result.get_ok (Codec.parse Generate.spec gen)))

(* noise over the grammars' shared alphabet: names, separators, numbers
   (signed, hex, padded, huge) and whitespace *)
let grammar_noise =
  QCheck2.Gen.(
    list_size (int_range 0 10)
      (oneofl
         [
           "crash"; "crash-recover"; "omission"; "partition"; "delay"; "party";
           "pair"; "corrupt-frame"; "stall"; "seed"; "silent"; "spoiler!";
           "wedge"; "fifo"; "genome:"; "path"; "caterpillar"; "diameter";
           "linspace"; "realaa"; "evolve"; "none"; "any"; "t"; "b"; ":"; "@";
           "-"; "+"; ";"; "|"; ","; ">"; " "; "\t"; "0"; "1"; "5"; "-1"; " 5 ";
           "0x1F"; "0.5"; "1e-3"; "1e30"; "nan"; "99999999999999999999";
         ])
    >|= String.concat "")

let prop_grammars_never_raise =
  QCheck2.Test.make ~name:"no grammar raises on noise" ~count:3000 grammar_noise
    (fun s ->
      (* a parsed value also prints and re-reads without raising *)
      let total parse print =
        match parse s with Ok v -> ignore (parse (print v)) | Error _ -> ()
      in
      total Fault_plan_io.parse Fault_plan_io.to_string;
      total Service_chaos.parse Service_chaos.to_string;
      total Genome.of_string Genome.to_string;
      total Spec_io.size_of_string Spec_io.size_to_string;
      total Spec_io.tree_family_of_string Spec_io.tree_family_to_string;
      total (Spec_io.protocol_of_string ~eps:1.) Campaign.Spec.protocol_label;
      total Spec_io.adversary_of_string Spec_io.adversary_to_string;
      total Spec_io.inputs_of_string Spec_io.inputs_to_string;
      total Synth.driver_of_string Synth.driver_label;
      total (Codec.parse Generate.spec) (Codec.print Generate.spec);
      total (Codec.parse Codec.int) (Codec.print Codec.int);
      true)

let test_flag_grammars () =
  let open Campaign.Spec in
  check "size N" true (Spec_io.size_of_string "5" = Ok (Exactly 5));
  check "size LO-HI" true (Spec_io.size_of_string "4-8" = Ok (Between (4, 8)));
  check "padded size" true (Spec_io.size_of_string " 5" = Ok (Exactly 5));
  check "tree family" true
    (Spec_io.tree_family_of_string "caterpillar:3:1-2"
    = Ok (Caterpillar_tree { spine = Exactly 3; legs = Between (1, 2) }));
  check "protocol takes eps" true
    (Spec_io.protocol_of_string ~eps:0.5 "realaa" = Ok (Real_aa { eps = 0.5 }));
  check "genome adversary" true
    (Result.map Spec_io.adversary_to_string
       (Spec_io.adversary_of_string "genome:silent:2t+none+fifo")
    = Ok "genome:silent:2t+none+fifo");
  check "inputs" true
    (Spec_io.inputs_of_string "loguniform:0:2"
    = Ok (Log_uniform_reals { log10_min = 0.; log10_max = 2. }));
  check "inputs print" true
    (Spec_io.inputs_to_string (Linspace_reals 100.) = "linspace:100");
  List.iter
    (fun (what, rejected) -> check ("reject " ^ what) true rejected)
    [
      ("size -3", Result.is_error (Spec_io.size_of_string "-3"));
      ("size 4-x", Result.is_error (Spec_io.size_of_string "4-x"));
      ("path:1:2", Result.is_error (Spec_io.tree_family_of_string "path:1:2"));
      ("any:3", Result.is_error (Spec_io.tree_family_of_string "any:3"));
      ("protocol", Result.is_error (Spec_io.protocol_of_string ~eps:1. "aa"));
      ("genome:", Result.is_error (Spec_io.adversary_of_string "genome:"));
      ("linspace:", Result.is_error (Spec_io.inputs_of_string "linspace:"));
      ("vertices:1", Result.is_error (Spec_io.inputs_of_string "vertices:1"));
    ]

let test_spec_read_file () =
  let mentions m path =
    let n = String.length path in
    let rec at i =
      i + n <= String.length m && (String.sub m i n = path || at (i + 1))
    in
    at 0
  in
  let dir = Filename.temp_dir "spec-io" "" in
  let file name contents =
    let path = Filename.concat dir name in
    Out_channel.with_open_bin path (fun oc -> output_string oc contents);
    path
  in
  let rejected what path =
    match Spec_io.read_file path with
    | Ok _ -> Alcotest.failf "%s was read" what
    | Error m -> check (what ^ " error names the path") true (mentions m path)
  in
  rejected "directory" dir;
  rejected "missing file" (Filename.concat dir "missing.json");
  let junk = file "junk.json" "not json" in
  rejected "non-JSON" junk;
  let bad = file "bad.json" {|{"name":"x"}|} in
  rejected "bad spec" bad;
  let good =
    file "good.json" (Telemetry.Json.to_string (Spec_io.to_json fixed_spec))
  in
  check "good spec" true (Spec_io.read_file good = Ok fixed_spec);
  List.iter Sys.remove [ junk; bad; good ];
  Sys.rmdir dir

(* ------------------------------------------------------------------ *)
(* divergence detection localizes a perturbation; profiles never pin *)

let test_divergence_localization () =
  let record, _ = ok_or_fail "record" (Recorder.record fixed_spec ~task_seed:42) in
  let events = record.Recorder.trace.Trace.events in
  check "trace has events" true (List.length events >= 3);
  let k = List.length events / 2 in
  let mutated =
    List.mapi
      (fun i (e : Telemetry.event) ->
        if i = k then { e with honest_msgs = e.honest_msgs + 1 } else e)
      events
  in
  (match Trace.compare_events ~expected:mutated ~actual:events with
  | None -> Alcotest.fail "perturbation not detected"
  | Some d ->
      check_int "localized to the perturbed round"
        (List.nth events k).Telemetry.round d.Trace.round;
      Alcotest.(check string) "localized field" "honest_msgs" d.Trace.field);
  (* a truncated trace pins the length, not a field *)
  (match
     Trace.compare_events ~expected:events
       ~actual:(List.filteri (fun i _ -> i < k) events)
   with
  | Some d -> Alcotest.(check string) "length mismatch field" "rounds" d.Trace.field
  | None -> Alcotest.fail "truncation not detected");
  (* profile samples are measurements, not semantics: never a divergence *)
  let profiled =
    List.map
      (fun (e : Telemetry.event) ->
        { e with profile = Some { Telemetry.wall_ns = 1; alloc_bytes = 2. } })
      events
  in
  check "profile field ignored by comparison" true
    (Trace.compare_events ~expected:profiled ~actual:events = None)

let test_spec_drift_detected () =
  let record, _ = ok_or_fail "record" (Recorder.record fixed_spec ~task_seed:7) in
  let tampered =
    { record with Recorder.engine_seed = record.Recorder.engine_seed + 1 }
  in
  match Replay.run tampered with
  | Error e -> Alcotest.failf "replay refused to execute: %s" e
  | Ok replay -> (
      match replay.Replay.verdict with
      | Error (Replay.Spec_drift _) -> ()
      | Error d ->
          Alcotest.failf "wrong divergence: %a" Replay.pp_divergence d
      | Ok () -> Alcotest.fail "engine-seed drift not detected")

(* ------------------------------------------------------------------ *)
(* failing campaign cells emit replayable repro records *)

let test_repro_records_replay () =
  (* wedge at t >= n/3: genuinely Violated cells, by design *)
  let spec =
    {
      Campaign.Spec.name = "obs-wedge";
      protocol = Campaign.Spec.Path_aa;
      tree = Campaign.Spec.Path_tree (Campaign.Spec.Exactly 7);
      n = Campaign.Spec.Exactly 7;
      t_budget = Campaign.Spec.Fixed_t 3;
      inputs = Campaign.Spec.Random_vertices;
      adversary = Campaign.Spec.Gradecast_wedge;
      faults = Campaign.Spec.No_faults;
      watchdogs = true;
      repetitions = 4;
      base_seed = 3;
    }
  in
  let result = Campaign.run spec in
  check "wedge produced violations" true (result.Campaign.aggregate.violations > 0);
  let repros = Recorder.failing_cells result in
  check_int "one repro per violated cell" result.Campaign.aggregate.violations
    (List.length repros);
  List.iter
    (fun (task, repro) ->
      check "repro records carry no events" true
        (repro.Recorder.trace.Trace.events = []);
      check "repro records carry a digest" true (repro.Recorder.digest <> None);
      let reread =
        ok_or_fail "repro reparse"
          (Recorder.of_string (Recorder.to_string repro))
      in
      match Replay.run reread with
      | Error e -> Alcotest.failf "repro %d replay failed: %s" task e
      | Ok replay -> (
          match replay.Replay.verdict with
          | Ok () -> ()
          | Error d ->
              Alcotest.failf "repro %d diverged: %a" task Replay.pp_divergence
                d))
    repros

(* a benign campaign emits no repros *)
let test_no_repros_when_clean () =
  let result = Campaign.run { fixed_spec with repetitions = 3 } in
  check_int "no violations" 0 result.Campaign.aggregate.violations;
  check "no repro records" true (Recorder.failing_cells result = [])

(* ------------------------------------------------------------------ *)
(* traces parse back to exactly what the sinks accumulated *)

let with_jsonl_and_stats () =
  let tree = Generate.path 8 in
  let inputs = [| 0; 7; 3; 5; 1; 6; 2 |] in
  let stats = Telemetry.Stats.create () in
  let path = Filename.temp_file "treeagree-obs" ".jsonl" in
  let oc = open_out path in
  let _ =
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        Quick.agree ~tree ~inputs ~t:2
          ~adversary:(Strategies.silent ~victims:[ 5; 6 ])
          ~telemetry:
            (Telemetry.Sink.tee (Telemetry.Jsonl.sink oc)
               (Telemetry.Stats.sink stats))
          ())
  in
  (path, stats)

let test_trace_load_matches_stats () =
  let path, stats = with_jsonl_and_stats () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let on_disk = ok_or_fail "trace load" (Trace.load path) in
      let in_memory = Trace.of_stats stats in
      check "meta round-trips" true (on_disk.Trace.meta = in_memory.Trace.meta);
      check "summary round-trips" true
        (on_disk.Trace.summary = in_memory.Trace.summary);
      check "events round-trip" true
        (on_disk.Trace.events = in_memory.Trace.events);
      check "no divergence either way" true
        (Trace.diff ~expected:on_disk ~actual:in_memory = None))

(* naive substring search; the stdlib has none *)
let find_sub ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

let test_format_version_gate () =
  let path, _ = with_jsonl_and_stats () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let text =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let version_field = {|"format_version":"1.0",|} in
      let replace by =
        match find_sub ~sub:version_field text with
        | None -> Alcotest.fail "start line carries no version"
        | Some i ->
            String.sub text 0 i
            ^ by
            ^ String.sub text
                (i + String.length version_field)
                (String.length text - i - String.length version_field)
      in
      (* same major, newer minor: accepted *)
      check "newer minor accepted" true
        (Result.is_ok (Trace.of_string (replace {|"format_version":"1.7",|})));
      (* unknown major: rejected *)
      check "unknown major rejected" true
        (Result.is_error (Trace.of_string (replace {|"format_version":"9.0",|})));
      (* pre-versioning writer (field absent): accepted *)
      check "missing version accepted" true
        (Result.is_ok (Trace.of_string (replace ""))))

(* ------------------------------------------------------------------ *)
(* blame localization *)

let synthetic_event round ~sent_by ~snapshot ~corruptions =
  {
    Telemetry.round;
    honest_msgs = Array.fold_left ( + ) 0 sent_by;
    adversary_msgs = 0;
    delivered_msgs = 0;
    rejected_forgeries = 0;
    honest_bytes = 0;
    adversary_bytes = 0;
    sent_by;
    corruptions;
    grades = None;
    marks = [];
    snapshot;
    profile = None;
  }

let test_blame_spread_expansion () =
  let tr =
    {
      Trace.empty with
      Trace.events =
        [
          synthetic_event 1 ~sent_by:[| 3; 3; 3 |]
            ~snapshot:[ (0, 0.); (1, 4.) ]
            ~corruptions:[];
          synthetic_event 2 ~sent_by:[| 3; 3; 3 |]
            ~snapshot:[ (0, 1.); (1, 4.) ]
            ~corruptions:[];
          synthetic_event 3 ~sent_by:[| 2; 9; 2 |]
            ~snapshot:[ (0, 0.); (1, 6.) ]
            ~corruptions:[ 2 ];
        ];
    }
  in
  match Trace.blame tr with
  | None -> Alcotest.fail "expanding spread not blamed"
  | Some b ->
      check_int "first expanding round" 3 b.Trace.round;
      Alcotest.(check string) "kind" "spread-expansion" b.Trace.kind;
      check "corrupted party suspected" true (List.mem 2 b.Trace.suspects)

let test_blame_watchdog_precedence () =
  let tr =
    {
      Trace.empty with
      Trace.events =
        [
          synthetic_event 1 ~sent_by:[| 1; 1 |] ~snapshot:[ (0, 0.); (1, 2.) ]
            ~corruptions:[];
          synthetic_event 2 ~sent_by:[| 1; 1 |] ~snapshot:[ (0, 0.); (1, 5.) ]
            ~corruptions:[];
        ];
    }
  in
  let violation =
    { Watchdog.watchdog = "corruption-budget"; round = 1; detail = "t exceeded" }
  in
  match Trace.blame ~violations:[ violation ] tr with
  | None -> Alcotest.fail "violation not blamed"
  | Some b ->
      Alcotest.(check string) "watchdog wins" "watchdog" b.Trace.kind;
      check_int "earliest violation round" 1 b.Trace.round

let test_blame_clean_trace () =
  let record, _ = ok_or_fail "record" (Recorder.record fixed_spec ~task_seed:2) in
  check "clean run has no blame" true
    (Trace.blame record.Recorder.trace = None)

(* ------------------------------------------------------------------ *)
(* profiler: samples when asked, nothing otherwise, digest-neutral *)

let test_profile_samples () =
  let runner, seed = Campaign.instantiate fixed_spec ~task_seed:7 in
  let run ~profile =
    let stats = Telemetry.Stats.create () in
    let o =
      runner.Runner.run ~seed ~telemetry:(Telemetry.Stats.sink stats) ~profile
        ()
    in
    (o, Telemetry.Stats.events stats)
  in
  let profiled, sampled_events = run ~profile:true in
  let plain, plain_events = run ~profile:false in
  check "every profiled event carries a sample" true
    (List.for_all
       (fun (e : Telemetry.event) ->
         match e.profile with
         | Some p -> p.Telemetry.wall_ns >= 0 && p.Telemetry.alloc_bytes >= 0.
         | None -> false)
       sampled_events);
  check "no samples without --profile" true
    (List.for_all
       (fun (e : Telemetry.event) -> e.Telemetry.profile = None)
       plain_events);
  (match profiled.Runner.profile with
  | None -> Alcotest.fail "stage profile missing"
  | Some p ->
      check "stage costs non-negative" true
        (p.Runner.setup_ns >= 0 && p.Runner.rounds_ns >= 0
        && p.Runner.checks_ns >= 0));
  check "no stage profile without --profile" true (plain.Runner.profile = None);
  (* semantics are profile-independent *)
  check "same outcome modulo profile" true
    ({ profiled with Runner.profile = None } = plain)

let test_profile_async_samples () =
  let spec =
    {
      fixed_spec with
      Campaign.Spec.protocol = Campaign.Spec.Async_tree_aa;
      adversary = Campaign.Spec.Passive;
      watchdogs = false;
    }
  in
  let runner, seed = Campaign.instantiate spec ~task_seed:5 in
  let stats = Telemetry.Stats.create () in
  let o =
    runner.Runner.run ~seed ~telemetry:(Telemetry.Stats.sink stats)
      ~profile:true ()
  in
  check "async chunks carry samples" true
    (Telemetry.Stats.events stats <> []
    && List.for_all
         (fun (e : Telemetry.event) -> e.Telemetry.profile <> None)
         (Telemetry.Stats.events stats));
  check "async stage profile present" true (o.Runner.profile <> None)

let test_profile_null_sink_neutral () =
  let runner, seed = Campaign.instantiate fixed_spec ~task_seed:13 in
  let bare = runner.Runner.run ~seed () in
  let nulled =
    runner.Runner.run ~seed ~telemetry:Telemetry.Sink.null ~profile:true ()
  in
  check "null-sink profiled run identical modulo profile" true
    ({ nulled with Runner.profile = None } = bare)

let test_digest_ignores_profile () =
  let r1, _ = ok_or_fail "record" (Recorder.record fixed_spec ~task_seed:5) in
  let r2, _ =
    ok_or_fail "record" (Recorder.record ~profile:true fixed_spec ~task_seed:5)
  in
  check "profile never reaches the digest" true
    (r1.Recorder.digest = r2.Recorder.digest && r1.Recorder.digest <> None)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "replay",
        [
          QCheck_alcotest.to_alcotest prop_record_replay_roundtrip;
          Alcotest.test_case "divergence localization" `Quick
            test_divergence_localization;
          Alcotest.test_case "spec drift detected" `Quick
            test_spec_drift_detected;
        ] );
      ( "spec codec",
        [ QCheck_alcotest.to_alcotest prop_spec_json_roundtrip ] );
      ( "grammars",
        [
          QCheck_alcotest.to_alcotest prop_grammars_roundtrip;
          QCheck_alcotest.to_alcotest prop_grammars_never_raise;
          Alcotest.test_case "campaign flag grammars" `Quick test_flag_grammars;
          Alcotest.test_case "spec file errors" `Quick test_spec_read_file;
        ] );
      ( "repro",
        [
          Alcotest.test_case "failing cells replay" `Quick
            test_repro_records_replay;
          Alcotest.test_case "clean campaign emits none" `Quick
            test_no_repros_when_clean;
        ] );
      ( "trace",
        [
          Alcotest.test_case "load matches stats" `Quick
            test_trace_load_matches_stats;
          Alcotest.test_case "format version gate" `Quick
            test_format_version_gate;
        ] );
      ( "blame",
        [
          Alcotest.test_case "spread expansion" `Quick
            test_blame_spread_expansion;
          Alcotest.test_case "watchdog precedence" `Quick
            test_blame_watchdog_precedence;
          Alcotest.test_case "clean trace" `Quick test_blame_clean_trace;
        ] );
      ( "profiler",
        [
          Alcotest.test_case "sync samples" `Quick test_profile_samples;
          Alcotest.test_case "async samples" `Quick test_profile_async_samples;
          Alcotest.test_case "null sink neutral" `Quick
            test_profile_null_sink_neutral;
          Alcotest.test_case "digest ignores profile" `Quick
            test_digest_ignores_profile;
        ] );
    ]

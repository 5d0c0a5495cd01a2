(* Tests for the sharded multi-process campaign service: the distributed
   determinism contract (coordinator sharding over 1/2/4 worker
   *processes* produces JSONL bit-identical to the in-process
   [Campaign.run ~workers:1] — which also pins the wire round-trip and
   the aggregate fold over shipped JSON), crash-resume (a halted
   coordinator's record-dir restores every checkpointed cell untouched
   and recomputes nothing), the checksummed wire framing (fuzzed frame
   recovery: typed errors, never an exception escape), checkpoint
   quarantine, wire-chaos drills and graceful degradation. *)

open Treeagree

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* Small random specs spanning protocols, adversaries and fault modes —
   the footer line folds the aggregate, so stream equality also proves
   the fold over shipped JSON matches the in-process one across
   excused / timed-out / faulted cells. *)
let spec_of_seed seed =
  let open Campaign.Spec in
  let rng = Rng.create seed in
  let protocol, inputs, adversary =
    match Rng.int rng 4 with
    | 0 -> (Tree_aa, Random_vertices, Any_tree_adversary)
    | 1 -> (Nr_baseline, Random_vertices, Random_silent)
    | 2 ->
        ( Real_aa { eps = 1. },
          Log_uniform_reals { log10_min = 1.; log10_max = 3. },
          Any_real_adversary )
    | _ -> (Iterated_midpoint { eps = 1. }, Linspace_reals 50., Real_spoiler)
  in
  let faults, watchdogs =
    match Rng.int rng 3 with
    | 0 -> (Chaos { intensity = 0.3 +. Rng.float rng 0.7 }, true)
    | 1 ->
        ( Fault_plan
            [
              Fault_plan.Omission { prob = 0.05; scope = Fault_plan.All };
              Fault_plan.Crash { party = 0; at_round = 2 };
            ],
          Rng.bool rng )
    | _ -> (No_faults, true)
  in
  {
    name = "svc-prop";
    protocol;
    tree = Random_tree (Between (2, 12));
    n = Between (4, 7);
    t_budget = Up_to_third;
    inputs;
    adversary;
    faults;
    watchdogs;
    repetitions = 2 + Rng.int rng 3;
    base_seed = seed;
  }

let service_stream ?workers ?record_dir ?halt_after_cells spec =
  match Service.run ?workers ?record_dir ?halt_after_cells spec with
  | Ok r -> r
  | Error e -> Alcotest.fail ("Service.run: " ^ e)

(* ------------------------------------------------------------------ *)
(* wire framing: fuzzed frame recovery *)

(* Feed a byte stream into a fresh reader in the given chunks; collect
   recovered payloads and typed errors. Any exception escaping the
   reader is itself a failure. *)
let feed_chunks chunks =
  let reader = Service_wire.Reader.create Unix.stdin in
  List.concat_map
    (fun chunk ->
      match Service_wire.Reader.feed reader chunk with
      | events -> events
      | exception exn ->
          Alcotest.fail ("Reader.feed raised: " ^ Printexc.to_string exn))
    chunks

let oks events = List.filter_map (function Ok f -> Some f | Error _ -> None) events
let errs events = List.filter_map (function Ok _ -> None | Error e -> Some e) events

let encode_all payloads =
  String.concat ""
    (List.map (fun p -> Bytes.to_string (Service_wire.encode p)) payloads)

let test_wire_every_boundary () =
  (* A 3-frame stream split at every byte boundary must reassemble to
     exactly the original payloads, with no errors — including splits
     inside the magic, the length field, the checksum and the payload. *)
  let payloads = [ "{\"type\":\"ready\",\"pid\":42}"; ""; "{\"x\":[1,2,3]}" ] in
  let stream = encode_all payloads in
  for cut = 0 to String.length stream do
    let events =
      feed_chunks
        [
          String.sub stream 0 cut;
          String.sub stream cut (String.length stream - cut);
        ]
    in
    Alcotest.(check (list string))
      (Printf.sprintf "split at byte %d" cut)
      payloads (oks events);
    check "no spurious errors" true (errs events = [])
  done

(* Garbage is printable ASCII: the frame magic is non-ASCII, so noise
   can never fake a frame boundary (payload bytes are arbitrary — a
   framed payload may legitimately contain the magic). *)
let gen_garbage =
  QCheck2.Gen.(string_size ~gen:(map Char.chr (int_range 32 126)) (1 -- 40))

let gen_payload = QCheck2.Gen.(string_size ~gen:(map Char.chr (0 -- 255)) (0 -- 60))

let gen_chunked_stream =
  QCheck2.Gen.(
    let* payloads = list_size (1 -- 6) gen_payload in
    let* garbage = gen_garbage in
    let* garbage_at = 0 -- List.length payloads in
    (* the garbage slots in between frames, including before the first *)
    let stream =
      String.concat ""
        (List.concat
           (List.mapi
              (fun i p ->
                let frame = Bytes.to_string (Service_wire.encode p) in
                if i = garbage_at then [ garbage; frame ] else [ frame ])
              payloads)
        @ if garbage_at = List.length payloads then [ garbage ] else [])
    in
    (* random chunking, byte-exact *)
    let* cuts =
      list_size (0 -- 8) (int_bound (max 0 (String.length stream - 1)))
    in
    let cuts = List.sort_uniq compare (0 :: cuts @ [ String.length stream ]) in
    let rec chunks = function
      | a :: (b :: _ as rest) -> String.sub stream a (b - a) :: chunks rest
      | _ -> []
    in
    return (payloads, garbage, chunks cuts))

let prop_wire_fuzz =
  QCheck2.Test.make
    ~name:
      "wire: garbage-interleaved chunked streams recover every frame with \
       typed errors only"
    ~count:300 gen_chunked_stream
    (fun (payloads, _garbage, chunks) ->
      let events = feed_chunks chunks in
      (* every frame recovered, in order *)
      oks events = payloads
      (* the injected garbage surfaces as Garbage errors only *)
      && List.for_all
           (function Service_wire.Reader.Garbage _ -> true | _ -> false)
           (errs events))

let test_wire_corrupt_payload () =
  (* Flip a payload byte mid-stream: the damaged frame surfaces as a
     checksum mismatch, the neighbours are still recovered exactly. *)
  let f1 = "{\"type\":\"heartbeat\"}" in
  let f2 = "{\"type\":\"cell\",\"task\":3}" in
  let f3 = "{\"type\":\"shard-done\"}" in
  let stream = Bytes.of_string (encode_all [ f1; f2; f3 ]) in
  let f1_len = Bytes.length (Service_wire.encode f1) in
  (* a payload byte of the second frame: header is 12 bytes *)
  Bytes.set stream (f1_len + 12 + 5)
    (Char.chr (Char.code (Bytes.get stream (f1_len + 12 + 5)) lxor 0xFF));
  let events = feed_chunks [ Bytes.to_string stream ] in
  Alcotest.(check (list string)) "intact frames recovered" [ f1; f3 ] (oks events);
  check "a checksum mismatch was reported" true
    (List.exists
       (function
         | Service_wire.Reader.Checksum_mismatch _ -> true | _ -> false)
       (errs events))

let test_wire_corrupt_length () =
  (* Blow up the length field: typed Oversized_frame, then recovery. *)
  let f1 = "{\"a\":1}" and f2 = "{\"b\":2}" in
  let stream = Bytes.of_string (encode_all [ f1; f2 ]) in
  Bytes.set stream 4 '\xFF' (* high byte of frame 1's length field *);
  let events = feed_chunks [ Bytes.to_string stream ] in
  Alcotest.(check (list string)) "second frame recovered" [ f2 ] (oks events);
  check "an oversized-frame error was reported" true
    (List.exists
       (function Service_wire.Reader.Oversized_frame _ -> true | _ -> false)
       (errs events))

(* ------------------------------------------------------------------ *)
(* wire chaos plan grammar *)

let test_chaos_grammar () =
  (match Service_chaos.parse "corrupt-frame:0.2+stall:0.1:0.05+seed:9" with
  | Error e -> Alcotest.fail e
  | Ok p ->
      check "corrupt parsed" true (p.Service_chaos.corrupt_frame = 0.2);
      check "stall parsed" true
        (p.Service_chaos.stall_prob = 0.1
        && p.Service_chaos.stall_seconds = 0.05);
      check "seed parsed" true (p.Service_chaos.seed = 9);
      (* round-trip *)
      match Service_chaos.parse (Service_chaos.to_string p) with
      | Ok p' -> check "roundtrip" true (p = p')
      | Error e -> Alcotest.fail ("roundtrip: " ^ e));
  (match Service_chaos.parse "drop-frame:0.3;dup-frame:0.1" with
  | Error e -> Alcotest.fail e
  | Ok p ->
      check "both separators accepted" true
        (p.Service_chaos.drop_frame = 0.3 && p.Service_chaos.dup_frame = 0.1));
  check "none is empty" true (Service_chaos.parse "none" = Ok Service_chaos.none);
  check "bad prob rejected" true
    (Result.is_error (Service_chaos.parse "corrupt-frame:1.5"));
  check "unknown clause rejected" true
    (Result.is_error (Service_chaos.parse "melt-wire:0.5"));
  (* floats print with 12 significant digits, so these round-trip too;
     whitespace around an integer is ignored *)
  List.iter
    (fun s ->
      match Service_chaos.parse s with
      | Error e -> Alcotest.fail (s ^ ": " ^ e)
      | Ok p ->
          check ("roundtrip " ^ s) true
            (Service_chaos.parse (Service_chaos.to_string p) = Ok p))
    [ "corrupt-frame:0.1234567"; "seed: 5" ];
  check "padded seed" true
    (Result.map (fun p -> p.Service_chaos.seed) (Service_chaos.parse "seed: 5")
    = Ok 5)

let test_chaos_deterministic_schedule () =
  (* The same endpoint sees the same fault schedule on every run; a
     different slot sees an independent one. *)
  let plan =
    match Service_chaos.parse "corrupt-frame:0.5+drop-frame:0.5+seed:3" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let writes_of ~slot ~incarnation =
    let st =
      Service_chaos.endpoint plan ~role:Service_chaos.Worker ~slot ~incarnation
    in
    List.init 40 (fun i ->
        let frame = Service_wire.encode (Printf.sprintf "{\"i\":%d}" i) in
        let out = ref [] in
        Service_chaos.apply st frame ~write:(fun b ->
            out := Bytes.to_string b :: !out);
        List.rev !out)
  in
  check "schedule replays bit-identically" true
    (writes_of ~slot:0 ~incarnation:0 = writes_of ~slot:0 ~incarnation:0);
  check "another slot draws an independent schedule" true
    (writes_of ~slot:0 ~incarnation:0 <> writes_of ~slot:1 ~incarnation:0);
  check "a respawn draws a fresh schedule" true
    (writes_of ~slot:0 ~incarnation:0 <> writes_of ~slot:0 ~incarnation:1)

(* ------------------------------------------------------------------ *)
(* distributed determinism *)

let prop_distributed_invariant =
  QCheck2.Test.make
    ~name:
      "service: 1/2/4 worker processes are bit-identical to in-process \
       workers:1"
    ~count:5
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let spec = spec_of_seed seed in
      let baseline = Campaign.jsonl_string (Campaign.run ~workers:1 spec) in
      List.for_all
        (fun w ->
          match Service.run ~workers:w spec with
          | Ok r ->
              r.Service.status = Service.Completed
              && Service.jsonl_string r = baseline
          | Error _ -> false)
        [ 1; 2; 4 ])

(* ------------------------------------------------------------------ *)
(* crash-resume *)

let fixed_spec =
  {
    Campaign.Spec.name = "svc-resume";
    protocol = Campaign.Spec.Tree_aa;
    tree = Campaign.Spec.Random_tree (Campaign.Spec.Between (2, 10));
    n = Campaign.Spec.Between (4, 7);
    t_budget = Campaign.Spec.Up_to_third;
    inputs = Campaign.Spec.Random_vertices;
    adversary = Campaign.Spec.Any_tree_adversary;
    faults = Campaign.Spec.Chaos { intensity = 0.3 };
    watchdogs = true;
    repetitions = 8;
    base_seed = 77;
  }

let cell_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".record.jsonl")
  |> List.sort compare

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_resume_recomputes_nothing () =
  let spec = fixed_spec in
  let baseline = Campaign.jsonl_string (Campaign.run ~workers:1 spec) in
  let dir = Filename.temp_dir "svc-resume" "" in
  (* Simulated coordinator crash: halt after 3 cells, workers killed. *)
  let halted = service_stream ~workers:2 ~record_dir:dir ~halt_after_cells:3 spec in
  (match halted.Service.status with
  | Service.Halted { cells_done } ->
      check "halted with partial progress" true
        (cells_done >= 3 && cells_done < spec.Campaign.Spec.repetitions)
  | Service.Completed -> Alcotest.fail "expected a halted campaign");
  let before = cell_files dir in
  check "partial record-dir" true
    (before <> [] && List.length before < spec.Campaign.Spec.repetitions);
  let snapshot = List.map (fun f -> (f, read_file (Filename.concat dir f))) before in
  (* Resume: every checkpointed cell restored, none recomputed. *)
  let resumed = service_stream ~workers:2 ~record_dir:dir spec in
  check "resume completes" true (resumed.Service.status = Service.Completed);
  check_int "every checkpoint resumed" (List.length before)
    resumed.Service.manifest.Service.resumed;
  check_int "computed exactly the remainder"
    (spec.Campaign.Spec.repetitions - List.length before)
    resumed.Service.manifest.Service.computed;
  List.iter
    (fun (f, s) ->
      check_string
        (Printf.sprintf "checkpoint %s untouched by resume" f)
        s
        (read_file (Filename.concat dir f)))
    snapshot;
  check_string "resumed stream equals the uninterrupted run" baseline
    (Service.jsonl_string resumed);
  (* A third run over the now-complete record-dir recomputes nothing at
     all: cell count unchanged, no workers spawned. *)
  let complete = cell_files dir in
  check_int "record-dir holds the full grid" spec.Campaign.Spec.repetitions
    (List.length complete);
  let again = service_stream ~workers:4 ~record_dir:dir spec in
  check_int "full resume computes zero cells" 0
    again.Service.manifest.Service.computed;
  check_int "full resume spawns no workers" 0
    again.Service.manifest.Service.workers;
  check_int "record-dir cell count unchanged" (List.length complete)
    (List.length (cell_files dir));
  check_string "fully-resumed stream still identical" baseline
    (Service.jsonl_string again)

let test_checkpoints_replay () =
  (* Service checkpoints are genuine flight records: `treeaa replay`'s
     engine re-executes them and must match the recorded digest. *)
  let dir = Filename.temp_dir "svc-replay" "" in
  let r = service_stream ~workers:2 ~record_dir:dir fixed_spec in
  check "completed" true (r.Service.status = Service.Completed);
  List.iter
    (fun f ->
      match Recorder.read_file (Filename.concat dir f) with
      | Error e -> Alcotest.fail (f ^ ": " ^ e)
      | Ok record -> (
          match Replay.run record with
          | Error e -> Alcotest.fail (f ^ ": replay failed: " ^ e)
          | Ok replay -> (
              match replay.Replay.verdict with
              | Ok () -> ()
              | Error d ->
                  Alcotest.fail
                    (Format.asprintf "%s: replay diverged: %a" f
                       Replay.pp_divergence d))))
    (cell_files dir)

(* ------------------------------------------------------------------ *)
(* checkpoint hardening: quarantine + stale tmp sweep *)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let quarantine_files dir =
  let q = Filename.concat dir "quarantine" in
  if Sys.file_exists q then Sys.readdir q |> Array.to_list |> List.sort compare
  else []

let test_stale_tmp_quarantined () =
  (* A .tmp left by a SIGKILLed worker must be swept aside on resume,
     never scanned as a checkpoint. *)
  let spec = { fixed_spec with Campaign.Spec.name = "svc-tmp" } in
  let baseline = Campaign.jsonl_string (Campaign.run ~workers:1 spec) in
  let dir = Filename.temp_dir "svc-tmp" "" in
  write_file
    (Filename.concat dir "cell-0002.record.jsonl.tmp")
    "{\"type\":\"run-record\" TRUNCATED MID-WRITE";
  let r = service_stream ~workers:2 ~record_dir:dir spec in
  check "completes" true (r.Service.status = Service.Completed);
  check_int "tmp counted as quarantined" 1 r.Service.manifest.Service.quarantined;
  check "tmp moved out of the scan path" false
    (Sys.file_exists (Filename.concat dir "cell-0002.record.jsonl.tmp"));
  check_int "tmp landed in quarantine/" 1 (List.length (quarantine_files dir));
  check "not degraded" false r.Service.manifest.Service.degraded;
  check_string "stream identical" baseline (Service.jsonl_string r)

let test_corrupt_checkpoints_quarantined () =
  (* Truncated, bit-flipped and garbage checkpoint files are moved to
     quarantine/ and their cells recomputed; the stream is unaffected. *)
  let spec = { fixed_spec with Campaign.Spec.name = "svc-quar" } in
  let baseline = Campaign.jsonl_string (Campaign.run ~workers:1 spec) in
  let dir = Filename.temp_dir "svc-quar" "" in
  let r0 = service_stream ~workers:2 ~record_dir:dir spec in
  check "first run completes" true (r0.Service.status = Service.Completed);
  let reps = spec.Campaign.Spec.repetitions in
  check_int "full record dir" reps (List.length (cell_files dir));
  let cell i = Filename.concat dir (Printf.sprintf "cell-%04d.record.jsonl" i) in
  (* truncate cell 0 *)
  let c0 = read_file (cell 0) in
  write_file (cell 0) (String.sub c0 0 (String.length c0 / 2));
  (* flip the recorded digest of cell 1: parses, fails verification *)
  let c1 = read_file (cell 1) in
  let idx =
    let marker = "\"digest\":\"" in
    let rec find i =
      if String.sub c1 i (String.length marker) = marker then
        i + String.length marker
      else find (i + 1)
    in
    find 0
  in
  let b = Bytes.of_string c1 in
  Bytes.set b idx (if Bytes.get b idx = 'f' then '0' else 'f');
  write_file (cell 1) (Bytes.to_string b);
  (* cell 2 becomes plain garbage *)
  write_file (cell 2) "this is not a flight record\n";
  let r = service_stream ~workers:2 ~record_dir:dir spec in
  check "resume completes" true (r.Service.status = Service.Completed);
  check_int "three files quarantined" 3 r.Service.manifest.Service.quarantined;
  check_int "the rest resumed" (reps - 3) r.Service.manifest.Service.resumed;
  check_int "exactly the damaged cells recomputed" 3
    r.Service.manifest.Service.computed;
  check_int "quarantine holds the evidence" 3
    (List.length (quarantine_files dir));
  check_int "record dir repopulated" reps (List.length (cell_files dir));
  check_string "stream identical" baseline (Service.jsonl_string r)

(* ------------------------------------------------------------------ *)
(* wire chaos drills + graceful degradation *)

let chaos_plan =
  match
    Service_chaos.parse
      "corrupt-frame:0.08+torn-write:0.05+drop-frame:0.05+dup-frame:0.08\
       +stall:0.05:0.01+seed:5"
  with
  | Ok p -> p
  | Error e -> failwith e

let chaos_spec =
  {
    fixed_spec with
    Campaign.Spec.name = "svc-chaos";
    repetitions = 6;
    base_seed = 31;
  }

let run_under_chaos ?(workers = 2) ?record_dir ?kill_worker_after_cells spec =
  Service.run ~workers ?record_dir ~heartbeat_period:0.05
    ~heartbeat_timeout:2. ~max_respawns:50 ~respawn_backoff:0.02
    ~progress_timeout:0.5 ~wire_chaos:chaos_plan ?kill_worker_after_cells spec

let test_chaos_workers_invariant () =
  (* The acceptance drill: under an active wire-chaos plan (all five
     fault kinds) plus a worker SIGKILL, every worker count produces the
     byte-identical stream of the undisturbed in-process run, and the
     generous respawn budget keeps the run from degrading. *)
  let baseline = Campaign.jsonl_string (Campaign.run ~workers:1 chaos_spec) in
  List.iter
    (fun workers ->
      match
        run_under_chaos ~workers ~kill_worker_after_cells:2 chaos_spec
      with
      | Error e -> Alcotest.fail (Printf.sprintf "workers:%d: %s" workers e)
      | Ok r ->
          check
            (Printf.sprintf "workers:%d completes" workers)
            true
            (r.Service.status = Service.Completed);
          check
            (Printf.sprintf "workers:%d not degraded" workers)
            false r.Service.manifest.Service.degraded;
          check_string
            (Printf.sprintf "workers:%d stream identical under chaos" workers)
            baseline (Service.jsonl_string r))
    [ 1; 2; 4 ]

let test_chaos_resume_bit_identical () =
  (* Chaos + coordinator crash + resume under chaos: still the exact
     baseline stream, with checkpoints accounted for. *)
  let baseline = Campaign.jsonl_string (Campaign.run ~workers:1 chaos_spec) in
  let dir = Filename.temp_dir "svc-chaos-resume" "" in
  let halted =
    match
      Service.run ~workers:2 ~record_dir:dir ~heartbeat_period:0.05
        ~heartbeat_timeout:2. ~max_respawns:50 ~respawn_backoff:0.02
        ~progress_timeout:0.5 ~wire_chaos:chaos_plan ~halt_after_cells:2
        chaos_spec
    with
    | Ok r -> r
    | Error e -> Alcotest.fail ("chaos halt: " ^ e)
  in
  (match halted.Service.status with
  | Service.Halted _ -> ()
  | Service.Completed -> Alcotest.fail "expected a halted campaign");
  let resumed =
    match run_under_chaos ~workers:2 ~record_dir:dir chaos_spec with
    | Ok r -> r
    | Error e -> Alcotest.fail ("chaos resume: " ^ e)
  in
  check "resume completes" true (resumed.Service.status = Service.Completed);
  check "checkpoints were resumed" true
    (resumed.Service.manifest.Service.resumed >= 2);
  check_string "stream identical after chaos resume" baseline
    (Service.jsonl_string resumed)

let test_degraded_completion () =
  (* Respawn budget zero + one SIGKILL: the dead slot becomes a
     permanent failure, the survivor finishes the whole grid, and the
     manifest reports the degradation instead of the run aborting. *)
  let spec = { fixed_spec with Campaign.Spec.name = "svc-degraded" } in
  let baseline = Campaign.jsonl_string (Campaign.run ~workers:1 spec) in
  match
    Service.run ~workers:2 ~max_respawns:0 ~kill_worker_after_cells:1 spec
  with
  | Error e -> Alcotest.fail ("degraded run aborted: " ^ e)
  | Ok r ->
      check "completes on the surviving pool" true
        (r.Service.status = Service.Completed);
      check "manifest says degraded" true r.Service.manifest.Service.degraded;
      check_int "one permanent failure" 1
        (List.length r.Service.manifest.Service.failures);
      (match r.Service.manifest.Service.failures with
      | [ f ] ->
          check "budget was exhausted" true (f.Service.restarts = 0);
          check "cause recorded" true (f.Service.cause <> "")
      | _ -> Alcotest.fail "expected exactly one failure");
      check_string "stream identical despite degradation" baseline
        (Service.jsonl_string r)

let test_hard_failure_then_resume () =
  (* One slot, zero budget, killed mid-run: the hard failure surfaces as
     Error — but the checkpoints survive, and a resume completes the
     grid bit-identically. *)
  let spec = { fixed_spec with Campaign.Spec.name = "svc-hard" } in
  let baseline = Campaign.jsonl_string (Campaign.run ~workers:1 spec) in
  let dir = Filename.temp_dir "svc-hard" "" in
  (match
     Service.run ~workers:1 ~record_dir:dir ~max_respawns:0
       ~kill_worker_after_cells:2 spec
   with
  | Ok r -> (
      match r.Service.status with
      | Service.Completed ->
          Alcotest.fail "expected the hard failure, got completion"
      | Service.Halted _ -> Alcotest.fail "unexpected halt")
  | Error e ->
      check "hard failure names the cause" true
        (let lower = String.lowercase_ascii e in
         String.length lower > 0
         &&
         let has needle =
           let nl = String.length needle and ll = String.length lower in
           let rec go i = i + nl <= ll && (String.sub lower i nl = needle || go (i + 1)) in
           go 0
         in
         has "respawn"));
  check "checkpoints survived the failure" true (cell_files dir <> []);
  let resumed = service_stream ~workers:2 ~record_dir:dir spec in
  check "resume completes" true (resumed.Service.status = Service.Completed);
  check_string "stream identical after hard failure + resume" baseline
    (Service.jsonl_string resumed)

let test_empty_grid () =
  let spec = { fixed_spec with Campaign.Spec.repetitions = 0 } in
  let r = service_stream ~workers:3 spec in
  check "completed" true (r.Service.status = Service.Completed);
  check_int "no workers spawned" 0 r.Service.manifest.Service.workers;
  check_string "stream matches in-process"
    (Campaign.jsonl_string (Campaign.run ~workers:1 spec))
    (Service.jsonl_string r)

let () =
  Alcotest.run "service"
    [
      ( "wire",
        [
          Alcotest.test_case "every split boundary recovers exactly" `Quick
            test_wire_every_boundary;
          QCheck_alcotest.to_alcotest prop_wire_fuzz;
          Alcotest.test_case "corrupt payload: skip + resync" `Quick
            test_wire_corrupt_payload;
          Alcotest.test_case "corrupt length: oversized + resync" `Quick
            test_wire_corrupt_length;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "plan grammar round-trips" `Quick
            test_chaos_grammar;
          Alcotest.test_case "schedules are seed-deterministic" `Quick
            test_chaos_deterministic_schedule;
          Alcotest.test_case "1/2/4 workers bit-identical under chaos" `Quick
            test_chaos_workers_invariant;
          Alcotest.test_case "chaos + coordinator crash + resume" `Quick
            test_chaos_resume_bit_identical;
        ] );
      ( "distributed",
        [ QCheck_alcotest.to_alcotest prop_distributed_invariant ] );
      ( "crash-resume",
        [
          Alcotest.test_case "halt + resume recomputes nothing" `Quick
            test_resume_recomputes_nothing;
          Alcotest.test_case "checkpoints replay bit-identically" `Quick
            test_checkpoints_replay;
          Alcotest.test_case "stale .tmp files are quarantined" `Quick
            test_stale_tmp_quarantined;
          Alcotest.test_case "corrupt checkpoints quarantined + recomputed"
            `Quick test_corrupt_checkpoints_quarantined;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "budget exhaustion completes degraded" `Quick
            test_degraded_completion;
          Alcotest.test_case "hard failure leaves resumable checkpoints"
            `Quick test_hard_failure_then_resume;
        ] );
      ( "edge",
        [ Alcotest.test_case "empty grid" `Quick test_empty_grid ] );
    ]

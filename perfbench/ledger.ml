(* The layered cost ledger: run one workload (or all of them) for a fixed
   time and print its end-to-end metrics (untraced) or per-layer metrics
   (traced), ending with one JSON line:
   {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}.

   ledger.exe --workload NAME|all --seed N --seconds S --trace 0|1
              [--tiny] [--commit REV]

   See README.md beside this file for every metric and workload. *)

open Treeagree
module Json = Aat_telemetry.Jsonx

let now = Service_clock.now

let median = function
  | [] -> 0.
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let k = Array.length a in
      if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.

let mb bytes = bytes /. 1e6

(* ------------------------------------------------------------------ *)
(* metric catalog: name, unit *)

let end_to_end =
  [
    ("wall_s", "s");
    ("setup_s", "s");
    ("rounds_per_s", "1/s");
    ("cells_per_s", "1/s");
    ("events_per_s", "1/s");
    ("heap_peak_mb", "MB");
    ("alloc_mb", "MB");
  ]

let per_layer =
  [
    ("tree.generate_ms", "ms");
    ("tree_aa.init_ms", "ms");
    ("tree_aa.send_ms", "ms");
    ("tree_aa.receive_ms", "ms");
    ("tree_aa.calls", "count");
    ("tree_aa.minor_words", "words");
    ("gradecast.round1_ms", "ms");
    ("gradecast.round2_ms", "ms");
    ("gradecast.round3_ms", "ms");
    ("adversary.deliver_ms", "ms");
    ("adversary.corrupt_ms", "ms");
    ("adversary.letters", "count");
    ("sync_engine.self_ms", "ms");
    ("sync_engine.minor_words", "words");
    ("sync_engine.letters", "count");
    ("sync_engine.payload_bytes", "B");
    ("tree_verdict.check_ms", "ms");
    ("runner.setup_ms", "ms");
    ("runner.rounds_ms", "ms");
    ("runner.checks_ms", "ms");
    ("campaign.instantiate_ms", "ms");
    ("campaign.render_ms", "ms");
    ("campaign.json_bytes", "B");
    ("campaign.fold_ms", "ms");
    ("service.first_cell_ms", "ms");
    ("service.overhead_ms_per_cell", "ms/cell");
    ("service.requeued_shards", "count");
    ("service.useful_frac", "ratio");
    ("wire.bytes_per_cell", "B/cell");
    ("wire.frames_per_cell", "frames/cell");
    ("async_aa.init_ms", "ms");
    ("async_aa.on_message_ms", "ms");
    ("async_engine.self_ms", "ms");
    ("async_engine.events", "count");
    ("async_engine.letters", "count");
    ("trace.overhead_frac", "ratio");
    ("trace.attributed_frac", "ratio");
  ]

(* One traced repetition's layer figures, read off {!Probe}. *)
let layer_values ~root =
  let st = Probe.stat in
  let ms s = s *. 1000. in
  let root_stat = st root in
  [
    ("tree.generate_ms", ms (st "tree.generate").seconds);
    ("tree_aa.init_ms", ms (st "tree_aa.init").seconds);
    ("tree_aa.send_ms", ms (st "tree_aa.send").seconds);
    ("tree_aa.receive_ms", ms (st "tree_aa.receive").seconds);
    ("tree_aa.calls", float_of_int ((st "tree_aa.send").calls + (st "tree_aa.receive").calls));
    ( "tree_aa.minor_words",
      (st "tree_aa.init").words +. (st "tree_aa.send").words +. (st "tree_aa.receive").words );
    ("gradecast.round1_ms", ms (st "gradecast.round1").seconds);
    ("gradecast.round2_ms", ms (st "gradecast.round2").seconds);
    ("gradecast.round3_ms", ms (st "gradecast.round3").seconds);
    ("adversary.deliver_ms", ms (st "adversary.deliver").seconds);
    ("adversary.corrupt_ms", ms (st "adversary.corrupt").seconds);
    ("adversary.letters", Probe.count "adversary.letters");
    ("sync_engine.self_ms", ms (st "sync_engine.run_outcome").self);
    ("sync_engine.minor_words", (st "sync_engine.run_outcome").self_words);
    ("tree_verdict.check_ms", ms (st "tree_verdict.check").seconds);
    ("runner.setup_ms", Probe.count "runner.setup_ms");
    ("runner.rounds_ms", Probe.count "runner.rounds_ms");
    ("runner.checks_ms", Probe.count "runner.checks_ms");
    ("campaign.instantiate_ms", ms (st "campaign.instantiate").seconds);
    ("campaign.render_ms", ms (st "campaign.render").seconds);
    ("campaign.json_bytes", Probe.count "campaign.json_bytes");
    ("campaign.fold_ms", ms (st "campaign.fold").seconds);
    ("service.first_cell_ms", Probe.count "service.first_cell_ms");
    ("service.overhead_ms_per_cell", Probe.count "service.overhead_ms_per_cell");
    ("service.requeued_shards", Probe.count "service.requeued_shards");
    ("service.useful_frac", Probe.count "service.useful_frac");
    ("wire.bytes_per_cell", Probe.count "wire.bytes_per_cell");
    ("wire.frames_per_cell", Probe.count "wire.frames_per_cell");
    ("async_aa.init_ms", ms (st "async_aa.init").seconds);
    ("async_aa.on_message_ms", ms (st "async_aa.on_message").seconds);
    ("async_engine.self_ms", ms (st "async_engine.run_outcome").self);
    ("async_engine.events", Probe.count "async_engine.events");
    ("async_engine.letters", Probe.count "async_engine.letters");
    ( "trace.attributed_frac",
      if root_stat.seconds > 0. then 1. -. (root_stat.self /. root_stat.seconds) else 0. );
  ]

(* ------------------------------------------------------------------ *)
(* measurement *)

type result = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  counters : (string * int) list;
  samples : string;  (** how many runs and probes the figures rest on *)
  walls : float list;  (** untraced repetition wall times, in run order *)
  machine : string;  (** the reference kernel's time and the unscaled times *)
}

(* Repeat [f] until [deadline], at least once, from a collected heap. *)
let repeat ~deadline f =
  let rec go acc =
    if acc <> [] && now () >= deadline then List.rev acc
    else begin
      Gc.full_major ();
      go (f () :: acc)
    end
  in
  go []

(* Set-up probes run between repetitions, so they sample the same stretch
   of machine time as the runs they precede. *)
let probes_per_rep = 5

let setup_probe (w : Workloads.t) =
  let t0 = now () in
  w.Workloads.setup ();
  now () -. t0

(* Counters must repeat exactly across repetitions: a mismatch is a
   failed check, one per differing repetition. *)
let drift (reps : Workloads.rep list) =
  match reps with
  | [] -> 0
  | r0 :: rest ->
      List.length
        (List.filter
           (fun (r : Workloads.rep) ->
             r.Workloads.counters <> r0.Workloads.counters || r.Workloads.digest <> r0.Workloads.digest)
           rest)

let sum f reps = List.fold_left (fun acc r -> acc + f r) 0 reps
let sum_f f reps = List.fold_left (fun acc r -> acc +. f r) 0. reps

(* The reference kernel's time on the reference machine (a 2-core Xeon VM):
   times are reported in that machine's seconds. Before each repetition the
   kernel runs for [kernel_share] of the previous repetition's time, so
   long repetitions are bracketed by several samples. *)
let nominal_kernel_s = 0.04
let kernel_share = 1. /. 16.

let measure (w : Workloads.t) ~seconds ~trace ~trace_file =
  (* one untimed repetition first: heap growth and lazy set-up are paid
     once per process, not once per repetition *)
  let warm = Gc.full_major (); w.Workloads.rep () in
  let start = now () in
  let untraced_until = start +. if trace then seconds /. 2. else seconds in
  let setups = ref [] and kernels = ref [] and last = ref warm.Workloads.wall in
  let sample_kernel () = kernels := Calib.samples ~budget:(!last *. kernel_share) @ !kernels in
  let plain =
    repeat ~deadline:untraced_until (fun () ->
        setups := List.init probes_per_rep (fun _ -> setup_probe w) @ !setups;
        sample_kernel ();
        let r = w.Workloads.rep () in
        last := r.Workloads.wall;
        r)
  in
  sample_kernel ();
  let heap_peak_mb = mb (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))) in
  (* Run figures are totals over the repetitions: on a machine whose speed
     shifts between levels for seconds at a time, work over time blends the
     levels a run saw, where a median snaps to one of them. [speed] scales
     them to the reference machine by the kernel's mean time over the same
     stretch, which cancels the level the shared host ran at. *)
  let kernel_s = sum_f Fun.id !kernels /. float_of_int (List.length !kernels) in
  let speed = nominal_kernel_s /. kernel_s in
  let mean_wall reps = sum_f (fun (r : Workloads.rep) -> r.Workloads.wall) reps /. float_of_int (List.length reps) in
  let elapsed = sum_f (fun r -> r.Workloads.wall) plain in
  let rate f = sum_f (fun r -> float_of_int (f r)) plain /. elapsed in
  let e2e =
    [
      ("wall_s", mean_wall plain *. speed);
      ("setup_s", median !setups *. speed);
      ("rounds_per_s", rate (fun r -> r.Workloads.rounds) /. speed);
      ("cells_per_s", rate (fun r -> r.Workloads.cells) /. speed);
      ("events_per_s", rate (fun r -> r.Workloads.deliveries) /. speed);
      ("heap_peak_mb", heap_peak_mb);
      ("alloc_mb", mb (sum_f (fun r -> r.Workloads.alloc_bytes) plain) /. float_of_int (List.length plain));
    ]
  in
  let machine =
    Printf.sprintf "kernel %.4f s (nominal %.4f), measured wall_s %.4f, setup_s %.6f" kernel_s
      nominal_kernel_s (mean_wall plain) (median !setups)
  in
  let traced, layers, counted =
    if not trace then ([], [], [])
    else begin
      let root = "perfbench " ^ w.Workloads.name in
      Probe.tracer := Obs_span.create ~pid:(Unix.getpid ()) ~clock:now ();
      Obs_span.process_name !Probe.tracer ("perfbench " ^ w.Workloads.name);
      Probe.enabled := true;
      let runs =
        repeat ~deadline:(start +. seconds) (fun () ->
            Probe.reset ();
            let r = Probe.span root w.Workloads.rep in
            (r, layer_values ~root))
      in
      Probe.enabled := false;
      Option.iter
        (fun path ->
          Out_channel.with_open_bin path (fun oc ->
              output_string oc (Json.to_string (Obs_span.to_json !Probe.tracer));
              output_char oc '\n'))
        trace_file;
      Probe.tracer := Obs_span.null;
      let reps = List.map fst runs in
      let counted = w.Workloads.count () in
      let layer name =
        match List.assoc_opt name counted with
        | Some v -> float_of_int v
        | None ->
            median (List.map (fun (_, vs) -> Option.value (List.assoc_opt name vs) ~default:0.) runs)
      in
      let overhead = (mean_wall reps /. mean_wall plain) -. 1. in
      ( reps,
        List.map
          (fun (name, _) -> (name, if name = "trace.overhead_frac" then overhead else layer name))
          per_layer,
        counted )
    end
  in
  let reps = (warm :: plain) @ traced in
  let verify_attempted, verify_failed = w.Workloads.verify reps in
  (* the traced run, and the counting pass's telemetry, must reproduce
     the untraced counters exactly *)
  let crossed =
    match (plain, traced) with
    | p :: _, t :: _ ->
        let same = p.Workloads.counters = t.Workloads.counters && p.Workloads.digest = t.Workloads.digest in
        let letters =
          match List.assoc_opt "sync_engine.letters" counted with
          | Some n -> List.assoc_opt "letters" p.Workloads.counters = Some n
          | None -> true
        in
        (if same then 0 else 1) + if letters then 0 else 1
    | _ -> 0
  in
  let repeats = List.length plain + max 0 (List.length traced - 1) in
  {
    attempted =
      sum (fun r -> r.Workloads.checks) reps + verify_attempted + repeats + if traced = [] then 0 else 2;
    failed =
      sum (fun r -> r.Workloads.failures) reps + verify_failed + drift (warm :: plain) + drift traced + crossed;
    metrics = (if trace then layers else e2e);
    counters = (match plain with r :: _ -> r.Workloads.counters | [] -> []);
    samples =
      Printf.sprintf "%d untraced runs, %d traced runs, %d set-up probes" (List.length plain)
        (List.length traced) (List.length !setups);
    walls = List.map (fun (r : Workloads.rep) -> r.Workloads.wall) plain;
    machine;
  }

(* ------------------------------------------------------------------ *)
(* output *)

(* [name] may carry a "<workload>." prefix (the all-workloads line) *)
let unit_of name =
  let base =
    match String.index_opt name '.' with
    | Some i when List.mem (String.sub name 0 i) Workloads.names ->
        String.sub name (i + 1) (String.length name - i - 1)
    | _ -> name
  in
  match List.assoc_opt base (end_to_end @ per_layer) with Some u -> u | None -> "count"

let metrics_json metrics =
  Json.Obj
    (List.map
       (fun (name, v) -> (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str (unit_of name)) ]))
       metrics)

let print_block ~workload ~tags r =
  Printf.printf "== %s  %s\n" workload
    (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) tags));
  List.iter (fun (name, v) -> Printf.printf "  %-30s %18.6f %s\n" name v (unit_of name)) r.metrics;
  Printf.printf "  %-30s %18.6f %s\n" "failed_frac"
    (float_of_int r.failed /. float_of_int (max 1 r.attempted))
    "ratio";
  List.iter (fun (k, v) -> Printf.printf "  counter %-22s %18d count\n" k v) r.counters;
  Printf.printf "  samples %s\n  machine %s\n  walls %s\n  checks %d attempted, %d failed\n%!"
    r.samples r.machine
    (String.concat " " (List.map (Printf.sprintf "%.4f") r.walls))
    r.attempted r.failed

let append_ledger ~path ~workload ~tags ~trace r =
  Out_channel.with_open_gen [ Open_append; Open_creat; Open_binary ] 0o644 path (fun oc ->
      output_string oc
        (Json.to_string
           (Json.Obj
              ([ ("workload", Json.Str workload); ("trace", Json.Bool trace) ]
              @ List.map (fun (k, v) -> (k, Json.Str v)) tags
              @ [
                  ("attempted", Json.Num (float_of_int r.attempted));
                  ("failed", Json.Num (float_of_int r.failed));
                  ("walls", Json.Arr (List.map (fun w -> Json.Num w) r.walls));
                  ("machine", Json.Str r.machine);
                  ("metrics", metrics_json r.metrics);
                  ( "counters",
                    Json.Obj (List.map (fun (k, v) -> (k, Json.Num (float_of_int v))) r.counters) );
                ])));
      output_char oc '\n')

let usage =
  "ledger.exe --workload NAME|all --seed N --seconds S --trace 0|1 [--tiny] [--commit REV]"

let () =
  let workload = ref "all" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let tiny = ref false and commit = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " workload name, or all");
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " measuring time per workload");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics");
      ("--tiny", Arg.Set tiny, " self-test sizes");
      ("--commit", Arg.Set_string commit, " source revision tag");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let names = if !workload = "all" then Workloads.names else [ !workload ] in
  let size = if !tiny then Workloads.tiny else Workloads.full in
  let selected =
    List.map
      (fun name ->
        match Workloads.make size ~seed:!seed name with
        | Some w -> w
        | None ->
            prerr_endline ("unknown workload " ^ name ^ "; one of: all " ^ String.concat " " Workloads.names);
            exit 2)
      names
  in
  let out_dir = ".perfbench" in
  Workloads.mkdir_p out_dir;
  let tags =
    [
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", Sys.ocaml_version);
      ("commit", !commit);
      ("seed", string_of_int !seed);
      ("size", if !tiny then "tiny" else "full");
    ]
  in
  let traced = !trace = 1 in
  let results =
    List.map
      (fun (w : Workloads.t) ->
        let name = w.Workloads.name in
        let trace_file =
          if traced then Some (Filename.concat out_dir (Printf.sprintf "%s-seed%d.trace.json" name !seed))
          else None
        in
        let r = measure w ~seconds:!seconds ~trace:traced ~trace_file in
        print_block ~workload:name ~tags r;
        append_ledger ~path:(Filename.concat out_dir "ledger.jsonl") ~workload:name ~tags ~trace:traced r;
        (name, r))
      selected
  in
  let attempted = List.fold_left (fun acc (_, r) -> acc + r.attempted) 0 results in
  let failed = List.fold_left (fun acc (_, r) -> acc + r.failed) 0 results in
  let metrics =
    match results with
    | [ (_, r) ] -> r.metrics
    | _ -> List.concat_map (fun (w, r) -> List.map (fun (k, v) -> (w ^ "." ^ k, v)) r.metrics) results
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (failed = 0));
            ("attempted", Json.Num (float_of_int attempted));
            ("failed", Json.Num (float_of_int failed));
            ("metrics", metrics_json metrics);
          ]));
  if !tiny && failed > 0 then exit 1

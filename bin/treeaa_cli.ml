(* treeaa — command-line front end.

   Subcommands:
     gen      generate a tree of a named family (edge list or DOT)
     inspect  print metrics and the Euler-tour list of a tree
     run      execute TreeAA on a tree against a chosen adversary
     campaign run a declarative batch campaign (JSONL out, --workers N)
     synth    search the adversary-genome space for worst-case executions
     replay   re-execute flight-recorder records, detect divergence
     trace    summarize / diff / blame telemetry traces and records
     bounds   print upper/lower round bounds for given n, t, D *)

open Treeagree
open Cmdliner

(* ---------- shared arguments ---------- *)

let tree_term =
  let file =
    Arg.(
      value
      & opt (some file) None
      & info [ "f"; "file" ] ~docv:"FILE" ~doc:"Read the tree from an edge-list file.")
  in
  let spec =
    Arg.(
      value
      & opt (some string) None
      & info [ "g"; "gen" ] ~docv:"SPEC"
          ~doc:"Generate the tree: path:N, star:N, caterpillar:S:L, \
                spider:L:N, balanced:A:D, broom:H:B, random:N:SEED, \
                diameter:N:D:SEED.")
  in
  (* a malformed or out-of-range tree is a usage error naming its source *)
  let build source make =
    match make () with
    | tree -> Ok tree
    | exception (Invalid_argument m | Tree.Invalid_tree m | Sys_error m) ->
        Error (Printf.sprintf "bad tree %s: %s" source m)
  in
  let combine file spec =
    match (file, spec) with
    | Some path, None ->
        build ("file " ^ path) (fun () ->
            In_channel.with_open_bin path In_channel.input_all
            |> Tree_io.of_edge_list)
    | None, Some s -> (
        match Codec.parse Generate.spec s with
        | Ok g ->
            build (Printf.sprintf "spec %S" s) (fun () -> Generate.of_spec g)
        | Error m -> Error (Printf.sprintf "bad tree spec %S: %s" s m))
    | None, None -> Error "provide a tree via --file or --gen"
    | Some _, Some _ -> Error "--file and --gen are mutually exclusive"
  in
  Term.(term_result' (const combine $ file $ spec))

let seed_term =
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc:"Adversary RNG seed.")

(* ---------- gen ---------- *)

let gen_cmd =
  let dot =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz DOT instead of an edge list.")
  in
  let action tree dot =
    print_string (if dot then Tree_io.to_dot tree else Tree_io.to_edge_list tree)
  in
  Cmd.v (Cmd.info "gen" ~doc:"Generate a tree and print it")
    Term.(const action $ tree_term $ dot)

(* ---------- inspect ---------- *)

let inspect_cmd =
  let action tree =
    let nv = Tree.n_vertices tree in
    Printf.printf "vertices:  %d\n" nv;
    Printf.printf "diameter:  %d\n" (Metrics.diameter tree);
    Printf.printf "radius:    %d\n" (Metrics.radius tree);
    Printf.printf "root:      %s\n" (Tree.label tree (Tree.root tree));
    Printf.printf "center:    %s\n"
      (String.concat " " (List.map (Tree.label tree) (Metrics.center tree)));
    Printf.printf "TreeAA schedule (rounds): %d\n" (Tree_aa.rounds ~tree);
    Printf.printf "NR baseline schedule:     %d\n" (Nr_baseline.rounds ~tree);
    if nv <= 20 then begin
      let tour = Euler_tour.compute (Rooted.make tree) in
      Printf.printf "euler list: %s\n"
        (String.concat " "
           (Array.to_list (Array.map (Tree.label tree) (Euler_tour.tour tour))));
      print_string (Tree_io.ascii_art tree)
    end
  in
  Cmd.v (Cmd.info "inspect" ~doc:"Print tree metrics and protocol schedules")
    Term.(const action $ tree_term)

(* ---------- run ---------- *)

let adversary_conv tree t =
  let barrier = max 1 (Paths_finder.rounds ~tree) in
  let nv = Tree.n_vertices tree in
  function
  | "none" -> Ok (Adversary.passive "none")
  | "silent" -> Ok (Strategies.random_silent ~count:t)
  | "crash" ->
      Ok (Strategies.crash ~at_round:(max 1 (barrier / 2)) ~victims:(List.init t Fun.id))
  | "spoiler" ->
      let iter1 =
        Rounds.bdh_iterations ~range:(float_of_int ((2 * nv) - 2)) ~eps:1.
      in
      let iter2 =
        Rounds.bdh_iterations ~range:(float_of_int (Metrics.diameter tree)) ~eps:1.
      in
      Ok
        (Compose_adversary.phased ~name:"spoiler" ~barrier
           ~first:(Spoiler.realaa_spoiler ~t ~iterations:iter1)
           ~second:(Spoiler.realaa_spoiler ~t ~iterations:iter2))
  | "wedge" ->
      Ok
        (Compose_adversary.phased ~name:"wedge" ~barrier
           ~first:(Wedge.gradecast_wedge ())
           ~second:(Wedge.gradecast_wedge ()))
  | other -> Error (Printf.sprintf "unknown adversary %S" other)

let run_cmd =
  let n_term =
    Arg.(value & opt int 7 & info [ "n" ] ~docv:"N" ~doc:"Number of parties.")
  in
  let t_term =
    Arg.(
      value & opt int 2
      & info [ "t" ] ~docv:"T" ~doc:"Byzantine budget (guarantees need t < n/3).")
  in
  let adversary_term =
    Arg.(
      value & opt string "silent"
      & info [ "a"; "adversary" ] ~docv:"ADV"
          ~doc:"Adversary: none, silent, crash, spoiler, wedge.")
  in
  let inputs_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "i"; "inputs" ] ~docv:"LABELS"
          ~doc:"Comma-separated input vertex labels, one per party \
                (default: seeded random vertices).")
  in
  let trace_out_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:"Stream per-round telemetry (message counts, corruptions, \
                gradecast grades, convergence snapshots) to \
                $(docv) as JSON lines; see docs/TELEMETRY.md.")
  in
  let fault_plan_term =
    Arg.(
      value & opt string "none"
      & info [ "fault-plan" ] ~docv:"PLAN"
          ~doc:
            "Inject non-Byzantine faults; clauses joined by ';': crash:P@R, \
             crash-recover:P@A-B, omission:PROB, omission:PROB:party:P, \
             omission:PROB:pair:S>D, partition:B1|B2@A-B. 'none' disables. \
             Deterministic in --seed; see docs/FAULTS.md.")
  in
  let watch_term =
    Arg.(
      value & flag
      & info [ "watchdogs" ]
          ~doc:"Install runtime invariant watchdogs (see docs/FAULTS.md).")
  in
  let action tree n t adv_name inputs_spec seed trace_out fault_plan_str watch =
    let ( let* ) = Result.bind in
    let* inputs =
      match inputs_spec with
      | None ->
          let rng = Rng.create (seed + 1) in
          Ok (Array.init n (fun _ -> Rng.int rng (Tree.n_vertices tree)))
      | Some s -> (
          let labels = String.split_on_char ',' s |> List.map String.trim in
          if List.length labels <> n then
            Error
              (Printf.sprintf "bad --inputs: expected %d labels (one per party), got %d"
                 n (List.length labels))
          else
            match List.find_opt (fun l -> not (Tree.mem_label tree l)) labels with
            | Some l -> Error (Printf.sprintf "bad --inputs: no vertex is labelled %S" l)
            | None -> Ok (Array.of_list (List.map (Tree.vertex_of_label tree) labels)))
    in
    let* fault_plan =
      match Fault_plan_io.parse fault_plan_str with
      | Error m -> Error ("bad --fault-plan: " ^ m)
      | Ok p ->
          if not (Fault_plan.sync_compatible p) then
            Error
              "--fault-plan: duplicate/delay faults are async-only; the run \
               subcommand uses the synchronous engine"
          else (
            match Fault_plan.validate ~n p with
            | Ok () -> Ok p
            | Error m -> Error ("bad --fault-plan: " ^ m))
    in
    match adversary_conv tree t adv_name with
    | Error m -> Error m
    | Ok adversary -> (
        let run () =
          match trace_out with
          | None ->
              Quick.agree ~seed ~tree ~inputs ~t ~adversary ~fault_plan ~watch ()
          | Some path ->
              let oc = open_out path in
              Fun.protect
                ~finally:(fun () -> close_out oc)
                (fun () ->
                  Quick.agree ~seed ~tree ~inputs ~t ~adversary ~fault_plan
                    ~watch ~telemetry:(Telemetry.Jsonl.sink oc) ())
        in
        match run () with
        | exception Sys_error m -> Error ("cannot write trace: " ^ m)
        | exception exn -> Error ("run failed: " ^ Printexc.to_string exn)
        | outcome ->
        Printf.printf "n=%d t=%d adversary=%s tree: |V|=%d D=%d\n" n t adv_name
          (Tree.n_vertices tree) (Metrics.diameter tree);
        Option.iter (Printf.printf "telemetry trace: %s\n") trace_out;
        if outcome.Quick.status <> "completed" then
          Printf.printf "status: %s\n" outcome.Quick.status;
        Printf.printf "rounds used: %d (schedule %d)\n" outcome.rounds
          (Tree_aa.rounds ~tree);
        Printf.printf "corrupted: %s\n"
          (String.concat " "
             (List.map string_of_int outcome.report.Report.corrupted));
        let faults = outcome.report.Report.fault_stats in
        if Report.faults_active faults then
          Format.printf "faults: %a@." Report.pp_fault_stats faults;
        List.iter
          (fun (v : Watchdog.violation) ->
            Format.printf "watchdog: %a@." Watchdog.pp_violation v)
          outcome.report.Report.watchdog_violations;
        List.iter
          (fun (p, label) -> Printf.printf "  party %d -> %s\n" p label)
          (Quick.output_labels tree outcome);
        Format.printf "verdict: %a@." Verdict.pp outcome.verdict;
        match outcome.Quick.grade with
        | Verdict.Passed -> Ok ()
        | Verdict.Excused { reason; _ } ->
            Printf.printf "excused: %s\n" reason;
            Ok ()
        | Verdict.Violated _ -> Error "AA violated (expected when t >= n/3)")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run TreeAA on a tree against an adversary")
    Term.(
      term_result'
        (const action $ tree_term $ n_term $ t_term $ adversary_term
       $ inputs_term $ seed_term $ trace_out_term $ fault_plan_term
       $ watch_term))

(* ---------- campaign ---------- *)

let spec_file_term =
  Arg.(
    value
    & opt (some file) None
    & info [ "spec" ] ~docv:"FILE"
        ~doc:
          "Load the full campaign spec from a JSON file (the same object \
           Spec_io embeds in flight-record headers and the service wire \
           hello). Takes precedence over every grid-shape flag \
           (-p/--protocol, --tree, -n, -t, -i/--inputs, -a/--adversary, \
           --eps, --reps, --name, --seed, --fault-plan, --chaos, \
           --watchdogs).")

let aggregate_summary name (agg : Campaign.aggregate) =
  let opt label v = if v = 0 then "" else Printf.sprintf ", %d %s" v label in
  Printf.eprintf "campaign %s: %d tasks, %d violations, %d errors%s%s%s\n"
    name agg.Campaign.tasks agg.Campaign.violations agg.Campaign.errors
    (opt "timeouts" agg.Campaign.timeouts)
    (opt "engine-errors" agg.Campaign.engine_errors)
    (opt "excused" agg.Campaign.excused)

let write_stream_to out write =
  match out with
  | None -> write stdout
  | Some path ->
      let oc = open_out path in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write oc)

let campaign_run_cmd =
  let protocol_term =
    Arg.(
      value & opt string "tree-aa"
      & info [ "p"; "protocol" ] ~docv:"PROTO"
          ~doc:
            "Protocol family: tree-aa, nr-baseline, path-aa, known-path-aa, \
             realaa, iterated-midpoint, async-tree-aa, round-sim-tree-aa.")
  in
  let tree_term =
    Arg.(
      value & opt string "any"
      & info [ "tree" ] ~docv:"FAMILY"
          ~doc:
            "Tree family: any, path:SIZE, star:SIZE, caterpillar:SIZE:SIZE, \
             spider:SIZE:SIZE, balanced:SIZE:SIZE, random:SIZE. SIZE is N or \
             LO-HI (drawn per task).")
  in
  let n_term =
    Arg.(
      value & opt string "4-13"
      & info [ "n" ] ~docv:"SIZE" ~doc:"Parties per task: N or LO-HI.")
  in
  let t_term =
    Arg.(
      value & opt string "third"
      & info [ "t" ] ~docv:"T"
          ~doc:
            "Byzantine budget: an integer, or 'third' to draw uniformly from \
             [0, (n-1)/3] per task.")
  in
  let inputs_term =
    Arg.(
      value & opt string "vertices"
      & info [ "i"; "inputs" ] ~docv:"DIST"
          ~doc:
            "Input distribution: vertices (tree protocols), linspace:D or \
             loguniform:LOG10MIN:LOG10MAX (real-valued protocols).")
  in
  let adversary_term =
    Arg.(
      value & opt string "none"
      & info [ "a"; "adversary" ] ~docv:"ADV"
          ~doc:
            "Adversary family: none, silent, crash, spoiler (TreeAA), \
             real-spoiler, wedge, any-tree, any-real.")
  in
  let eps_term =
    Arg.(
      value & opt float 1.0
      & info [ "eps" ] ~docv:"EPS"
          ~doc:"Agreement distance for realaa / iterated-midpoint.")
  in
  let reps_term =
    Arg.(
      value & opt int 100
      & info [ "reps" ] ~docv:"N" ~doc:"Number of independent tasks.")
  in
  let workers_term =
    Arg.(
      value & opt int 1
      & info [ "workers"; "j" ] ~docv:"W"
          ~doc:
            "Worker domains (default 1; 0 means all cores). The JSONL stream \
             and aggregates are identical for every value.")
  in
  let name_term =
    Arg.(
      value & opt string "cli"
      & info [ "name" ] ~docv:"NAME" ~doc:"Campaign name for the JSONL header.")
  in
  let out_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write the JSONL result stream to $(docv) (default: stdout).")
  in
  let fault_plan_term =
    Arg.(
      value & opt string "none"
      & info [ "fault-plan" ] ~docv:"PLAN"
          ~doc:
            "Apply one fixed fault plan to every task (grammar as for 'treeaa \
             run --fault-plan'; async protocols additionally accept \
             duplicate:PROB and delay:PROB:BY). See docs/FAULTS.md.")
  in
  let chaos_term =
    Arg.(
      value
      & opt (some float) None
      & info [ "chaos" ] ~docv:"INTENSITY"
          ~doc:
            "Draw a fresh random fault plan per task from the task seed, \
             scaled by $(docv) in [0, 1]. Mutually exclusive with \
             --fault-plan.")
  in
  let watchdogs_term =
    Arg.(
      value & flag
      & info [ "watchdogs" ]
          ~doc:"Install runtime invariant watchdogs on every task.")
  in
  let trace_dir_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-dir" ] ~docv:"DIR"
          ~doc:
            "Write one full telemetry trace per task to \
             $(docv)/cell-NNNN.jsonl (off by default; execution is \
             unaffected).")
  in
  let record_dir_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "record-dir" ] ~docv:"DIR"
          ~doc:
            "Write one flight-recorder record per task to \
             $(docv)/cell-NNNN.record.jsonl — spec, seeds, trace and \
             outcome digest; 'treeaa replay' re-executes them.")
  in
  let repro_dir_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "repro-dir" ] ~docv:"DIR"
          ~doc:
            "For every failing cell (violated, engine-error), write a \
             minimal repro record to $(docv)/cell-NNNN.repro.jsonl that \
             'treeaa replay' accepts directly.")
  in
  let profile_term =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Collect per-task stage timings (setup/rounds/checks) and \
             allocation counts into the JSONL stream's outcome objects.")
  in
  let distributed_term =
    Arg.(
      value
      & opt (some int) None
      & info [ "distributed" ] ~docv:"W"
          ~doc:
            "Run the grid on $(docv) worker $(i,processes) via the campaign \
             service (coordinator + forked workers over socketpairs; 0 \
             means all cores) instead of in-process domains. The JSONL \
             stream is bit-identical either way. --record-dir becomes the \
             service's crash-resume checkpoint directory; incompatible \
             with --trace-dir, --repro-dir and --profile.")
  in
  let status_out_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "status-out" ] ~docv:"FILE"
          ~doc:
            "Write a status JSON with the campaign's deterministic metric \
             snapshot to $(docv) (atomically), plus a Prometheus text twin \
             at $(docv).prom. In-process the file is written once at \
             completion; with --distributed the service rewrites it live, \
             at least once per heartbeat period. See docs/OBSERVABILITY.md.")
  in
  let manifest_out_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "manifest-out" ] ~docv:"FILE"
          ~doc:
            "Write the end-of-run service manifest JSON to $(docv) \
             (atomically). Requires --distributed; the stderr summary is \
             unchanged.")
  in
  let action protocol tree n t inputs adversary eps reps workers name out seed
      fault_plan_str chaos watchdogs trace_dir record_dir repro_dir profile
      spec_file distributed status_out manifest_out =
    let ( let* ) = Result.bind in
    let* spec =
      match spec_file with
      | Some path -> Spec_io.read_file path
      | None ->
          (* the flag grammars are the ones flight records persist *)
          let* protocol = Spec_io.protocol_of_string ~eps protocol in
          let* adversary = Spec_io.adversary_of_string adversary in
          let* inputs = Spec_io.inputs_of_string inputs in
          let* tree = Spec_io.tree_family_of_string tree in
          let* n = Spec_io.size_of_string n in
          let* t_budget =
            if t = "third" then Ok Campaign.Spec.Up_to_third
            else
              match Codec.parse Codec.int t with
              | Ok t -> Ok (Campaign.Spec.Fixed_t t)
              | Error m -> Error ("bad --t: " ^ m)
          in
          let* faults =
            match (fault_plan_str, chaos) with
            | "none", None -> Ok Campaign.Spec.No_faults
            | "none", Some intensity -> Ok (Campaign.Spec.Chaos { intensity })
            | _, Some _ ->
                Error "--fault-plan and --chaos are mutually exclusive"
            | s, None -> (
                match Fault_plan_io.parse s with
                | Ok p -> Ok (Campaign.Spec.Fault_plan p)
                | Error m -> Error ("bad --fault-plan: " ^ m))
          in
          Ok
            {
              Campaign.Spec.name;
              protocol;
              tree;
              n;
              t_budget;
              inputs;
              adversary;
              faults;
              watchdogs;
              repetitions = max 0 reps;
              base_seed = seed;
            }
    in
    let* () = Campaign.Spec.validate spec in
    let name = spec.Campaign.Spec.name in
    let reps = spec.Campaign.Spec.repetitions in
    match distributed with
    | Some w ->
        (* The service path: worker processes, wire protocol, optional
           crash-resume checkpoints under --record-dir. Per-cell
           telemetry stays with the in-process runner. *)
        let* () =
          if trace_dir <> None || repro_dir <> None || profile then
            Error
              "--distributed is incompatible with --trace-dir, --repro-dir \
               and --profile (service workers ship outcomes, not traces; \
               use --record-dir for replayable checkpoints)"
          else Ok ()
        in
        let w = if w <= 0 then Pool.default_workers () else w in
        let* result = Service.run ~workers:w ?record_dir ?status_out spec in
        write_stream_to out (fun oc -> Service.write_jsonl oc result);
        (match manifest_out with
        | None -> ()
        | Some path ->
            Obs.Metrics.write_atomic ~path
              (Telemetry.Json.to_string (Service.manifest_json result) ^ "\n"));
        aggregate_summary name result.Service.aggregate;
        Ok ()
    | None ->
    let* () =
      if manifest_out <> None then
        Error "--manifest-out requires --distributed (or 'campaign serve')"
      else Ok ()
    in
    let workers = if workers <= 0 then Pool.default_workers () else workers in
    let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755 in
    let cell_path dir task pattern = Filename.concat dir (Printf.sprintf pattern task) in
    (* Per-task observability sinks. Trace files stream from the worker
       domains (each task owns its file, so no cross-domain sharing);
       record sinks accumulate in a per-task Stats slot and are written
       out after the pool joins. Channels are closed after the run — a
       task whose engine errors never reaches on_stop. *)
    Option.iter ensure_dir trace_dir;
    Option.iter ensure_dir record_dir;
    Option.iter ensure_dir repro_dir;
    let channels = Array.make reps None in
    let stats = Array.make reps None in
    let telemetry =
      match (trace_dir, record_dir) with
      | None, None -> None
      | _ ->
          Some
            (fun ~task ->
              let file_sink =
                Option.map
                  (fun dir ->
                    let oc = open_out (cell_path dir task "cell-%04d.jsonl") in
                    channels.(task) <- Some oc;
                    Telemetry.Jsonl.sink oc)
                  trace_dir
              in
              let stats_sink =
                Option.map
                  (fun _ ->
                    let st = Telemetry.Stats.create () in
                    stats.(task) <- Some st;
                    Telemetry.Stats.sink st)
                  record_dir
              in
              match (file_sink, stats_sink) with
              | Some a, Some b -> Some (Telemetry.Sink.tee a b)
              | (Some _ as s), None | None, (Some _ as s) -> s
              | None, None -> None)
    in
    let result = Campaign.run ~workers ?telemetry ~profile spec in
    Array.iter (Option.iter close_out) channels;
    (match record_dir with
    | None -> ()
    | Some dir ->
        Array.iter
          (fun (tr : Campaign.task_result) ->
            match (tr.Campaign.result, stats.(tr.Campaign.task)) with
            | Ok o, Some st ->
                let record =
                  {
                    Recorder.spec;
                    task_seed = tr.Campaign.task_seed;
                    engine_seed = o.Runner.seed;
                    trace = Trace.of_stats st;
                    outcome = Some (Campaign.json_of_outcome o);
                    digest = Some (Recorder.digest_of_outcome o);
                  }
                in
                Recorder.write_file
                  (cell_path dir tr.Campaign.task "cell-%04d.record.jsonl")
                  record
            | _ -> ())
          result.Campaign.results);
    (match repro_dir with
    | None -> ()
    | Some dir ->
        List.iter
          (fun (task, record) ->
            Recorder.write_file
              (cell_path dir task "cell-%04d.repro.jsonl")
              record)
          (Recorder.failing_cells result));
    write_stream_to out (fun oc -> Campaign.write_jsonl oc result);
    Option.iter (fun path -> Service.write_status ~path result) status_out;
    aggregate_summary name result.Campaign.aggregate;
    Ok ()
  in
  Term.(
    term_result'
      (const action $ protocol_term $ tree_term $ n_term $ t_term
     $ inputs_term $ adversary_term $ eps_term $ reps_term $ workers_term
     $ name_term $ out_term $ seed_term $ fault_plan_term $ chaos_term
     $ watchdogs_term $ trace_dir_term $ record_dir_term $ repro_dir_term
     $ profile_term $ spec_file_term $ distributed_term $ status_out_term
     $ manifest_out_term))

(* ---------- campaign serve ---------- *)

let campaign_serve_cmd =
  let spec_req_term =
    Arg.(
      required
      & opt (some file) None
      & info [ "spec" ] ~docv:"FILE"
          ~doc:
            "The campaign spec, as a JSON file (required; same codec as \
             'treeaa campaign --spec').")
  in
  let workers_term =
    Arg.(
      value & opt int 2
      & info [ "workers"; "j" ] ~docv:"W"
          ~doc:"Worker processes (default 2; 0 means all cores).")
  in
  let record_dir_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "record-dir" ] ~docv:"DIR"
          ~doc:
            "Checkpoint every completed cell to \
             $(docv)/cell-NNNN.record.jsonl and resume matching \
             checkpoints on start — a killed service re-run with the \
             same spec and $(docv) recomputes nothing it already \
             finished.")
  in
  let out_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write the JSONL result stream to $(docv) (default: stdout).")
  in
  let heartbeat_period_term =
    Arg.(
      value & opt float 0.25
      & info [ "heartbeat-period" ] ~docv:"SECONDS"
          ~doc:"Worker heartbeat period (default 0.25s).")
  in
  let heartbeat_timeout_term =
    Arg.(
      value & opt float 30.
      & info [ "heartbeat-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Silence after which a worker is presumed dead, SIGKILLed \
             and its shard re-queued (default 30s).")
  in
  let max_respawns_term =
    Arg.(
      value & opt int 2
      & info [ "max-respawns" ] ~docv:"K"
          ~doc:"Respawn budget per worker slot (default 2).")
  in
  let respawn_backoff_term =
    Arg.(
      value & opt float 0.5
      & info [ "respawn-backoff" ] ~docv:"SECONDS"
          ~doc:
            "Base of the exponential backoff before a dead worker slot is \
             respawned: $(docv) * 2^restarts, with seeded jitter (default \
             0.5s).")
  in
  let progress_timeout_term =
    Arg.(
      value
      & opt (some float) None
      & info [ "progress-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Kill a worker that holds a shard but has delivered no fresh \
             cell for $(docv) seconds, even if it still heartbeats — the \
             livelock detector (default: off; strongly recommended with \
             $(b,--wire-chaos) plans that drop or tear frames).")
  in
  let wire_chaos_term =
    Arg.(
      value & opt string "none"
      & info [ "wire-chaos" ] ~docv:"PLAN"
          ~doc:
            "Deterministic wire-fault injection plan for chaos drills: \
             '+'-joined clauses among $(b,corrupt-frame:P), \
             $(b,torn-write:P), $(b,drop-frame:P), $(b,dup-frame:P), \
             $(b,stall:P:SECONDS) and $(b,seed:N), e.g. \
             'corrupt-frame:0.05+stall:0.02:0.01+seed:7'; 'none' disables \
             (see docs/ROBUSTNESS.md).")
  in
  let status_out_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "status-out" ] ~docv:"FILE"
          ~doc:
            "Atomically rewrite a live status JSON at $(docv) at least \
             once per heartbeat period — progress counters, per-worker \
             health (heartbeat/progress lag, backoff deadlines) and the \
             merged metric snapshot — plus a Prometheus text twin at \
             $(docv).prom; read it with $(b,treeaa status). See \
             docs/OBSERVABILITY.md.")
  in
  let trace_events_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-events" ] ~docv:"FILE"
          ~doc:
            "Atomically rewrite Chrome trace-event JSON at $(docv) \
             (open in chrome://tracing or Perfetto): the campaign root \
             span, per-slot shard and backoff spans, kill instants, and \
             each worker's per-cell spans with setup/rounds/checks \
             stage sub-spans, carried over the wire by heartbeat \
             piggyback.")
  in
  let manifest_out_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "manifest-out" ] ~docv:"FILE"
          ~doc:
            "Also write the end-of-run manifest JSON to $(docv) \
             (atomically); the stderr manifest line is unchanged.")
  in
  let action spec_file workers record_dir out heartbeat_period
      heartbeat_timeout max_respawns respawn_backoff progress_timeout
      wire_chaos status_out trace_events manifest_out =
    let ( let* ) = Result.bind in
    (* A NaN or infinite period used to reach select as EINVAL, and a zero
       or negative timeout killed every worker: both ended in exit 4. *)
    let seconds ~flag ~lo ok v =
      if Float.is_finite v && ok v then Ok ()
      else Error (Printf.sprintf "bad --%s %g: must be finite and %s" flag v lo)
    in
    let positive ~flag = seconds ~flag ~lo:"> 0" (fun v -> v > 0.) in
    let* () = positive ~flag:"heartbeat-period" heartbeat_period in
    let* () = positive ~flag:"heartbeat-timeout" heartbeat_timeout in
    let* () =
      Option.fold ~none:(Ok ()) ~some:(positive ~flag:"progress-timeout")
        progress_timeout
    in
    let* () =
      seconds ~flag:"respawn-backoff" ~lo:">= 0" (fun v -> v >= 0.) respawn_backoff
    in
    let* spec = Spec_io.read_file spec_file in
    let* () = Campaign.Spec.validate spec in
    let* wire_chaos =
      match Service_chaos.parse wire_chaos with
      | Ok p -> Ok p
      | Error m -> Error ("bad --wire-chaos: " ^ m)
    in
    let workers = if workers <= 0 then Pool.default_workers () else workers in
    match
      Service.run ~workers ?record_dir ~heartbeat_period ~heartbeat_timeout
        ~max_respawns ~respawn_backoff ?progress_timeout ~wire_chaos
        ?status_out ?trace_events spec
    with
    | Error e ->
        (* The hard failure: every slot's respawn budget is spent with
           work outstanding. Checkpoints under --record-dir survive for
           a resume. Distinct exit code so orchestrators can tell
           "re-run me" from a CLI usage error. *)
        Printf.eprintf "treeaa campaign serve: %s\n" e;
        exit 4
    | Ok result ->
        write_stream_to out (fun oc -> Service.write_jsonl oc result);
        (match manifest_out with
        | None -> ()
        | Some path ->
            Obs.Metrics.write_atomic ~path
              (Telemetry.Json.to_string (Service.manifest_json result) ^ "\n"));
        Printf.eprintf "%s\n"
          (Telemetry.Json.to_string (Service.manifest_json result));
        if result.Service.manifest.Service.degraded then exit 3;
        Ok ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run a campaign spec on forked worker processes with crash-resume \
          checkpoints; the end-of-run manifest goes to stderr"
       ~exits:
         (Cmd.Exit.info 0 ~doc:"the campaign completed cleanly."
         :: Cmd.Exit.info 3
              ~doc:
                "the campaign completed $(b,degraded): some worker slot \
                 exhausted its respawn budget and the grid was finished \
                 by the surviving pool; per-slot causes are in the \
                 stderr manifest."
         :: Cmd.Exit.info 4
              ~doc:
                "hard failure: every worker slot exhausted its respawn \
                 budget with work outstanding. Checkpoints under \
                 $(b,--record-dir) survive; re-run to resume."
         :: Cmd.Exit.defaults))
    Term.(
      term_result'
        (const action $ spec_req_term $ workers_term $ record_dir_term
       $ out_term $ heartbeat_period_term $ heartbeat_timeout_term
       $ max_respawns_term $ respawn_backoff_term $ progress_timeout_term
       $ wire_chaos_term $ status_out_term $ trace_events_term
       $ manifest_out_term))

let campaign_cmd =
  Cmd.group ~default:campaign_run_cmd
    (Cmd.info "campaign"
       ~doc:
         "Run a declarative batch campaign, JSONL out (see 'campaign serve' \
          for the multi-process service)")
    [ campaign_serve_cmd ]

(* ---------- replay ---------- *)

let replay_cmd =
  let files_term =
    Arg.(
      non_empty
      & pos_all file []
      & info [] ~docv:"RECORD"
          ~doc:
            "Flight-recorder files (cell-NNNN.record.jsonl or \
             cell-NNNN.repro.jsonl) to re-execute.")
  in
  let replay_one path =
    match Recorder.read_file path with
    | Error m ->
        Printf.printf "%s: unreadable record: %s\n" path m;
        false
    | Ok record -> (
        match Replay.run record with
        | Error m ->
            Printf.printf "%s: replay failed: %s\n" path m;
            false
        | Ok r -> (
            match r.Replay.verdict with
            | Ok () ->
                Printf.printf "%s: replay clean (%s, %d rounds, digest %s)\n"
                  path
                  (Runner.status_label r.Replay.outcome.Runner.status)
                  r.Replay.outcome.Runner.rounds_used r.Replay.digest;
                true
            | Error d ->
                Printf.printf "%s: DIVERGED — %s\n" path
                  (Format.asprintf "%a" Replay.pp_divergence d);
                false))
  in
  let action files =
    let clean = List.for_all Fun.id (List.map replay_one files) in
    if clean then Ok ()
    else Error "replay diverged (or records were unreadable)"
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-execute flight-recorder records and report the first \
          divergence, if any")
    Term.(term_result' (const action $ files_term))

(* ---------- trace ---------- *)

let trace_file_pos =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"TRACE" ~doc:"A telemetry trace or record file (JSONL).")

let trace_summarize_cmd =
  let action path =
    match Trace.load path with
    | Error m -> Error m
    | Ok tr ->
        (match tr.Trace.meta with
        | Some m ->
            Printf.printf
              "run: %s/%s vs %s, n=%d t=%d seed=%d, initially corrupted: %s\n"
              m.Telemetry.engine m.Telemetry.protocol m.Telemetry.adversary
              m.Telemetry.n m.Telemetry.t m.Telemetry.seed
              (match m.Telemetry.initial_corruptions with
              | [] -> "none"
              | ps -> String.concat "," (List.map string_of_int ps))
        | None -> Printf.printf "run: (no start header)\n");
        let events = tr.Trace.events in
        Printf.printf "rounds: %d\n" (List.length events);
        (match tr.Trace.summary with
        | Some s ->
            Printf.printf "messages: %d honest, %d adversary\n"
              s.Telemetry.honest_messages s.Telemetry.adversary_messages
        | None -> ());
        let totals = Trace.send_totals tr in
        if Array.length totals > 0 then
          Printf.printf "sent per party: [%s]\n"
            (String.concat "; "
               (Array.to_list (Array.map string_of_int totals)));
        (match Trace.convergence tr with
        | [] -> ()
        | curve ->
            Printf.printf "convergence (round, spread): %s\n"
              (String.concat " "
                 (List.map
                    (fun (r, sp) -> Printf.sprintf "(%d, %g)" r sp)
                    curve)));
        Ok ()
  in
  Cmd.v
    (Cmd.info "summarize" ~doc:"Print a trace's headline numbers")
    Term.(term_result' (const action $ trace_file_pos))

let trace_diff_cmd =
  let expected_pos =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"EXPECTED" ~doc:"The reference trace (JSONL).")
  in
  let actual_pos =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"ACTUAL" ~doc:"The trace to compare against it.")
  in
  let action expected actual =
    let ( let* ) = Result.bind in
    let* e = Trace.load expected in
    let* a = Trace.load actual in
    match Trace.diff ~expected:e ~actual:a with
    | None ->
        Printf.printf "identical (%d rounds)\n" (List.length e.Trace.events);
        Ok ()
    | Some d -> Error (Format.asprintf "%a" Trace.pp_divergence d)
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"First divergent round and field between two traces")
    Term.(term_result' (const action $ expected_pos $ actual_pos))

let trace_blame_cmd =
  let action path =
    (* Records carry their watchdog violations; plain traces localize by
       spread expansion alone. *)
    let ( let* ) = Result.bind in
    let* tr, violations =
      match Recorder.read_file path with
      | Ok record -> Ok (record.Recorder.trace, Recorder.violations record)
      | Error _ -> Result.map (fun tr -> (tr, [])) (Trace.load path)
    in
    match Trace.blame ~violations tr with
    | Some b ->
        Printf.printf "%s\n" (Format.asprintf "%a" Trace.pp_blame b);
        Ok ()
    | None ->
        Printf.printf "no violation or spread expansion in this trace\n";
        Ok ()
  in
  Cmd.v
    (Cmd.info "blame"
       ~doc:
         "Localize where a run went wrong: first watchdog violation or \
          spread expansion, with suspect parties")
    Term.(term_result' (const action $ trace_file_pos))

let trace_cmd =
  Cmd.group
    (Cmd.info "trace" ~doc:"Analyze telemetry traces and records")
    [ trace_summarize_cmd; trace_diff_cmd; trace_blame_cmd ]

(* ---------- bounds ---------- *)

let bounds_cmd =
  let n_term = Arg.(value & opt int 10 & info [ "n" ] ~docv:"N" ~doc:"Parties.") in
  let t_term =
    Arg.(value & opt int 3 & info [ "t" ] ~docv:"T" ~doc:"Byzantine budget, t < n/3.")
  in
  let d_term =
    Arg.(value & opt float 1e6 & info [ "d" ] ~docv:"D" ~doc:"Input diameter.")
  in
  let action n t d =
    if n < 1 || t < 0 || 3 * t >= n then
      Error
        (Printf.sprintf
           "bad -n %d -t %d: the bounds hold in the model's n >= 1, \
            0 <= t < n/3"
           n t)
    else
      match Rounds.bdh_rounds ~range:d ~eps:1. with
      | exception Invalid_argument m ->
          Error (Printf.sprintf "bad -d %g: %s" d m)
      | schedule ->
          Printf.printf "n=%d t=%d D=%g\n" n t d;
          Printf.printf "RealAA schedule (rounds):     %d\n" schedule;
          Printf.printf "Theorem 3 closed-form bound:  %d\n"
            (Rounds.paper_round_bound ~range:d ~eps:1.);
          Printf.printf "halving baseline iterations:  %d\n"
            (Rounds.halving_iterations ~range:d ~eps:1.);
          Printf.printf "Fekete lower bound (rounds):  %d\n"
            (Fekete.min_rounds ~n ~t ~d ~eps:1.);
          Printf.printf "Theorem 2 closed form:        %.2f\n"
            (Fekete.theorem2_closed_form ~n ~t ~d);
          let r = max 1 (Fekete.min_rounds ~n ~t ~d ~eps:1.) in
          Printf.printf "optimal adversary split t_i:  [%s]\n"
            (String.concat "; "
               (List.map string_of_int (Fekete.optimal_partition ~t ~r)));
          Printf.printf "log2 of Fekete chain length:  %.2f\n"
            (Fekete.chain_length ~n ~t ~r);
          Ok ()
  in
  Cmd.v
    (Cmd.info "bounds" ~doc:"Print round-complexity upper and lower bounds")
    Term.(term_result' (const action $ n_term $ t_term $ d_term))

(* ---------- chain ---------- *)

let chain_cmd =
  let n_term = Arg.(value & opt int 7 & info [ "n" ] ~docv:"N" ~doc:"Parties.") in
  let t_term =
    Arg.(value & opt int 2 & info [ "t" ] ~docv:"T" ~doc:"Byzantine budget, 2t < n.")
  in
  let d_term =
    Arg.(value & opt float 100. & info [ "d" ] ~docv:"D" ~doc:"Input spread, >= 0.")
  in
  let action n t d =
    (* the trimmed-midpoint rule drops t values from each end of n *)
    if t < 1 || 2 * t >= n then
      Error
        (Printf.sprintf
           "bad -n %d -t %d: the trimmed-midpoint rule needs 1 <= t and 2t < n" n t)
    else if not (Float.is_finite d && d >= 0.) then
      Error (Printf.sprintf "bad -d %g: the input spread must be finite and >= 0" d)
    else begin
      Printf.printf
        "Fekete one-round view chain, n=%d t=%d, inputs in {0, %g}:\n\n" n t d;
      let views = Chain.one_round_chain ~n ~t ~a:0. ~b:d in
      let f view = Option.get (Trim.trimmed_midpoint ~t (Array.to_list view)) in
      List.iteri
        (fun i view ->
          Printf.printf "  v%-2d [%s]  ->  trimmed-midpoint output %.2f\n" i
            (String.concat " "
               (Array.to_list (Array.map (Printf.sprintf "%g") view)))
            (f view))
        views;
      let gap = Chain.max_adjacent_gap ~f ~n ~t ~a:0. ~b:d in
      Printf.printf
        "\nConsecutive views co-occur in one execution (the differing group \
         of <= %d parties\nequivocates), yet the max adjacent output gap is \
         %.2f >= K(1,D) = %.2f:\nno 1-round protocol can achieve \
         %g-agreement here (Theorem 1).\n"
        t gap
        (d *. float_of_int t /. float_of_int (n + t))
        1.0;
      Ok ()
    end
  in
  Cmd.v
    (Cmd.info "chain" ~doc:"Walk Fekete's one-round lower-bound view chain")
    Term.(term_result' (const action $ n_term $ t_term $ d_term))

(* ---------- synth ---------- *)

let synth_cmd =
  let protocol_term =
    Arg.(
      value & opt string "treeaa"
      & info [ "protocol" ] ~docv:"P"
          ~doc:
            "Synthesis target: treeaa, realaa, iterated-midpoint, \
             async-tree-aa, or all.")
  in
  let generations_term =
    Arg.(
      value & opt int 3
      & info [ "generations" ] ~docv:"G"
          ~doc:"Search generations (initial population included).")
  in
  let population_term =
    Arg.(
      value & opt int 6
      & info [ "population" ] ~docv:"P" ~doc:"Genomes evaluated per generation.")
  in
  let driver_term =
    Arg.(
      value & opt string "evolve"
      & info [ "driver" ] ~docv:"D"
          ~doc:"Search driver: random, hill, or evolve ((mu+lambda)).")
  in
  let workers_term =
    Arg.(
      value & opt int 1
      & info [ "workers"; "j" ] ~docv:"W"
          ~doc:
            "Evaluation worker domains (default 1; 0 means all cores). The \
             champion, gap and printed report are identical for every value.")
  in
  let record_out_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "record-out" ] ~docv:"FILE"
          ~doc:
            "Write the champion's flight record here (replay it with \
             $(b,treeaa replay)). With --protocol all, one file per target \
             (FILE.<target>).")
  in
  let json_out_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "json-out" ] ~docv:"FILE" ~doc:"Write the gap report as JSON.")
  in
  let print_report (r : Synth.report) =
    let t = r.Synth.target in
    Printf.printf "target: %s (%s, %s engine)  n=%d t=%d D=%g R=%d\n" t.Synth.label
      (Campaign.Spec.protocol_label t.Synth.protocol)
      t.Synth.engine t.Synth.n t.Synth.t t.Synth.d t.Synth.rounds;
    Printf.printf "driver: %s  generations=%d population=%d seed=%d\n"
      (Synth.driver_label r.Synth.config.Synth.driver)
      r.Synth.config.Synth.generations r.Synth.config.Synth.population
      r.Synth.config.Synth.seed;
    Printf.printf "evaluations: %d\n" r.Synth.evaluations;
    Printf.printf "champion: genome:%s\n" (Genome.to_string r.Synth.champion.Synth.genome);
    Printf.printf "  spread (fitness): %.6g\n" r.Synth.champion.Synth.fitness;
    Printf.printf "  grade: %s\n"
      (Verdict.graded_label r.Synth.champion.Synth.outcome.Runner.grade);
    Printf.printf "gap after R=%d rounds:\n" t.Synth.rounds;
    Printf.printf "  K(R,D)   = %.6g\n" r.Synth.gap.Synth.k_theory;
    Printf.printf "  measured = %.6g\n" r.Synth.gap.Synth.measured;
    Printf.printf "  ratio    = %.6g\n" r.Synth.gap.Synth.ratio;
    (match r.Synth.gap.Synth.envelope with
    | Some e -> Printf.printf "  lemma5   = %.6g\n" e
    | None -> ());
    Printf.printf "  sound    = %b\n" r.Synth.gap.Synth.sound;
    Printf.printf "history: %s\n"
      (String.concat ", "
         (List.map
            (fun (gen, fit) -> Printf.sprintf "g%d=%.6g" gen fit)
            r.Synth.history))
  in
  let action protocol seed workers generations population driver record_out
      json_out =
    match Synth.driver_of_string driver with
    | Error m -> Error m
    | Ok driver -> (
        let targets =
          if protocol = "all" then Ok (Synth.default_targets ())
          else Result.map (fun t -> [ t ]) (Synth.target_for protocol)
        in
        match targets with
        | Error m -> Error m
        | Ok targets ->
            let config =
              { Synth.driver; generations; population; seed; workers }
            in
            let reports =
              List.mapi
                (fun i target ->
                  if i > 0 then print_newline ();
                  let r = Synth.search config target in
                  print_report r;
                  r)
                targets
            in
            (match record_out with
            | None -> ()
            | Some path ->
                let single = match reports with [ _ ] -> true | _ -> false in
                List.iter
                  (fun (r : Synth.report) ->
                    let file =
                      if single then path
                      else path ^ "." ^ r.Synth.target.Synth.label
                    in
                    Recorder.write_file file r.Synth.champion.Synth.record;
                    Printf.printf "champion record: %s\n" file)
                  reports);
            (match json_out with
            | None -> ()
            | Some path ->
                let json =
                  Telemetry.Json.Obj
                    [
                      ("schema", Telemetry.Json.Str "treeagree-synth-gap/v1");
                      ( "gaps",
                        Telemetry.Json.Arr
                          (List.map Synth.gap_json reports) );
                    ]
                in
                let oc = open_out path in
                output_string oc (Telemetry.Json.to_string json);
                output_string oc "\n";
                close_out oc;
                Printf.printf "gap json: %s\n" path);
            Ok ())
  in
  Cmd.v
    (Cmd.info "synth"
       ~doc:
         "Search the adversary-genome space for worst-case executions and \
          report the gap to the Fekete lower bound")
    Term.(
      term_result'
        (const action $ protocol_term $ seed_term $ workers_term
       $ generations_term $ population_term $ driver_term $ record_out_term
       $ json_out_term))

(* ---------- status ---------- *)

let status_cmd =
  let file_pos =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"STATUS"
          ~doc:
            "A status file written by --status-out ('campaign serve', \
             'campaign --distributed' or in-process 'campaign').")
  in
  let action path =
    let ( let* ) = Result.bind in
    let* json = Telemetry.Json.read_file path in
    let mem name = Telemetry.Json.member name json in
    let num name = Option.bind (mem name) Telemetry.Json.to_float in
    let str name = Option.bind (mem name) Telemetry.Json.to_str in
    let count name = match num name with Some v -> int_of_float v | None -> 0 in
    Printf.printf "campaign: %s  status: %s\n"
      (Option.value (str "name") ~default:"?")
      (Option.value (str "status") ~default:"?");
    let total = count "cells_total" and done_ = count "cells_done" in
    let pct =
      if total = 0 then 100. else 100. *. float_of_int done_ /. float_of_int total
    in
    Printf.printf "progress: %d/%d cells (%.1f%%), %d computed, %d resumed\n"
      done_ total pct (count "computed") (count "resumed");
    (match num "elapsed_seconds" with
    | Some dt when dt > 0. ->
        Printf.printf "elapsed: %.1fs (%.1f cells/s)\n" dt
          (float_of_int (count "computed") /. dt)
    | _ -> ());
    let incidents =
      List.filter
        (fun (_, v) -> v > 0)
        [
          ("quarantined checkpoints", count "quarantined");
          ("requeued shards", count "requeued_shards");
          ("worker restarts", count "worker_restarts");
          ("protocol errors", count "protocol_errors");
          ("progress kills", count "progress_kills");
        ]
    in
    if incidents <> [] then
      Printf.printf "incidents: %s\n"
        (String.concat ", "
           (List.map (fun (l, v) -> Printf.sprintf "%d %s" v l) incidents));
    (* per-worker health, when the service wrote the file *)
    (match Option.bind (mem "workers") Telemetry.Json.to_list with
    | None | Some [] -> ()
    | Some ws ->
        let cell name w =
          match Telemetry.Json.member name w with
          | Some (Telemetry.Json.Num v) -> Printf.sprintf "%g" v
          | Some (Telemetry.Json.Str s) -> s
          | Some (Telemetry.Json.Bool b) -> string_of_bool b
          | _ -> "-"
        in
        Aat_bench_tables.print_table ~title:"workers"
          ~header:
            [ "slot"; "pid"; "alive"; "restarts"; "hb lag s"; "progress lag s";
              "backoff s"; "shard"; "failure" ]
          (List.map
             (fun w ->
               [
                 cell "slot" w; cell "pid" w; cell "alive" w;
                 cell "restarts" w; cell "heartbeat_lag_seconds" w;
                 cell "progress_lag_seconds" w;
                 cell "backoff_remaining_seconds" w; cell "shard_inflight" w;
                 cell "failure" w;
               ])
             ws));
    (* top error-ish counters from the metric snapshot *)
    match mem "metrics" with
    | None -> Ok ()
    | Some mj -> (
        match Obs.Metrics.Snapshot.of_json mj with
        | Error m -> Error (Printf.sprintf "%s: bad metrics snapshot: %s" path m)
        | Ok snap ->
            let interesting name =
              List.exists
                (fun frag ->
                  (* substring test *)
                  let ln = String.length name and lf = String.length frag in
                  let rec at i =
                    i + lf <= ln && (String.sub name i lf = frag || at (i + 1))
                  in
                  at 0)
                [
                  "error"; "garbage"; "mismatch"; "resync"; "oversized";
                  "fault"; "kill"; "requeue"; "quarantine"; "violation";
                  "restart";
                ]
            in
            let counters =
              List.filter_map
                (fun (s : Obs.Metrics.Snapshot.series) ->
                  match s.Obs.Metrics.Snapshot.value with
                  | Obs.Metrics.Snapshot.Counter v
                    when v > 0. && interesting s.Obs.Metrics.Snapshot.name ->
                      Some (s, v)
                  | _ -> None)
                snap
              |> List.stable_sort (fun (_, a) (_, b) -> Float.compare b a)
            in
            (match counters with
            | [] -> Printf.printf "error counters: none\n"
            | _ ->
                let rec take n = function
                  | x :: rest when n > 0 -> x :: take (n - 1) rest
                  | _ -> []
                in
                Aat_bench_tables.print_table ~title:"top error counters"
                  ~header:[ "series"; "labels"; "count" ]
                  (List.map
                     (fun ((s : Obs.Metrics.Snapshot.series), v) ->
                       [
                         s.Obs.Metrics.Snapshot.name;
                         String.concat ","
                           (List.map
                              (fun (k, lv) -> Printf.sprintf "%s=%s" k lv)
                              s.Obs.Metrics.Snapshot.labels);
                         Printf.sprintf "%g" v;
                       ])
                     (take 12 counters)));
            Ok ())
  in
  Cmd.v
    (Cmd.info "status"
       ~doc:
         "Summarize a --status-out file: progress, rates, per-worker \
          health and top error counters")
    Term.(term_result' (const action $ file_pos))

(* ---------- bench ---------- *)

let bench_check_cmd =
  let files_term =
    Arg.(
      non_empty
      & pos_all file []
      & info [] ~docv:"BENCH"
          ~doc:"Committed BENCH_<TABLE>.json files to verify.")
  in
  let workers_term =
    Arg.(
      value & opt int 2
      & info [ "workers"; "j" ] ~docv:"W"
          ~doc:
            "Worker domains for the parallel table groups (default 2; 0 \
             means all cores). The determinism contract makes the bytes \
             identical for every value — that is what the check relies \
             on.")
  in
  let distributed_term =
    Arg.(
      value
      & opt (some int) None
      & info [ "distributed" ] ~docv:"W"
          ~doc:
            "Regenerate the campaign-backed groups on $(docv) service \
             worker processes instead of in-process domains (0 means all \
             cores); the bytes must not change.")
  in
  let action files workers distributed =
    let workers, distributed =
      match distributed with
      | Some w -> ((if w <= 0 then Pool.default_workers () else w), true)
      | None -> ((if workers <= 0 then Pool.default_workers () else workers), false)
    in
    let drifts = Aat_bench_tables.check_files ~distributed ~workers files in
    Aat_bench_tables.print_table ~title:"BENCH drift check"
      ~header:[ "file"; "table"; "result" ]
      (List.map
         (fun (d : Aat_bench_tables.drift) ->
           [
             d.Aat_bench_tables.path;
             Option.value d.Aat_bench_tables.table ~default:"?";
             (match d.Aat_bench_tables.verdict with
             | `Match -> "ok"
             | `Drift detail -> "DRIFT: " ^ detail
             | `Error m -> "ERROR: " ^ m);
           ])
         drifts);
    if
      List.for_all
        (fun (d : Aat_bench_tables.drift) ->
          d.Aat_bench_tables.verdict = `Match)
        drifts
    then Ok ()
    else
      Error
        "BENCH drift detected — regenerate with 'dune exec bench/main.exe -- \
         --table <NAME> --json-out' and commit the result"
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Regenerate committed BENCH_*.json table groups in memory and \
          byte-compare (the CI drift gate)")
    Term.(term_result' (const action $ files_term $ workers_term $ distributed_term))

let bench_cmd =
  Cmd.group
    (Cmd.info "bench" ~doc:"Experiment-table utilities")
    [ bench_check_cmd ]

let () =
  let doc = "round-optimal Byzantine approximate agreement on trees" in
  let info = Cmd.info "treeaa" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            gen_cmd;
            inspect_cmd;
            run_cmd;
            campaign_cmd;
            synth_cmd;
            replay_cmd;
            trace_cmd;
            bounds_cmd;
            chain_cmd;
            status_cmd;
            bench_cmd;
          ]))

(* Randomized soak campaign: hammer every protocol in the repository with
   random trees, inputs, adversaries and schedulers, and report any
   violation of its specification. Exit code 0 = clean campaign.

     dune exec bin/soak.exe -- --runs 200 --seed 0 --workers 2

   --chaos INTENSITY additionally draws a random fault plan (crashes,
   omissions, partitions, async duplicate/delay) per task and turns the
   invariant watchdogs on; out-of-model failures are excused, not counted
   as violations, and no fault plan may crash the process.

   Built on the Campaign subsystem: each protocol family is a declarative
   spec, runs fan out over the Pool, and results are bit-identical
   whatever --workers says.

   This is the long-running complement to the qcheck properties in the test
   suite: same oracles, bigger and more varied search space, one summary
   line per protocol family. *)

open Treeagree
open Cmdliner

let family_specs ~runs ~seed ~faults ~watchdogs =
  (* Spread the run budget evenly; every family derives its own base seed
     by splitting the campaign seed, so families are independent streams. *)
  let share i = (runs / 4) + if i < runs mod 4 then 1 else 0 in
  let base i = Campaign.split_seed ~base:seed ~index:i in
  let open Campaign.Spec in
  [
    {
      name = "tree-aa";
      protocol = Tree_aa;
      tree = Any_tree;
      n = Between (4, 13);
      t_budget = Up_to_third;
      inputs = Random_vertices;
      adversary = Any_tree_adversary;
      faults;
      watchdogs;
      repetitions = share 0;
      base_seed = base 0;
    };
    {
      name = "nr-baseline";
      protocol = Nr_baseline;
      tree = Any_tree;
      n = Between (4, 13);
      t_budget = Up_to_third;
      inputs = Random_vertices;
      adversary = Random_silent;
      faults;
      watchdogs;
      repetitions = share 1;
      base_seed = base 1;
    };
    {
      name = "realaa";
      protocol = Real_aa { eps = 1. };
      tree = Any_tree;
      n = Between (4, 18);
      t_budget = Up_to_third;
      inputs = Log_uniform_reals { log10_min = 1.; log10_max = 6. };
      adversary = Any_real_adversary;
      faults;
      watchdogs;
      repetitions = share 2;
      base_seed = base 2;
    };
    {
      name = "async-tree-aa";
      protocol = Async_tree_aa;
      tree = Random_tree (Between (2, 61));
      n = Exactly 7;
      t_budget = Fixed_t 2;
      inputs = Random_vertices;
      adversary = Passive;
      faults;
      watchdogs;
      repetitions = share 3;
      base_seed = base 3;
    };
  ]

(* Both execution paths produce the same aggregate and per-task errors:
   the in-process campaign pool, or — under --distributed — the
   multi-process campaign service (whose JSONL/aggregate determinism
   contract makes the soak output identical either way). *)
let run_spec ~workers ~distributed (spec : Campaign.Spec.t) =
  if distributed then (
    match Service.run ~workers spec with
    | Error e ->
        Printf.eprintf "[%s] campaign service failed: %s\n"
          spec.Campaign.Spec.name e;
        exit 1
    | Ok r ->
        let seeds =
          Campaign.task_seeds ~base_seed:spec.Campaign.Spec.base_seed
            ~count:spec.Campaign.Spec.repetitions
        in
        Array.iteri
          (fun task cell ->
            match cell with
            | Some (Error e) ->
                Printf.eprintf "[%s] task %d (seed %d) raised %s\n"
                  spec.Campaign.Spec.name task seeds.(task) e
            | _ -> ())
          r.Service.cells;
        r.Service.aggregate)
  else
    let result = Campaign.run ~workers spec in
    Array.iter
      (fun (tr : Campaign.task_result) ->
        match tr.Campaign.result with
        | Ok _ -> ()
        | Error e ->
            Printf.eprintf "[%s] task %d (seed %d) raised %s\n"
              spec.Campaign.Spec.name tr.Campaign.task tr.Campaign.task_seed e)
      result.Campaign.results;
    result.Campaign.aggregate

let soak runs seed workers chaos spec_file distributed =
  let faults, watchdogs =
    match chaos with
    | None -> (Campaign.Spec.No_faults, false)
    | Some intensity -> (Campaign.Spec.Chaos { intensity }, true)
  in
  let workers = if workers <= 0 then Pool.default_workers () else workers in
  let failures = ref 0 in
  let total = ref 0 in
  let timeouts = ref 0 in
  let engine_errors = ref 0 in
  let excused = ref 0 in
  let specs =
    match spec_file with
    | None -> family_specs ~runs ~seed ~faults ~watchdogs
    | Some path -> (
        (* A single spec read like 'treeaa campaign --spec'; the
           grid-shape flags (--runs, --seed, --chaos) are ignored. *)
        match Spec_io.read_file path with
        | Ok spec -> [ spec ]
        | Error m ->
            prerr_endline m;
            exit 1)
  in
  List.iter
    (fun (spec : Campaign.Spec.t) ->
      let agg = run_spec ~workers ~distributed spec in
      failures := !failures + agg.Campaign.violations;
      total := !total + agg.Campaign.tasks;
      timeouts := !timeouts + agg.Campaign.timeouts;
      engine_errors := !engine_errors + agg.Campaign.engine_errors;
      excused := !excused + agg.Campaign.excused;
      Printf.printf "%-14s %5d runs  %d violations%s\n"
        spec.Campaign.Spec.name agg.Campaign.tasks agg.Campaign.violations
        (if agg.Campaign.excused > 0 || agg.Campaign.timeouts > 0 then
           Printf.sprintf "  (%d excused, %d timeouts)" agg.Campaign.excused
             agg.Campaign.timeouts
         else ""))
    specs;
  (* Engine errors are uncontained exceptions the structured-outcome layer
     caught; under any fault plan they indicate a containment bug. *)
  if !engine_errors > 0 then begin
    Printf.printf "SOAK FAILED: %d engine errors\n" !engine_errors;
    exit 1
  end;
  if !failures > 0 then begin
    Printf.printf "SOAK FAILED: %d violations\n" !failures;
    exit 1
  end
  else
    Printf.printf "soak clean (%d runs, seed %d%s)\n" !total seed
      (match chaos with
      | None -> ""
      | Some i ->
          Printf.sprintf ", chaos %g: %d excused, %d timeouts" i !excused
            !timeouts)

let runs_t =
  Arg.(
    value & opt int 200
    & info [ "runs" ]
        ~docv:"N"
        ~doc:"Total number of runs across all protocol families (default 200).")

let seed_t =
  Arg.(
    value & opt int 0
    & info [ "seed" ] ~docv:"SEED" ~doc:"Base campaign seed (default 0).")

let workers_t =
  Arg.(
    value
    & opt int 1
    & info [ "workers"; "j" ] ~docv:"W"
        ~doc:
          "Worker domains for the campaign pool (default 1; 0 means all \
           cores). Results are identical for every value.")

let chaos_t =
  Arg.(
    value
    & opt (some float) None
    & info [ "chaos" ] ~docv:"INTENSITY"
        ~doc:
          "Chaos mode: draw a random fault plan per task (intensity in \
           [0, 1], scaling fault probabilities) and enable the invariant \
           watchdogs. Deterministic in --seed.")

let spec_t =
  Arg.(
    value
    & opt (some file) None
    & info [ "spec" ] ~docv:"FILE"
        ~doc:
          "Soak one campaign spec loaded from a JSON file (the Spec_io \
           codec shared with 'treeaa campaign --spec' and flight-record \
           headers) instead of the built-in protocol families; --runs, \
           --seed and --chaos are ignored.")

let distributed_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "distributed" ] ~docv:"W"
        ~doc:
          "Run each family through the multi-process campaign service on \
           $(docv) worker processes instead of in-process domains; the \
           soak output is identical. Overrides --workers.")

(* The old positional form `soak.exe RUNS SEED` is gone; catch it with a
   clear pointer instead of silently ignoring the arguments. *)
let no_positional_t =
  let reject = function
    | [] -> Ok ()
    | args ->
        Error
          (Printf.sprintf
             "positional arguments %s are not accepted; use --runs N, --seed \
              S (and --workers W)"
             (String.concat " " (List.map (Printf.sprintf "%S") args)))
  in
  Term.(term_result' (const reject $ Arg.(value & pos_all string [] & info [] ~docv:"")))

let cmd =
  let doc = "randomized soak campaign over every protocol family" in
  Cmd.v
    (Cmd.info "soak" ~doc)
    Term.(
      const (fun () runs seed workers chaos spec distributed ->
          let workers, distributed =
            match distributed with
            | Some w -> (w, true)
            | None -> (workers, false)
          in
          soak runs seed workers chaos spec distributed)
      $ no_positional_t $ runs_t $ seed_t $ workers_t $ chaos_t $ spec_t
      $ distributed_t)

let () = exit (Cmd.eval cmd)

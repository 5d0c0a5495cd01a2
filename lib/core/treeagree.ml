(** Treeagree — round-optimal Byzantine approximate agreement on trees.

    The one-stop public API of the library, re-exporting every component of
    the reproduction of "Towards Round-Optimal Approximate Agreement on
    Trees" (PODC 2025) under stable names, plus the {!Quick} facade for
    programs that just want to run an agreement.

    {1 Layers}

    - trees: {!Tree}, {!Rooted}, {!Paths}, {!Metrics}, {!Euler_tour},
      {!Lca}, {!Convex_hull}, {!Projection}, {!Generate}, {!Prufer},
      {!Tree_io}
    - runtime substrate (shared by both engines): {!Types}, {!Mailbox},
      {!Report}, {!Defaults}, {!Adversary}
    - simulation: {!Engine} (synchronous), {!Async_engine} + {!Round_sim}
      (asynchronous), {!Protocol}, {!Verdict}, {!Strategies}, {!Spoiler},
      {!Wedge}, {!Telemetry}
    - protocols: {!Gradecast}, {!Real_aa} (the [6] building block),
      {!Iterated_midpoint} (baselines), {!Path_aa}, {!Known_path_aa},
      {!Paths_finder}, {!Tree_aa} (the paper's contribution),
      {!Nr_baseline}
    - batch execution: {!Runner} (one erased entry point per protocol),
      {!Pool} (deterministic [Domain] fan-out), {!Campaign} (declarative
      batch specs with per-task seed splitting)
    - observability: {!Spec_io} (spec codec), {!Trace} (parsed traces,
      diffing, blame), {!Recorder} (flight records), {!Replay}
      (deterministic replay with divergence detection)
    - analysis: {!Fekete}, {!Chain}, {!Rounds}, {!Tree_verdict} *)

module Rng = Aat_util.Rng
module Codec = Aat_util.Codec

(* trees *)
module Tree = Aat_tree.Labeled_tree
module Rooted = Aat_tree.Rooted
module Paths = Aat_tree.Paths
module Metrics = Aat_tree.Metrics
module Euler_tour = Aat_tree.Euler_tour
module Lca = Aat_tree.Lca
module Convex_hull = Aat_tree.Convex_hull
module Projection = Aat_tree.Projection
module Generate = Aat_tree.Generate
module Prufer = Aat_tree.Prufer
module Tree_io = Aat_tree.Tree_io

(* runtime substrate — one transport/adversary/report layer under both
   engines; [Engine.run] and [Async_engine.run] both return [Report.t] *)
module Types = Aat_engine.Types
module Party_set = Aat_runtime.Party_set
module Mailbox = Aat_runtime.Mailbox
module Report = Aat_runtime.Report
module Defaults = Aat_runtime.Defaults
module Outcome = Aat_runtime.Outcome
module Watchdog = Aat_runtime.Watchdog

(* fault injection: declarative plans compiled onto the Mailbox, invariant
   watchdog catalog, and the plan grammar used by the --fault-plan flags *)
module Fault_plan = Aat_faults.Plan
module Fault_plan_io = Aat_faults.Plan_io
module Fault_inject = Aat_faults.Inject
module Fault_watchdogs = Aat_faults.Watchdog

(* simulation *)
module Telemetry = Aat_telemetry.Telemetry
module Protocol = Aat_engine.Protocol
module Composed = Aat_engine.Composed
module Engine = Aat_engine.Sync_engine
module Adversary = Aat_engine.Adversary
module Verdict = Aat_engine.Verdict
module Strategies = Aat_adversary.Strategies
module Spoiler = Aat_adversary.Spoiler
module Wedge = Aat_adversary.Wedge
module Compose_adversary = Aat_adversary.Compose
module Genome = Aat_adversary.Genome

(* protocols *)
module Gradecast = Aat_gradecast.Gradecast
module Real_aa = Aat_realaa.Bdh
module Early_real_aa = Aat_realaa.Early_bdh
module Iterated_midpoint = Aat_realaa.Iterated_midpoint
module Closest_int = Aat_realaa.Closest_int
module Trim = Aat_realaa.Trim
module Rounds = Aat_realaa.Rounds
module Path_aa = Aat_treeaa.Path_aa
module Known_path_aa = Aat_treeaa.Known_path_aa
module Paths_finder = Aat_treeaa.Paths_finder
module Tree_aa = Aat_treeaa.Tree_aa
module Nr_baseline = Aat_treeaa.Nr_baseline
module Tree_verdict = Aat_treeaa.Tree_verdict

(* asynchronous model *)
module Async_engine = Aat_async.Async_engine
module Round_sim = Aat_async.Round_sim
module Bracha = Aat_async.Bracha
module Async_aa = Aat_async.Async_aa

(* batch execution: the unified Runner API and the campaign driver *)
module Runner = Aat_campaign.Runner
module Pool = Aat_campaign.Pool
module Campaign = Aat_campaign.Campaign

(* observability: spec codec, parsed traces + blame, flight recorder,
   deterministic replay *)
module Spec_io = Aat_obs.Spec_io
module Trace = Aat_obs.Trace
module Recorder = Aat_obs.Recorder
module Replay = Aat_obs.Replay

(* service observability: the metrics registry and the span tracer
   ([Metrics] names the tree-metric module above, so the registry is
   exported under the Obs_ prefix; [Obs.Metrics]/[Obs.Span] also work) *)
module Obs = Aat_obs
module Obs_metrics = Aat_obs.Metrics
module Obs_span = Aat_obs.Span

(* the sharded multi-process campaign service with crash-resume *)
module Service = Aat_service.Service
module Service_wire = Aat_service.Wire
module Service_chaos = Aat_service.Chaos
module Service_clock = Aat_service.Clock

(* authenticated setting *)
module Auth = Aat_auth.Auth

(* analysis *)
module Fekete = Aat_lowerbound.Fekete
module Chain = Aat_lowerbound.Chain

(* adversary synthesis: genome search against the lower bound *)
module Synth = Aat_synth.Synth

(** High-level facade: run TreeAA and get the honest outputs, checked. *)
module Quick = struct
  type outcome = {
    outputs : (Types.party_id * Tree.vertex) list;
        (** honest parties' outputs *)
    rounds : int;  (** rounds used (equals the fixed schedule) *)
    verdict : Verdict.t;  (** Definition 2 checked on this run *)
    grade : Verdict.graded;
        (** fault-aware reading: a failure under an out-of-model fault
            plan is [Excused], not [Violated] *)
    status : string;
        (** ["completed"] or ["liveness-timeout"]; a timed-out run
            returns its partial report instead of raising *)
    report : (Tree.vertex, Tree_aa.msg) Engine.report;
  }

  (** [agree ~tree ~inputs ~t ()] runs TreeAA for [n = Array.length inputs]
      parties where party [i] inputs vertex [inputs.(i)], against
      [adversary] (default: none), and checks Definition 2. Requires
      [t < n/3] for the guarantees to hold (not enforced — the resilience
      experiments deliberately cross the boundary). [telemetry] streams
      per-round events (message counts, convergence snapshots) into the
      given sink; see {!Telemetry}. [fault_plan] (default: none) injects
      crash/omission/partition faults, deterministically in [seed]; it
      must be {!Fault_plan.sync_compatible}. [watch] installs the
      corruption-budget watchdog. *)
  let agree ?(seed = 0) ?adversary ?telemetry ?(fault_plan = Fault_plan.empty)
      ?(watch = false) ~tree ~inputs ~t () =
    let adversary =
      match adversary with
      | Some a -> a
      | None -> Adversary.passive "none"
    in
    let n = Array.length inputs in
    let fault_filter =
      if Fault_plan.is_empty fault_plan then None
      else Some (Fault_inject.filter ~engine:`Sync ~seed fault_plan)
    in
    let excuse status =
      if Fault_plan.lossy fault_plan then
        Some "fault plan drops letters (outside the reliable-channel model)"
      else if status = "liveness-timeout" && not (Fault_plan.is_empty fault_plan)
      then Some "liveness timeout under an active fault plan"
      else None
    in
    let finish status (report : (_, _) Engine.report) =
      (* Validity's hull: inputs of initially-honest parties (an adaptively
         corrupted party contributed its input while honest). Termination:
         every finally-honest party decided. *)
      let verdict, grade =
        Tree_verdict.grade_report ?excuse:(excuse status) ~tree ~inputs
          ~value:Fun.id report
      in
      {
        outputs = report.Engine.outputs;
        rounds = report.Engine.rounds_used;
        verdict;
        grade;
        status;
        report;
      }
    in
    match
      Engine.run_outcome ~n ~t ~seed ?telemetry ~observe:Tree_aa.observe
        ?fault_filter
        ~crash_faults:(Fault_plan.crashes fault_plan)
        ~watchdogs:
          (if watch then
             (* planned crashes are budget-exempt; allow for them *)
             [
               Fault_watchdogs.corruption_budget
                 ~t:(t + Fault_plan.crash_count fault_plan);
             ]
           else [])
        ~max_rounds:(max 1 (Tree_aa.rounds ~tree))
        ~protocol:(Tree_aa.protocol ~tree ~inputs:(fun self -> inputs.(self)) ~t)
        ~adversary ()
    with
    | Outcome.Completed report -> finish "completed" report
    | Outcome.Liveness_timeout { report; _ } -> finish "liveness-timeout" report
    | Outcome.Engine_error { exn_text; _ } -> failwith exn_text

  (** Labels of the agreed vertices, for display. *)
  let output_labels tree outcome =
    List.map (fun (p, v) -> (p, Tree.label tree v)) outcome.outputs
end

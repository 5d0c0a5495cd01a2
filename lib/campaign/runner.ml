open Aat_engine
open Aat_treeaa
open Aat_realaa
module Report = Aat_runtime.Report
module Outcome = Aat_runtime.Outcome
module Plan = Aat_faults.Plan
module Inject = Aat_faults.Inject
module Watchdogs = Aat_faults.Watchdog

type status =
  | Finished
  | Timed_out of { undecided : int; reason : string }
  | Errored of { stage : string; exn_text : string }

let status_label = function
  | Finished -> "completed"
  | Timed_out _ -> "liveness-timeout"
  | Errored _ -> "engine-error"

(* Per-stage cost breakdown of one run, measured only when the runner is
   invoked with ~profile:true: [setup_ns] covers fault-filter compilation
   and protocol/adversary/watchdog construction, [rounds_ns] the engine
   execution, [checks_ns] verdict checking and grading. Wall-clock
   measurements — excluded from the determinism contract and from replay
   comparison. *)
type stage_profile = {
  setup_ns : int;
  rounds_ns : int;
  checks_ns : int;
  alloc_bytes : float;
}

type outcome = {
  runner : string;
  seed : int;
  engine : string;
  status : status;
  termination : bool;
  validity : bool;
  agreement : bool;
  grade : Verdict.graded;
  rounds_used : int;
  honest_messages : int;
  adversary_messages : int;
  corrupted : int;
  initially_corrupted : int;
  spread : float option;
  faults : Report.fault_stats;
  violations : Aat_runtime.Watchdog.violation list;
  profile : stage_profile option;
}

let ok o =
  (match o.status with Finished -> true | _ -> false)
  && o.termination && o.validity && o.agreement

let excused o = match o.grade with Verdict.Excused _ -> true | _ -> false

let verdict_of o =
  {
    Verdict.termination = o.termination;
    validity = o.validity;
    agreement = o.agreement;
  }

type t = {
  name : string;
  run :
    seed:int ->
    ?telemetry:Aat_telemetry.Telemetry.Sink.t ->
    ?profile:bool ->
    unit ->
    outcome;
}

let failed_verdict =
  { Verdict.termination = false; validity = false; agreement = false }

let errored ~runner ~seed ~engine ~stage exn =
  {
    runner;
    seed;
    engine;
    status = Errored { stage; exn_text = Printexc.to_string exn };
    termination = false;
    validity = false;
    agreement = false;
    grade = Verdict.Violated failed_verdict;
    rounds_used = 0;
    honest_messages = 0;
    adversary_messages = 0;
    corrupted = 0;
    initially_corrupted = 0;
    spread = None;
    faults = Report.no_faults;
    violations = [];
    profile = None;
  }

let outcome_of_report ~runner ~seed ~status ~excuse ~(verdict : Verdict.t)
    ~spread (report : (_, _) Report.t) =
  {
    runner;
    seed;
    engine = report.Report.engine;
    status;
    termination = verdict.Verdict.termination;
    validity = verdict.Verdict.validity;
    agreement = verdict.Verdict.agreement;
    grade =
      Verdict.grade ~n:report.Report.n ~t:report.Report.t
        ~faulty:(List.length report.Report.corrupted)
        ?excuse verdict;
    rounds_used = report.Report.rounds_used;
    honest_messages = report.Report.honest_messages;
    adversary_messages = report.Report.adversary_messages;
    corrupted = List.length report.Report.corrupted;
    initially_corrupted = List.length (Report.initially_corrupted report);
    spread;
    faults = report.Report.fault_stats;
    violations = report.Report.watchdog_violations;
    profile = None;
  }

(* An excusal reason for verdict failures under a fault plan. Two rules:
   a lossy plan drops letters, which steps outside the model (a Byzantine
   adversary cannot silence an honest channel), so any failure under it is
   reported, not blamed; and a liveness timeout under *any* active plan is
   the plan's doing (e.g. a planned crash starving an async scheduler),
   not the protocol's. A timeout with no faults in play stays Violated. *)
let excuse_of plan (status : status) =
  if Plan.lossy plan then
    Some "fault plan drops letters (outside the reliable-channel model)"
  else
    match status with
    | Timed_out _ when not (Plan.is_empty plan) ->
        Some "liveness timeout under an active fault plan"
    | _ -> None

(* Stage-timing scaffolding for profiled runs: [now false] never reads the
   clock, so the default unprofiled path pays one boolean test per stage. *)
let now enabled = if enabled then Unix.gettimeofday () else 0.

let ns dt = int_of_float (dt *. 1e9)

let stage_profile ~t0 ~t1 ~t2 ~t3 ~a0 =
  {
    setup_ns = ns (t1 -. t0);
    rounds_ns = ns (t2 -. t1);
    checks_ns = ns (t3 -. t2);
    alloc_bytes = Gc.allocated_bytes () -. a0;
  }

(* ------------------------------------------------------------------ *)
(* unified run configuration *)

type scheduler = Fifo | Lifo | Random_order

module Config = struct
  type t = {
    fault_plan : Plan.t;
    watch : bool;
    scheduler : scheduler;
    max_events : int;
  }

  let default =
    {
      fault_plan = Plan.empty;
      watch = false;
      scheduler = Fifo;
      max_events = 2_000_000;
    }
end

(* ------------------------------------------------------------------ *)
(* the run scaffold *)

(* Grade a structured engine outcome, never letting anything escape: the
   verdict [check] runs on complete *and* partial reports. *)
let conclude ~runner ~seed ~engine ~excuse ~check ~spread
    (engine_outcome : _ Outcome.t) =
  match engine_outcome with
  | Outcome.Completed report ->
      let verdict = check report in
      outcome_of_report ~runner ~seed ~status:Finished ~excuse:(excuse Finished)
        ~verdict ~spread:(spread report) report
  | Outcome.Liveness_timeout { report; undecided; reason } ->
      let verdict = check report in
      let status = Timed_out { undecided = List.length undecided; reason } in
      outcome_of_report ~runner ~seed ~status ~excuse:(excuse status) ~verdict
        ~spread:(spread report) report
  | Outcome.Engine_error { stage; exn_text } ->
      {
        (errored ~runner ~seed ~engine ~stage (Failure exn_text)) with
        status = Errored { stage; exn_text };
      }

(* The run scaffold both engines share: compile the fault filter, let
   [setup] build the per-run protocol, adversary and watchdogs and hand
   back the engine call, run it, then grade. Stages are timed on profiled
   runs; an exception from the setup or the engine becomes an
   [Errored "engine"] outcome, one from the verdict [Errored "check"]. *)
let guarded ~runner ~engine ~fault_plan ~check ~spread ~seed ~profile setup =
  let engine_name = match engine with `Sync -> "sync" | `Async -> "async" in
  let t0 = now profile in
  let a0 = if profile then Gc.allocated_bytes () else 0. in
  match
    let fault_filter =
      if Plan.is_empty fault_plan then None
      else Some (Inject.filter ~engine ~seed fault_plan)
    in
    let run_engine = setup fault_filter in
    let t1 = now profile in
    let engine_outcome = run_engine () in
    (engine_outcome, t1, now profile)
  with
  | exception exn ->
      errored ~runner ~seed ~engine:engine_name ~stage:"engine" exn
  | engine_outcome, t1, t2 -> (
      try
        let o =
          conclude ~runner ~seed ~engine:engine_name
            ~excuse:(excuse_of fault_plan) ~check ~spread engine_outcome
        in
        if profile then
          {
            o with
            profile = Some (stage_profile ~t0 ~t1 ~t2 ~t3:(now profile) ~a0);
          }
        else o
      with exn -> errored ~runner ~seed ~engine:engine_name ~stage:"check" exn)

let of_protocol ~name ~n ~t ~max_rounds ~protocol ~adversary ?observe
    ?(fault_plan = Plan.empty) ?(watchdogs = fun () -> []) ~check
    ?(spread = fun _ -> None) () =
  let run ~seed ?telemetry ?(profile = false) () =
    guarded ~runner:name ~engine:`Sync ~fault_plan ~check ~spread ~seed
      ~profile (fun fault_filter ->
        let protocol = protocol () in
        let adversary = adversary () in
        let watchdogs = watchdogs () in
        fun () ->
          Sync_engine.run_outcome ~n ~t ~seed ?telemetry ?observe
            ?fault_filter
            ~crash_faults:(Plan.crashes fault_plan)
            ~watchdogs
            ~max_rounds:(max 1 max_rounds)
            ~protocol ~adversary ())
  in
  { name; run }

(* ------------------------------------------------------------------ *)
(* verdict plumbing shared by the concrete runners *)

let tree_check ~tree ~inputs =
  Tree_verdict.check_report ~tree ~inputs ~value:Fun.id

let real_check ~eps ~inputs ~value report =
  Verdict.real_of_report ~eps ~inputs:(fun i -> inputs.(i)) ~value report

let real_spread ~value report =
  Some (Verdict.spread (List.map value (Report.honest_outputs report)))

(* The standard watchdog catalog for a run: corruption-budget
   monotonicity everywhere, spread non-expansion where the protocol has a
   scalar observation. Plan-injected crashes are budget-exempt forced
   corruptions, so the budget allowance is [t] plus the planned crash
   count — it must fire only on corruption the adversary was not entitled
   to. *)
let catalog ?observe ~t (config : Config.t) () =
  if not config.watch then []
  else
    Watchdogs.corruption_budget
      ~t:(t + Plan.crash_count config.fault_plan)
    ::
    (match observe with
    | Some observe -> [ Watchdogs.spread_non_expansion ~observe () ]
    | None -> [])

(* ------------------------------------------------------------------ *)
(* synchronous runners *)

let tree_aa ?(config = Config.default) ~tree ~inputs ~t ~adversary () =
  of_protocol ~name:"tree-aa" ~n:(Array.length inputs) ~t
    ~max_rounds:(Tree_aa.rounds ~tree)
    ~protocol:(fun () -> Tree_aa.protocol ~tree ~inputs:(fun i -> inputs.(i)) ~t)
    ~adversary ~observe:Tree_aa.observe ~fault_plan:config.fault_plan
    ~watchdogs:(catalog ~t config)
    ~check:(tree_check ~tree ~inputs)
    ()

let nr_baseline ?(config = Config.default) ~tree ~inputs ~t ~adversary () =
  let iterations = Nr_baseline.iterations_for tree in
  of_protocol ~name:"nr-baseline" ~n:(Array.length inputs) ~t
    ~max_rounds:(3 * iterations)
    ~protocol:(fun () ->
      Nr_baseline.protocol ~tree ~inputs:(fun i -> inputs.(i)) ~t ~iterations)
    ~adversary ~fault_plan:config.fault_plan
    ~watchdogs:(catalog ~t config)
    ~check:(tree_check ~tree ~inputs)
    ()

let path_aa ?(config = Config.default) ~path ~inputs ~t ~adversary () =
  of_protocol ~name:"path-aa" ~n:(Array.length inputs) ~t
    ~max_rounds:(Path_aa.rounds ~path)
    ~protocol:(fun () ->
      Path_aa.protocol ~path ~inputs:(fun i -> inputs.(i)) ~t)
    ~adversary ~observe:Path_aa.observe ~fault_plan:config.fault_plan
    ~watchdogs:(catalog ~observe:Path_aa.observe ~t config)
    ~check:(tree_check ~tree:path ~inputs)
    ()

let known_path_aa ?(config = Config.default) ~tree ~path ~inputs ~t ~adversary
    () =
  of_protocol ~name:"known-path-aa" ~n:(Array.length inputs) ~t
    ~max_rounds:(Known_path_aa.rounds ~path)
    ~protocol:(fun () ->
      Known_path_aa.protocol ~tree ~path ~inputs:(fun i -> inputs.(i)) ~t)
    ~adversary ~observe:Known_path_aa.observe ~fault_plan:config.fault_plan
    ~watchdogs:(catalog ~t config)
    ~check:(tree_check ~tree ~inputs)
    ()

let real_aa ?(config = Config.default) ~eps ~inputs ~t ~iterations ~adversary
    () =
  let value (r : Bdh.result) = r.Bdh.value in
  of_protocol ~name:"realaa" ~n:(Array.length inputs) ~t
    ~max_rounds:(3 * iterations)
    ~protocol:(fun () ->
      Bdh.protocol ~inputs:(fun i -> inputs.(i)) ~t ~iterations ())
    ~adversary ~observe:Bdh.observe ~fault_plan:config.fault_plan
    ~watchdogs:(catalog ~observe:Bdh.observe ~t config)
    ~check:(real_check ~eps ~inputs ~value)
    ~spread:(real_spread ~value)
    ()

let iterated_midpoint ?(config = Config.default) ~eps ~inputs ~t ~iterations
    ~adversary () =
  let value (r : Iterated_midpoint.result) = r.Iterated_midpoint.value in
  of_protocol ~name:"iterated-midpoint" ~n:(Array.length inputs) ~t
    ~max_rounds:(3 * iterations)
    ~protocol:(fun () ->
      Iterated_midpoint.with_gradecast ~inputs:(fun i -> inputs.(i)) ~t
        ~iterations)
    ~adversary ~fault_plan:config.fault_plan
    ~watchdogs:
      (catalog ~observe:Iterated_midpoint.observe_gradecast ~t config)
    ~check:(real_check ~eps ~inputs ~value)
    ~spread:(real_spread ~value)
    ()

(* ------------------------------------------------------------------ *)
(* asynchronous runners *)

let to_engine_scheduler = function
  | Fifo -> Aat_async.Async_engine.Fifo
  | Lifo -> Aat_async.Async_engine.Lifo
  | Random_order -> Aat_async.Async_engine.Random_order

let of_reactor (type s m o) ~name ~n ~t ~(config : Config.t)
    ~(reactor : unit -> (s, m, o) Aat_async.Async_engine.reactor)
    ~(adversary : unit -> m Adversary.t) ~check ~spread () =
  let scheduler = to_engine_scheduler config.scheduler in
  let run ~seed ?telemetry ?(profile = false) () =
    guarded ~runner:name ~engine:`Async ~fault_plan:config.fault_plan ~check
      ~spread ~seed ~profile (fun fault_filter ->
        let reactor = reactor () in
        let adversary =
          Aat_async.Async_engine.with_scheduler ~scheduler (adversary ())
        in
        let watchdogs = catalog ~t config () in
        fun () ->
          Aat_async.Async_engine.run_outcome ~n ~t ~seed ?telemetry
            ~max_events:config.max_events ?fault_filter
            ~crash_faults:(Plan.crashes config.fault_plan)
            ~watchdogs ~reactor ~adversary ())
  in
  { name; run }

let async_tree_aa ?(config = Config.default) ?adversary ~tree ~inputs ~t () =
  let value (r : _ Aat_async.Async_aa.result) = r.Aat_async.Async_aa.value in
  (* With an explicit adversary (the synthesis path) the outcome also
     carries the honest output spread in the tree metric; the passive
     default keeps its historical spread-less outcomes. *)
  let spread =
    match adversary with
    | None -> fun _ -> None
    | Some _ ->
        fun report ->
          Some
            (float_of_int
               (Tree_verdict.output_diameter ~tree
                  (List.map value (Report.honest_outputs report))))
  in
  of_reactor ~name:"async-tree-aa" ~n:(Array.length inputs) ~t ~config
    ~reactor:(fun () ->
      Aat_async.Async_aa.tree ~tree ~inputs:(fun i -> inputs.(i)) ~t
        ~iterations:(Nr_baseline.iterations_for tree))
    ~adversary:
      (Option.value adversary ~default:(fun () -> Adversary.passive "none"))
    ~check:(Tree_verdict.check_report ~tree ~inputs ~value)
    ~spread ()

let round_sim_tree_aa ?(config = Config.default) ~tree ~inputs ~t () =
  of_reactor ~name:"round-sim-tree-aa" ~n:(Array.length inputs) ~t ~config
    ~reactor:(fun () ->
      Aat_async.Round_sim.reactor_of_protocol
        (Tree_aa.protocol ~tree ~inputs:(fun i -> inputs.(i)) ~t))
    ~adversary:(fun () -> Adversary.passive "none")
    ~check:(Tree_verdict.check_report ~tree ~inputs ~value:fst)
    ~spread:(fun _ -> None)
    ()

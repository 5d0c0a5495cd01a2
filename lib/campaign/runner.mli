(** The unified protocol Runner — one erased entry point per protocol.

    Every protocol family in the repository already exposes a concrete
    [run] with the same shape ([~seed ?telemetry ~adversary] + its own
    config, returning the unified [Report.t]); this module erases the
    protocol-specific output and message types behind one {!t}, so batch
    drivers (the campaign subsystem, bench tables, soak, the CLI) can treat
    "run a simulation and check its verdict" as a value instead of
    hand-rolling per-protocol dispatch.

    A {!t} closes over everything but the seed; calling [run ~seed]
    executes one full simulation and returns a protocol-agnostic
    {!outcome}: a structured {!status} (a Runner {e never raises} — engine
    exceptions and liveness exhaustion come back as data), the checked
    Definition-1/2 verdict with its fault-aware {!Aat_engine.Verdict.graded}
    reading, the report's headline numbers, and any fault/watchdog
    accounting. Adversaries are taken as {e thunks}: the strategies in
    [lib/adversary] carry per-execution mutable state (spoiler plans,
    crash bookkeeping), so a fresh adversary must be built for every run —
    and runners must stay safe to invoke from several {!Pool} workers at
    once.

    Runners take their fault plan in {!Config.t}: its crashes are
    applied as engine-level faults and the rest is compiled to a
    deterministic {!Aat_runtime.Mailbox.fault_filter} seeded from the run
    seed, so outcomes are reproducible for any worker count. Every
    runner, on either engine, goes through one scaffold that builds the
    filter and the per-run state, runs the engine, grades the outcome
    and folds any exception into [Errored]. *)

open Aat_tree
open Aat_engine
open Aat_gradecast

(** How the run ended. [Timed_out] carries the partial-run diagnosis from
    {!Aat_runtime.Outcome.Liveness_timeout}; [Errored] wraps any exception
    an engine, protocol, adversary or verdict checker raised. *)
type status =
  | Finished
  | Timed_out of { undecided : int; reason : string }
  | Errored of { stage : string; exn_text : string }

val status_label : status -> string
(** ["completed"] / ["liveness-timeout"] / ["engine-error"] — matching
    {!Aat_runtime.Outcome.label}. *)

(** Per-stage cost breakdown of one run, present on {!outcome} only when
    the runner was invoked with [~profile:true]: [setup_ns] covers
    fault-filter compilation and protocol/adversary/watchdog construction,
    [rounds_ns] the engine execution, [checks_ns] verdict checking and
    grading. Wall-clock measurements: {e excluded} from the campaign
    determinism contract and ignored by replay comparison. *)
type stage_profile = {
  setup_ns : int;
  rounds_ns : int;
  checks_ns : int;
  alloc_bytes : float;  (** GC-allocated bytes over the whole run *)
}

type outcome = {
  runner : string;  (** the runner's name, e.g. ["tree-aa"] *)
  seed : int;  (** the engine/adversary seed this run used *)
  engine : string;  (** ["sync"] or ["async"] *)
  status : status;  (** how the run ended; never an exception *)
  termination : bool;
  validity : bool;
  agreement : bool;  (** the three checked AA properties *)
  grade : Verdict.graded;
      (** fault-aware reading of the verdict: failures under an
          out-of-model fault plan are [Excused], not [Violated] *)
  rounds_used : int;  (** rounds (sync) / delivery events (async) *)
  honest_messages : int;
  adversary_messages : int;
  corrupted : int;  (** final corruption count, crashes included *)
  initially_corrupted : int;
  spread : float option;
      (** final honest-output spread, for real-valued protocols *)
  faults : Aat_runtime.Report.fault_stats;
      (** injected-fault accounting ({!Aat_runtime.Report.no_faults} when
          no plan was given) *)
  violations : Aat_runtime.Watchdog.violation list;
      (** first violation per installed watchdog, in firing order *)
  profile : stage_profile option;
      (** stage cost breakdown; [None] unless run with [~profile:true] *)
}

val ok : outcome -> bool
(** The run finished and all three properties hold. *)

val excused : outcome -> bool
(** The verdict failed but the grade excused it (out-of-model faults). *)

val verdict_of : outcome -> Verdict.t

type t = {
  name : string;
  run :
    seed:int ->
    ?telemetry:Aat_telemetry.Telemetry.Sink.t ->
    ?profile:bool ->
    unit ->
    outcome;
}
(** [profile] (default [false]) fills the outcome's {!stage_profile};
    off, no clock is ever read. It is the library's one cost timer, read by
    [treeaa campaign --profile], the service's stage spans and the
    perfbench cost ledger; the engines themselves take no timings. *)

val of_protocol :
  name:string ->
  n:int ->
  t:int ->
  max_rounds:int ->
  protocol:(unit -> ('s, 'm, 'o) Protocol.t) ->
  adversary:(unit -> 'm Adversary.t) ->
  ?observe:('s -> float option) ->
  ?fault_plan:Aat_faults.Plan.t ->
  ?watchdogs:(unit -> 's Aat_runtime.Watchdog.t list) ->
  check:(('o, 'm) Aat_runtime.Report.t -> Verdict.t) ->
  ?spread:(('o, 'm) Aat_runtime.Report.t -> float option) ->
  unit ->
  t
(** The extension point: lift any synchronous protocol into the Runner
    API. [protocol], [adversary] and [watchdogs] are thunks invoked once
    per [run] call (fresh state per execution), in that order, last
    before the engine; [check] judges the finished — possibly partial —
    report and is the first call after the engine returns; [spread]
    (default [fun _ -> None]) extracts the convergence headline.
    [fault_plan] (default {!Aat_faults.Plan.empty}) must be
    {!Aat_faults.Plan.sync_compatible}. *)

(** Scheduler choice for the asynchronous runners: the engine's
    schedulers except [Laggards]. *)
type scheduler = Fifo | Lifo | Random_order

(** The run configuration every runner below takes as [?config]: build a
    record from {!Config.default}, override the fields you need, and
    pass it. Fields a protocol does not use ([scheduler] and
    [max_events] on a synchronous runner) are ignored by that
    constructor.

    The per-run adversary thunk stays a separate labelled argument — its
    message type is protocol-specific, so it cannot live in a shared
    record without erasing it; likewise [?telemetry]/[?profile] remain
    per-call arguments of {!t}[.run] because they vary per invocation,
    not per runner. *)
module Config : sig
  type t = {
    fault_plan : Aat_faults.Plan.t;  (** default: {!Aat_faults.Plan.empty} *)
    watch : bool;  (** install the standard watchdog catalog *)
    scheduler : scheduler;  (** async runners only; default [Fifo] *)
    max_events : int;  (** async delivery budget; default [2_000_000] *)
  }

  val default : t
end

(** {1 The repository's protocols as runners}

    All take [?config] (default {!Config.default}). When [config.watch]
    is set, the standard watchdog catalog applicable to the protocol —
    corruption-budget monotonicity everywhere, spread non-expansion
    where a scalar observation exists — is installed. *)

val tree_aa :
  ?config:Config.t ->
  tree:Labeled_tree.t ->
  inputs:Labeled_tree.vertex array ->
  t:int ->
  adversary:(unit -> Aat_treeaa.Tree_aa.msg Adversary.t) ->
  unit ->
  t

val nr_baseline :
  ?config:Config.t ->
  tree:Labeled_tree.t ->
  inputs:Labeled_tree.vertex array ->
  t:int ->
  adversary:(unit -> Labeled_tree.vertex Gradecast.Multi.msg Adversary.t) ->
  unit ->
  t

val path_aa :
  ?config:Config.t ->
  path:Labeled_tree.t ->
  inputs:Labeled_tree.vertex array ->
  t:int ->
  adversary:(unit -> float Gradecast.Multi.msg Adversary.t) ->
  unit ->
  t
(** [path] must be a path graph, as for [Path_aa.protocol]. *)

val known_path_aa :
  ?config:Config.t ->
  tree:Labeled_tree.t ->
  path:Paths.path ->
  inputs:Labeled_tree.vertex array ->
  t:int ->
  adversary:(unit -> float Gradecast.Multi.msg Adversary.t) ->
  unit ->
  t

val real_aa :
  ?config:Config.t ->
  eps:float ->
  inputs:float array ->
  t:int ->
  iterations:int ->
  adversary:(unit -> float Gradecast.Multi.msg Adversary.t) ->
  unit ->
  t
(** RealAA ([Bdh]); [eps] is the agreement distance the verdict checks. *)

val iterated_midpoint :
  ?config:Config.t ->
  eps:float ->
  inputs:float array ->
  t:int ->
  iterations:int ->
  adversary:(unit -> float Gradecast.Multi.msg Adversary.t) ->
  unit ->
  t
(** The gradecast variant of the classic halving baseline. *)

val async_tree_aa :
  ?config:Config.t ->
  ?adversary:(unit -> Labeled_tree.vertex Aat_async.Async_aa.msg Adversary.t) ->
  tree:Labeled_tree.t ->
  inputs:Labeled_tree.vertex array ->
  t:int ->
  unit ->
  t
(** The native asynchronous tree protocol ([Async_aa.tree], Nowak–Rybicki
    style) under [config.scheduler]. [adversary] (default: passive) is a
    synchronous-world strategy lifted through
    [Async_engine.with_scheduler] — the synthesis harness drives the
    protocol-agnostic genome attacks through it; when present, the outcome
    additionally reports the honest output spread in the tree metric.
    [config.max_events] defaults to [2_000_000] (soak's budget — enough
    for the large random trees the campaigns draw). The async engine
    honours the full fault vocabulary, [Duplicate] and [Delay] included. *)

val round_sim_tree_aa :
  ?config:Config.t ->
  tree:Labeled_tree.t ->
  inputs:Labeled_tree.vertex array ->
  t:int ->
  unit ->
  t
(** Synchronous TreeAA lifted into the asynchronous engine through
    [Round_sim.reactor_of_protocol] — benign setting, any scheduler;
    outputs are bit-identical to the synchronous run. *)

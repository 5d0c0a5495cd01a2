(** Declarative batch-execution campaigns over the {!Pool} worker pool.

    A campaign is a {e pure specification}: protocol, tree generator,
    input distribution, adversary family, corruption budget, repetition
    count and base seed. {!run} compiles it into [repetitions] independent
    tasks, derives a deterministic per-task seed for each ({!task_seeds} —
    splitting the base seed through the SplitMix64 stream, so the seeds
    are a pure function of [(base_seed, index)]), fans the tasks out over
    a {!Pool}, and folds the outcomes in task order.

    {b Determinism contract}: everything a task does — drawing its tree,
    parties, inputs and adversary, and seeding the engine — is derived
    from its task seed alone, and aggregation happens in task index order;
    therefore every field of {!result} (and the {!write_jsonl} stream) is
    bit-identical for any [~workers], including [1]. The qcheck suite
    enforces this.

    See [docs/CAMPAIGN.md] for the full design. *)

module Spec : sig
  type size = Exactly of int | Between of int * int
      (** [Between (lo, hi)] draws uniformly from the inclusive range,
          per task. *)

  type tree_family =
    | Path_tree of size
    | Star_tree of size
    | Caterpillar_tree of { spine : size; legs : size }
    | Spider_tree of { legs : size; leg_length : size }
    | Balanced_tree of { arity : size; depth : size }
    | Random_tree of size
    | Any_tree
        (** soak's mix: a family {e and} its size drawn per task. *)

  type budget =
    | Fixed_t of int
    | Up_to_third  (** uniform in [0 .. (n-1)/3], the resilient regime *)

  type input_dist =
    | Random_vertices  (** uniform vertices of the drawn tree *)
    | Linspace_reals of float
        (** [n] reals evenly spaced across [[0, D]] *)
    | Log_uniform_reals of { log10_min : float; log10_max : float }
        (** the range [D] is drawn log-uniformly, then [n] uniform reals
            in [[0, D)] — soak's RealAA workload *)

  type adversary_family =
    | Passive
    | Random_silent
    | Random_crash
    | Tree_spoiler  (** phased RealAA spoiler over both TreeAA phases *)
    | Real_spoiler
    | Gradecast_wedge
    | Any_tree_adversary
        (** per-task mix of passive / silent / crash / tree spoiler *)
    | Any_real_adversary  (** per-task mix of passive / silent / spoiler *)
    | Synth_genome of Aat_adversary.Genome.t
        (** a synthesized strategy ([lib/synth]): the genome fully
            determines the attack, so no per-task adversary draws are
            made. Valid on every synchronous protocol (generic genomes
            only on the NR baseline) and, for protocol-agnostic genomes,
            on the native asynchronous runner, where its scheduler gene
            replaces the per-task scheduler draw. *)

  type protocol =
    | Tree_aa
    | Nr_baseline
    | Path_aa  (** requires a path-shaped [tree_family] *)
    | Known_path_aa
        (** the public path is the tree's oriented longest path *)
    | Real_aa of { eps : float }
    | Iterated_midpoint of { eps : float }
    | Async_tree_aa
        (** native async [33]-style protocol; scheduler drawn per task *)
    | Round_sim_tree_aa
        (** synchronous TreeAA lifted via [Round_sim]; scheduler drawn
            per task *)

  (** Fault injection for every task of the campaign. [Fault_plan] applies
      one fixed plan to all tasks (each task still derives its own fault
      RNG from its engine seed); [Chaos] draws a fresh random plan per task
      from the task's seed stream ({!Aat_faults.Plan.random}), so a chaos
      campaign sweeps a diverse fault landscape deterministically. *)
  type fault_mode =
    | No_faults
    | Fault_plan of Aat_faults.Plan.t
    | Chaos of { intensity : float }  (** in [[0, 1]]; [0.] = benign *)

  type t = {
    name : string;
    protocol : protocol;
    tree : tree_family;  (** ignored by the real-valued protocols *)
    n : size;
    t_budget : budget;
    inputs : input_dist;
    adversary : adversary_family;
    faults : fault_mode;
    watchdogs : bool;
        (** install the standard invariant watchdog catalog per run *)
    repetitions : int;
    base_seed : int;
  }

  val protocol_label : protocol -> string

  val validate : t -> (unit, string) result
  (** Static checks: repetitions non-negative, adversary family compatible
      with the protocol's wire type, input distribution compatible with
      the protocol's value space, fault plan structurally valid and
      engine-compatible ([Duplicate]/[Delay] are async-only), chaos
      intensity in [[0, 1]], eps and real ranges finite (eps positive),
      and a [Fixed_t] below the smallest [n] the spec draws. A budget
      from n/3 up to n stays legal: such cells are graded, not refused. *)
end

type task_result = {
  task : int;  (** task index, [0 .. repetitions-1] *)
  task_seed : int;  (** the split seed the task derived everything from *)
  result : (Runner.outcome, string) Stdlib.result;
      (** [Error] carries [Printexc.to_string] of an exception raised
          during task {e instantiation}; runs themselves never raise —
          liveness timeouts and engine errors arrive as structured
          {!Runner.status} values inside [Ok] outcomes *)
}

type aggregate = {
  tasks : int;
  violations : int;
      (** tasks graded [Violated] (genuine in-model failures), plus
          errored tasks; [Excused] failures count under [excused] only *)
  errors : int;  (** tasks that failed to instantiate *)
  timeouts : int;  (** tasks whose run ended in [Timed_out] *)
  engine_errors : int;  (** tasks whose run ended in [Errored] *)
  excused : int;  (** tasks whose failed verdict was excused *)
  total_rounds : int;
  total_honest_messages : int;
  total_adversary_messages : int;
  max_spread : float option;
      (** across real-valued tasks; [None] if no task reported one *)
}

type result = {
  spec : Spec.t;
  results : task_result array;  (** in task order *)
  aggregate : aggregate;
}

val task_seeds : base_seed:int -> count:int -> int array
(** The per-task seed schedule: seed [i] is the [(i+1)]-th output of the
    SplitMix64 stream seeded with [base_seed], shifted to a non-negative
    OCaml int. Pure; independent of worker count by construction. *)

val split_seed : base:int -> index:int -> int
(** [split_seed ~base ~index = (task_seeds ~base_seed:base
    ~count:(index+1)).(index)] — for deriving families of related base
    seeds (soak derives one per protocol family). *)

val instantiate : Spec.t -> task_seed:int -> Runner.t * int
(** Compile one task: draw tree / parties / inputs / adversary from the
    task seed and return the runner plus the engine seed to run it with.
    Exposed for tests and for callers that want custom execution (e.g.
    attaching a per-task telemetry sink). Raises [Invalid_argument] on
    spec/protocol mismatches (see {!Spec.validate}). *)

val run_cell :
  ?telemetry:(task:int -> Aat_telemetry.Telemetry.Sink.t option) ->
  ?profile:bool ->
  Spec.t ->
  task:int ->
  task_seed:int ->
  task_result
(** One campaign cell: {!instantiate} from the task seed and run with the
    derived engine seed. An exception from instantiation (or from the
    [telemetry] factory) becomes an [Error] result. {!run} runs every
    cell through it, and so does each campaign-service worker. *)

val run :
  ?workers:int ->
  ?telemetry:(task:int -> Aat_telemetry.Telemetry.Sink.t option) ->
  ?profile:bool ->
  Spec.t ->
  result
(** Execute the campaign. [workers] defaults to [1]; results are
    bit-identical for every worker count. [telemetry], if given, supplies
    a per-task sink ([task] is the task index) — sinks may be invoked from
    pool worker domains concurrently, so distinct tasks must get distinct
    (or domain-safe) sinks. [profile] (default [false]) fills each
    outcome's {!Runner.stage_profile}; the timing values themselves are
    wall-clock measurements and sit outside the determinism contract. *)

val empty_aggregate : aggregate

val fold_outcome_json :
  aggregate -> (Aat_telemetry.Jsonx.t, string) Stdlib.result -> aggregate
(** Fold one task outcome, in its {!json_of_outcome} rendering, into the
    aggregate: the one fold, used for fresh cells, cells shipped over
    the service wire and cells resumed from flight records alike. Fold
    in task index order so the aggregate never depends on completion
    order. *)

val fold_task : aggregate -> task_result -> aggregate
(** {!fold_outcome_json} of the rendered task result. *)

val json_of_outcome : Runner.outcome -> Aat_telemetry.Jsonx.t
(** One task outcome as the ["task"]-line payload (without the task/seed
    envelope): status, verdict, grade, headline numbers, fault and
    watchdog accounting, and — on profiled runs — the stage profile.
    Exposed for the observability layer's outcome digests. *)

val json_of_task_line :
  task:int ->
  task_seed:int ->
  (Aat_telemetry.Jsonx.t, string) Stdlib.result ->
  Aat_telemetry.Jsonx.t
(** A ["task"] line from a payload already in JSON form — the service
    wire path. *)

val json_of_task_result : task_result -> Aat_telemetry.Jsonx.t
(** {!json_of_task_line} of the rendered task result. *)

val json_header : Spec.t -> Aat_telemetry.Jsonx.t
(** The ["campaign-start"] header object. Carries the telemetry
    [format_version] gate; deliberately omits the worker count — the
    stream is byte-identical however the campaign was scheduled. *)

val json_footer : aggregate -> Aat_telemetry.Jsonx.t
(** The ["campaign-stop"] footer object for an aggregate. *)

val stream_lines :
  Spec.t ->
  Aat_telemetry.Jsonx.t list ->
  aggregate ->
  Aat_telemetry.Jsonx.t list
(** The campaign result stream around the given task lines (in task
    order): one ["campaign-start"] header, the task lines, one
    ["campaign-stop"] footer with the aggregate. *)

val jsonl_lines : result -> Aat_telemetry.Jsonx.t list
(** {!stream_lines} of a finished in-process campaign. *)

val output_lines : out_channel -> Aat_telemetry.Jsonx.t list -> unit
(** One JSON object per line; flushes, does not close. *)

val string_of_lines : Aat_telemetry.Jsonx.t list -> string
(** The bytes {!output_lines} writes. *)

val write_jsonl : out_channel -> result -> unit
(** {!output_lines} of {!jsonl_lines}. *)

val jsonl_string : result -> string

(** The sharded multi-process campaign service.

    {!run} executes a {!Aat_campaign.Campaign.Spec.t} grid across worker
    {e processes}: the coordinator splits the task list into shards (the
    SplitMix64 split-seed schedule makes every task a pure function of
    its seed, so any partition is bit-identical to the in-process
    [Campaign.run ~workers:1]), forks workers connected over socketpairs,
    fans shards out with the checksummed framed JSON wire protocol of
    {!Wire}, streams per-cell results back with live aggregation, and —
    when [record_dir] is given — checkpoints every completed cell as a
    flight record ([cell-NNNN.record.jsonl], readable by
    [treeaa replay]) so an interrupted campaign resumes without
    recomputing finished cells.

    {b Wire protocol} (one JSON object per CRC32-framed {!Wire} frame;
    see [docs/CAMPAIGN.md]): the coordinator sends [hello] (format
    version, the {!Aat_obs.Spec_io} spec JSON, heartbeat period), then
    [shard] messages ([{task, task_seed}] lists) and finally [shutdown];
    workers answer [ready], then one [cell] per task ([outcome] on
    success, [error] if instantiation raised) and [shard-done], with
    periodic [heartbeat] frames from a background thread throughout. A
    worker that receives a frame the checksum rejects reports
    [protocol-error] (best effort) and dies.

    {b Robustness} (the full failure model is [docs/ROBUSTNESS.md]): a
    worker that closes its socket, dies ([EOF]/[EPIPE]), misses
    heartbeats for [heartbeat_timeout] seconds, stops shipping cells for
    [progress_timeout] seconds while holding a shard, or sends a frame
    the CRC32 check rejects is SIGKILLed and reaped; the unfinished
    remainder of its shard is re-queued at the {e front} of the queue,
    and the slot is respawned — after an exponential backoff with seeded
    jitter — up to [max_respawns] times. Cells individually lost on the
    wire are detected at [shard-done] and re-queued. All liveness timing
    runs on the monotonic {!Clock}, so wall-clock (NTP) steps cannot
    trigger spurious kills. A slot whose budget is exhausted becomes a
    {e permanent failure}: the campaign {b degrades} onto the surviving
    pool and still completes, with [manifest.degraded = true] and the
    per-slot causes in [manifest.failures]. [run] returns [Error] (the
    {e hard} failure) only when every slot's budget is spent with work
    outstanding — checkpoints under [record_dir] survive for a resume.

    {b Wire chaos}: [wire_chaos] (see {!Chaos}) wraps every frame write
    on both sides of every socketpair in a seeded fault injector —
    corrupt/torn/dropped/duplicated/stalled frames — for deterministic
    chaos drills. Under any plan the recovery machinery above must
    reproduce the exact baseline stream; the drills in
    [test/test_service.ml] and [bin/service_smoke.ml] enforce it.

    {b Determinism}: workers run each cell through
    {!Aat_campaign.Campaign.run_cell}, the cell body of [Campaign.run],
    and ship outcomes as rendered
    {!Aat_campaign.Campaign.json_of_outcome} JSON; [Jsonx] parse/render
    round-trips byte-exactly, and the coordinator frames the lines with
    [Campaign.stream_lines] and folds the aggregate in task order with
    [Campaign.fold_outcome_json], the campaign's one fold — so
    {!jsonl_string} is
    bit-identical to [Campaign.jsonl_string] of an uninterrupted
    single-process run, whatever the worker count, crash history, chaos
    plan or resume path. The test suite enforces this. *)

type failure = {
  slot : int;  (** the worker slot that permanently failed *)
  restarts : int;  (** respawns it consumed before giving up *)
  cause : string;  (** the final death cause *)
}

type manifest = {
  tasks : int;  (** grid size (spec repetitions) *)
  computed : int;  (** cells computed by workers this invocation *)
  resumed : int;  (** cells restored from verified [record_dir] checkpoints *)
  quarantined : int;
      (** corrupt / truncated / stale-[.tmp] checkpoint files moved to
          [<record_dir>/quarantine/] (their cells recomputed) *)
  requeued_shards : int;  (** shard remainders re-queued after any failure *)
  worker_restarts : int;  (** respawns performed *)
  protocol_errors : int;
      (** frames rejected by checksum / framing / JSON validation *)
  progress_kills : int;  (** workers killed by the progress timeout *)
  workers : int;  (** worker processes initially spawned *)
  shards : int;  (** shards the pending work was split into *)
  degraded : bool;  (** some slot permanently failed; see [failures] *)
  failures : failure list;  (** per-slot permanent failure causes *)
}

type status =
  | Completed
  | Halted of { cells_done : int }
      (** stopped early by the [halt_after_cells] test hook — the
          simulated coordinator crash; resume from [record_dir] *)

type result = {
  status : status;
  spec : Aat_campaign.Campaign.Spec.t;
  cells : (Aat_telemetry.Jsonx.t, string) Stdlib.result option array;
      (** per-task outcome payloads, indexed by task; [None] only on a
          [Halted] run *)
  aggregate : Aat_campaign.Campaign.aggregate;
      (** folded in task order over the completed cells *)
  manifest : manifest;
}

val run :
  ?workers:int ->
  ?record_dir:string ->
  ?heartbeat_period:float ->
  ?heartbeat_timeout:float ->
  ?max_respawns:int ->
  ?respawn_backoff:float ->
  ?progress_timeout:float ->
  ?wire_chaos:Chaos.t ->
  ?status_out:string ->
  ?trace_events:string ->
  ?kill_worker_after_cells:int ->
  ?halt_after_cells:int ->
  Aat_campaign.Campaign.Spec.t ->
  (result, string) Stdlib.result
(** Run the campaign across [workers] (default [1]) worker processes.
    [record_dir]: checkpoint every completed cell and resume any cell
    whose checkpoint matches the spec and seed schedule {e and} passes
    digest verification (failures are quarantined and recomputed).
    [heartbeat_period] (default [0.25]s) / [heartbeat_timeout] (default
    [30]s) tune liveness detection; [progress_timeout] (default: off)
    additionally kills a worker that holds a shard but has shipped no
    fresh cell for that long — the livelock detector, strongly
    recommended under [wire_chaos] plans that drop or tear frames.
    [max_respawns] (default [2]) bounds respawns per worker slot;
    [respawn_backoff] (default [0.5]s) is the base of the exponential
    backoff ([base * 2^restarts], jittered by a seeded factor in
    [[0.5, 1.5)]) between a slot's death and its respawn. The caller
    passes a finite [heartbeat_period], [heartbeat_timeout] and
    [progress_timeout] > 0 and a finite [respawn_backoff] >= 0
    ([treeaa campaign serve] rejects anything else as a usage error).
    [wire_chaos] (default {!Chaos.none}) injects deterministic wire
    faults for drills.

    {b Observability} (docs/OBSERVABILITY.md, "Service metrics & live
    status"). [status_out FILE] atomically rewrites a [service-status]
    JSON (plus a Prometheus twin at [FILE.prom]) at least every
    [heartbeat_period]: progress counters, per-slot health
    (heartbeat/progress lag, backoff deadlines), and the merged metric
    snapshot. Its deterministic [campaign_*] series are
    {!Aat_obs.Metrics.campaign} of the cells landed so far — resumed
    checkpoints first, then each fresh cell merged in as it lands — so
    they are bit-identical to an in-process run's for any worker count.
    The rest are operational series (wire/chaos endpoint counters
    piggybacked on worker heartbeats, per-slot gauges), timing-dependent
    and outside the determinism contract. Without [status_out] the
    coordinator keeps no metrics.
    [trace_events FILE] collects Chrome trace-event JSON (open in
    chrome://tracing or Perfetto): the coordinator's campaign root span
    (tid 0), per-slot shard and backoff spans (tid = slot+1), kill
    instants, and — carried over the wire by heartbeat piggyback — each
    worker's per-cell spans with setup/rounds/checks stage sub-spans.
    Span parent ids cross the process boundary via the [shard] message.
    Spans a SIGKILLed worker had not yet flushed are lost; span timing
    is wall-clock ([Clock.now]) and outside the determinism contract.

    Test hooks, for deterministic crash drills: [kill_worker_after_cells
    n] SIGKILLs the worker that delivered the [n]-th fresh cell (once);
    [halt_after_cells n] stops the coordinator after [n] fresh cells —
    killing and reaping all workers — and returns [Halted], simulating a
    coordinator crash whose [record_dir] a second [run] resumes from. *)

val write_status : path:string -> Aat_campaign.Campaign.result -> unit
(** [--status-out] for an in-process campaign: write the same
    [service-status] JSON and Prometheus twin as {!run}, once, with
    status ["completed"] and the {!Aat_obs.Metrics.campaign} series of
    every outcome. Its [campaign_*] series equal those of
    [run ~status_out] on the same spec. *)

val jsonl_lines : result -> Aat_telemetry.Jsonx.t list
(** The campaign JSONL stream — header, one task line per cell in task
    order, footer — bit-identical to [Campaign.jsonl_lines] of the same
    spec run in-process. Raises [Invalid_argument] on a [Halted] result
    (resume it first). *)

val jsonl_string : result -> string
val write_jsonl : out_channel -> result -> unit

val manifest_json : result -> Aat_telemetry.Jsonx.t
(** The structured end-of-run manifest (cells done/resumed/quarantined/
    requeued, restarts, protocol errors, progress kills, degradation
    status with per-slot failure causes) — for telemetry sinks and
    stderr summaries; deliberately {e not} part of the JSONL result
    stream. *)

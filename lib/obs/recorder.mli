(** The flight recorder: one self-contained JSONL file per run.

    A record carries everything needed to re-execute a run from nothing —
    the full campaign {!Spec_io.Spec.t} and the task seed it was
    instantiated from — plus everything needed to check the re-execution:
    the derived engine seed, the telemetry {!Trace.t}, and an MD5 digest
    of the structured outcome. {!Replay.run} consumes records; failing
    campaign cells dump as event-less {e repro} records that
    [treeaa replay] accepts directly.

    File shape, one JSON object per line:
    {v
    {"type":"run-record","format_version":"1.0","spec":{..},
     "task_seed":N,"engine_seed":N}
    ...telemetry "start" / "round" / "stop" lines (absent in repros)...
    {"type":"outcome","digest":"..","outcome":{..}}
    v} *)

type t = {
  spec : Aat_campaign.Campaign.Spec.t;
  task_seed : int;  (** the seed [spec] was instantiated with *)
  engine_seed : int;
      (** the engine seed that instantiation derived — recorded so replay
          can detect spec/codebase drift before running anything *)
  trace : Trace.t;  (** empty for repro records *)
  outcome : Aat_telemetry.Jsonx.t option;
      (** the structured outcome, as campaign JSONL renders it *)
  digest : string option;
      (** MD5 of the outcome JSON with the profile block stripped *)
}

val digest_of_outcome : Aat_campaign.Runner.outcome -> string
(** The digest replay compares: MD5 over the rendered outcome minus
    ["profile"] (wall-clock numbers must not break replay). *)

val digest_of_outcome_json : Aat_telemetry.Jsonx.t -> string
(** The same digest computed from an outcome already in its JSON
    rendering — the campaign service checkpoints cells it only ever
    sees as wire JSON. *)

val verify_outcome : t -> (unit, string) result
(** Checkpoint integrity: [Ok ()] iff the record carries an outcome
    {e and} a digest and the outcome still hashes to it. The campaign
    service refuses (quarantines) any resume checkpoint failing this —
    see [docs/ROBUSTNESS.md]. *)

val record :
  Aat_campaign.Campaign.Spec.t ->
  task_seed:int ->
  (t * Aat_campaign.Runner.outcome, string) result
(** Validate, instantiate and run one cell of [spec] under a recording
    telemetry sink; returns the record and the live outcome. *)

val repro_of :
  spec:Aat_campaign.Campaign.Spec.t -> Aat_campaign.Campaign.task_result -> t option
(** The minimal repro record for one campaign cell: spec + seeds +
    outcome digest, no events. [None] if the cell failed to instantiate
    (nothing to replay). *)

val failing_cells : Aat_campaign.Campaign.result -> (int * t) list
(** [(task index, repro record)] for every cell that genuinely failed:
    graded [Violated], engine-errored, or failed to instantiate (the
    latter produce no record). Excused failures are not included. *)

(** {1 Serialization} *)

val to_string : t -> string
val write_file : string -> t -> unit

val of_lines : string list -> (t, string) result
val of_string : string -> (t, string) result
val read_file : string -> (t, string) result

val violations : t -> Aat_runtime.Watchdog.violation list
(** Watchdog violations preserved in the record's outcome JSON — the
    [?violations] argument {!Trace.blame} wants. *)

(** Deterministic replay of flight-recorder records, with divergence
    detection.

    {!run} re-executes a {!Recorder.t}'s spec exactly as the campaign
    would — instantiation derives everything from the recorded task seed
    — and holds the re-execution against the recording on three
    progressively finer checks: derived engine seed (spec/codebase
    drift), round-by-round telemetry comparison (when the record carries
    events; first divergent round and field), and the profile-stripped
    outcome digest. A clean replay is bit-identical evidence: same
    telemetry stream, same structured outcome. *)

type divergence =
  | Spec_drift of string
      (** instantiation no longer derives the recorded engine seed: the
          draw order changed since the record was made, so comparing any
          further would compare unrelated runs *)
  | Trace_divergence of Trace.divergence
  | Outcome_divergence of { expected : string; actual : string }
      (** outcome digests differ (trace matched, or record had no
          events) *)

type t = {
  outcome : Aat_campaign.Runner.outcome;  (** the replayed run's outcome *)
  digest : string;  (** {!Recorder.digest_of_outcome} of the replay *)
  trace : Trace.t;  (** the replayed run's telemetry *)
  verdict : (unit, divergence) Stdlib.result;  (** [Ok ()] = no divergence *)
}

val run : Recorder.t -> (t, string) Stdlib.result
(** [Error] means the replay could not execute at all (spec no longer
    validates, or instantiation raised); divergences of a run that did
    execute arrive in the result's [verdict]. Replays run with profiling
    off; a stage profile in the recorded outcome is outside the digest. *)

val pp_divergence : Format.formatter -> divergence -> unit

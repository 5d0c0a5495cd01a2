(* Deterministic replay of flight-recorder records.

   Replay re-executes the record's spec exactly as the campaign would
   have — [Campaign.instantiate spec ~task_seed] derives the tree,
   inputs, adversary and engine seed from the task seed alone — and then
   holds the re-execution against the recording on three progressively
   finer checks:

     1. spec drift: the derived engine seed must equal the recorded one.
        A mismatch means the codebase's draw order changed since the
        record was made — running further would compare unrelated runs;
     2. trace divergence: round-by-round field comparison of telemetry
        events (first divergent round + field), when the record has
        events;
     3. outcome divergence: the profile-stripped outcome digest.

   Replays always run with profiling off. *)

module Telemetry = Aat_telemetry.Telemetry
module Campaign = Aat_campaign.Campaign
module Runner = Aat_campaign.Runner

type divergence =
  | Spec_drift of string
  | Trace_divergence of Trace.divergence
  | Outcome_divergence of { expected : string; actual : string }

type t = {
  outcome : Runner.outcome;  (** the replayed run's outcome *)
  digest : string;
  trace : Trace.t;
  verdict : (unit, divergence) Stdlib.result;
}

let pp_divergence ppf = function
  | Spec_drift m -> Format.fprintf ppf "spec drift: %s" m
  | Trace_divergence d ->
      Format.fprintf ppf "trace divergence: %a" Trace.pp_divergence d
  | Outcome_divergence { expected; actual } ->
      Format.fprintf ppf "outcome divergence: digest %s, expected %s" actual
        expected

let run (rec_ : Recorder.t) =
  match Campaign.Spec.validate rec_.Recorder.spec with
  | Error m -> Error ("record spec does not validate: " ^ m)
  | Ok () -> (
      match Campaign.instantiate rec_.Recorder.spec ~task_seed:rec_.Recorder.task_seed with
      | exception exn -> Error ("instantiation failed: " ^ Printexc.to_string exn)
      | runner, engine_seed ->
          let stats = Telemetry.Stats.create () in
          let outcome =
            runner.Runner.run ~seed:engine_seed
              ~telemetry:(Telemetry.Stats.sink stats) ()
          in
          let trace = Trace.of_stats stats in
          let digest = Recorder.digest_of_outcome outcome in
          let verdict =
            if engine_seed <> rec_.Recorder.engine_seed then
              Error
                (Spec_drift
                   (Printf.sprintf
                      "instantiation now derives engine seed %d, record says \
                       %d — the task-seed draw order has changed since this \
                       record was made"
                      engine_seed rec_.Recorder.engine_seed))
            else
              match
                (* repro records carry no events: nothing to pin there *)
                if rec_.Recorder.trace.Trace.events = [] then None
                else
                  Trace.diff ~expected:rec_.Recorder.trace ~actual:trace
              with
              | Some d -> Error (Trace_divergence d)
              | None -> (
                  match rec_.Recorder.digest with
                  | Some expected when expected <> digest ->
                      Error (Outcome_divergence { expected; actual = digest })
                  | _ -> Ok ())
          in
          Ok { outcome; digest; trace; verdict })

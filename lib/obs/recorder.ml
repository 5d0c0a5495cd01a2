(* The flight recorder: one self-contained JSONL file per run.

   A record carries everything needed to re-execute a run from nothing —
   the full campaign spec and the task seed it was instantiated from —
   plus everything needed to check the re-execution byte for byte: the
   engine seed the instantiation derived, the telemetry trace, and a
   digest of the structured outcome. [Replay.run] consumes records;
   campaign cells that fail can be dumped as event-less "repro" records
   small enough to commit next to a bug report.

   File shape (JSONL):
     {"type":"run-record","format_version":"1.0","spec":{..},
      "task_seed":N,"engine_seed":N}
     ... telemetry "start" / "round" / "stop" lines (absent in repros) ...
     {"type":"outcome","digest":"..","outcome":{..}}        (optional) *)

module Json = Aat_telemetry.Jsonx
module Telemetry = Aat_telemetry.Telemetry
module Campaign = Aat_campaign.Campaign
module Runner = Aat_campaign.Runner
module Verdict = Aat_engine.Verdict

type t = {
  spec : Campaign.Spec.t;
  task_seed : int;
  engine_seed : int;
  trace : Trace.t;
  outcome : Json.t option;
  digest : string option;
}

(* The digest pins the structured outcome, minus the profile block:
   profile numbers are wall-clock measurements, so a record made with
   profiling on must still replay clean with profiling off. *)
let digest_of_outcome_json j =
  let json =
    match j with
    | Json.Obj kvs -> Json.Obj (List.filter (fun (k, _) -> k <> "profile") kvs)
    | j -> j
  in
  Digest.to_hex (Digest.string (Json.to_string json))

let digest_of_outcome o = digest_of_outcome_json (Campaign.json_of_outcome o)

(* Integrity check for records used as checkpoints: a record is only
   trustworthy if it carries an outcome whose bytes still hash to the
   digest written next to them. A truncated file usually fails to parse
   at all; this catches the rest (bit rot, a partial outcome line that
   happens to parse, a digest-less repro passed off as a checkpoint). *)
let verify_outcome t =
  match (t.outcome, t.digest) with
  | None, _ -> Error "record carries no outcome"
  | Some _, None -> Error "record carries no outcome digest"
  | Some o, Some d ->
      let actual = digest_of_outcome_json o in
      if String.equal actual d then Ok ()
      else
        Error
          (Printf.sprintf "outcome digest mismatch (recorded %s, actual %s)" d
             actual)

let record spec ~task_seed =
  match Campaign.Spec.validate spec with
  | Error m -> Error m
  | Ok () -> (
      match Campaign.instantiate spec ~task_seed with
      | exception exn -> Error (Printexc.to_string exn)
      | runner, engine_seed ->
          let stats = Telemetry.Stats.create () in
          let outcome =
            runner.Runner.run ~seed:engine_seed
              ~telemetry:(Telemetry.Stats.sink stats) ()
          in
          let t =
            {
              spec;
              task_seed;
              engine_seed;
              trace = Trace.of_stats stats;
              outcome = Some (Campaign.json_of_outcome outcome);
              digest = Some (digest_of_outcome outcome);
            }
          in
          Ok (t, outcome))

(* ------------------------------------------------------------------ *)
(* repro records for failing campaign cells *)

let repro_of ~spec (tr : Campaign.task_result) =
  match tr.Campaign.result with
  | Error _ -> None (* instantiation failed: no engine seed to replay *)
  | Ok o ->
      Some
        {
          spec;
          task_seed = tr.Campaign.task_seed;
          engine_seed = o.Runner.seed;
          trace = Trace.empty;
          outcome = Some (Campaign.json_of_outcome o);
          digest = Some (digest_of_outcome o);
        }

let failing (tr : Campaign.task_result) =
  match tr.Campaign.result with
  | Error _ -> true
  | Ok o -> (
      match (o.Runner.grade, o.Runner.status) with
      | Verdict.Violated _, _ -> true
      | _, Runner.Errored _ -> true
      | _ -> false)

let failing_cells (result : Campaign.result) =
  Array.to_list result.Campaign.results
  |> List.filter_map (fun tr ->
         if failing tr then
           Option.map
             (fun r -> (tr.Campaign.task, r))
             (repro_of ~spec:result.Campaign.spec tr)
         else None)

(* ------------------------------------------------------------------ *)
(* serialization *)

let header_json t =
  Json.Obj
    [
      ("type", Json.Str "run-record");
      ("format_version", Json.Str Telemetry.format_version_string);
      ("spec", Spec_io.to_json t.spec);
      ("task_seed", Json.Num (float_of_int t.task_seed));
      ("engine_seed", Json.Num (float_of_int t.engine_seed));
    ]

let outcome_json t =
  match (t.outcome, t.digest) with
  | None, _ -> []
  | Some outcome, digest ->
      [
        Json.Obj
          (("type", Json.Str "outcome")
          :: (match digest with
             | Some d -> [ ("digest", Json.Str d) ]
             | None -> [])
          @ [ ("outcome", outcome) ]);
      ]

let to_lines t =
  (header_json t
  :: (match t.trace.Trace.meta with
     | Some m -> [ Telemetry.Jsonl.json_of_meta m ]
     | None -> []))
  @ List.map Telemetry.Jsonl.json_of_event t.trace.Trace.events
  @ (match t.trace.Trace.summary with
    | Some s -> [ Telemetry.Jsonl.json_of_summary s ]
    | None -> [])
  @ outcome_json t

let to_string t =
  String.concat "" (List.map (fun j -> Json.to_string j ^ "\n") (to_lines t))

let write_file path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))

let of_lines lines =
  let ( let* ) = Result.bind in
  match lines with
  | [] -> Error "empty record"
  | header :: _ -> (
      let* j =
        Result.map_error (fun m -> "record header: " ^ m)
          (Json.of_string header)
      in
      match Option.bind (Json.member "type" j) Json.to_str with
      | Some "run-record" ->
          let* () = Telemetry.check_format_version j in
          let* spec =
            match Json.member "spec" j with
            | None -> Error "record header: missing \"spec\""
            | Some sj ->
                Result.map_error (fun m -> "record spec: " ^ m)
                  (Spec_io.of_json sj)
          in
          let int name =
            match Option.bind (Json.member name j) Json.to_int with
            | Some i -> Ok i
            | None ->
                Error
                  (Printf.sprintf "record header: missing integer %S" name)
          in
          let* task_seed = int "task_seed" in
          let* engine_seed = int "engine_seed" in
          let* trace = Trace.of_lines lines in
          (* the trailing outcome line, if present *)
          let outcome, digest =
            List.fold_left
              (fun acc line ->
                match Json.of_string line with
                | Error _ -> acc
                | Ok lj -> (
                    match Option.bind (Json.member "type" lj) Json.to_str with
                    | Some "outcome" ->
                        ( Json.member "outcome" lj,
                          Option.bind (Json.member "digest" lj) Json.to_str )
                    | _ -> acc))
              (None, None) lines
          in
          Ok { spec; task_seed; engine_seed; trace; outcome; digest }
      | Some other ->
          Error
            (Printf.sprintf
               "not a run record (first line has type %S; expected \
                \"run-record\")"
               other)
      | None -> Error "record header: missing \"type\"")

let of_string s =
  of_lines
    (String.split_on_char '\n' s |> List.filter (fun l -> String.trim l <> ""))

let read_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error m -> Error m
  | contents -> of_string contents

(* ------------------------------------------------------------------ *)
(* blame support: watchdog violations preserved in the outcome JSON *)

let violations t =
  match t.outcome with
  | None -> []
  | Some o -> (
      match Json.member "watchdog_violations" o with
      | None -> []
      | Some vj ->
          Option.value ~default:[] (Json.to_list vj)
          |> List.filter_map (fun v ->
                 match
                   ( Option.bind (Json.member "watchdog" v) Json.to_str,
                     Option.bind (Json.member "round" v) Json.to_int,
                     Option.bind (Json.member "detail" v) Json.to_str )
                 with
                 | Some watchdog, Some round, Some detail ->
                     Some { Aat_runtime.Watchdog.watchdog; round; detail }
                 | _ -> None))

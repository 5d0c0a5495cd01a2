(* Parsed telemetry traces: the read side of [Telemetry.Jsonl], plus the
   analyses the [treeaa trace] tooling is built from.

   A trace is whatever a JSONL sink wrote — "start" / "round" / "stop"
   lines — parsed back into the very same [Telemetry] records the engines
   emitted. Flight-recorder container lines ("run-record", "outcome") are
   tolerated and skipped, so every analysis here works unchanged on
   record files. Unknown line types are skipped too (minor-version
   additions must not break old readers); unknown format {e majors} are
   rejected via [Telemetry.check_format_version]. *)

module Json = Aat_telemetry.Jsonx
module Telemetry = Aat_telemetry.Telemetry

type t = {
  meta : Telemetry.run_meta option;
  events : Telemetry.event list;
  summary : Telemetry.summary option;
}

let empty = { meta = None; events = []; summary = None }

let of_stats st =
  {
    meta = Telemetry.Stats.meta st;
    events = Telemetry.Stats.events st;
    summary = Telemetry.Stats.summary st;
  }

(* ------------------------------------------------------------------ *)
(* parsing *)

let ( let* ) = Result.bind

let req_int j name =
  match Option.bind (Json.member name j) Json.to_int with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "missing integer field %S" name)

let req_str j name =
  match Option.bind (Json.member name j) Json.to_str with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "missing string field %S" name)

let int_list j name =
  match Option.bind (Json.member name j) Json.to_list with
  | None -> Error (Printf.sprintf "missing array field %S" name)
  | Some items ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | item :: tl -> (
            match Json.to_int item with
            | Some i -> go (i :: acc) tl
            | None -> Error (Printf.sprintf "non-integer entry in %S" name))
      in
      go [] items

let meta_of_json j =
  let* engine = req_str j "engine" in
  let* protocol = req_str j "protocol" in
  let* adversary = req_str j "adversary" in
  let* n = req_int j "n" in
  let* t = req_int j "t" in
  let* seed = req_int j "seed" in
  let* initial_corruptions = int_list j "initial_corruptions" in
  Ok { Telemetry.engine; protocol; adversary; n; t; seed; initial_corruptions }

let grades_of_json j =
  match Json.member "grades" j with
  | None -> Ok None
  | Some gj -> (
      match Json.to_list gj with
      | Some [ g0; g1; g2 ] -> (
          match (Json.to_int g0, Json.to_int g1, Json.to_int g2) with
          | Some g0, Some g1, Some g2 -> Ok (Some (g0, g1, g2))
          | _ -> Error "non-integer grade histogram")
      | _ -> Error "\"grades\" must be a 3-element array")

let marks_of_json j =
  match Json.member "marks" j with
  | None -> Ok []
  | Some (Json.Obj kvs) ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | (k, v) :: tl -> (
            match Json.to_int v with
            | Some w -> go ((k, w) :: acc) tl
            | None -> Error (Printf.sprintf "non-integer mark %S" k))
      in
      go [] kvs
  | Some _ -> Error "\"marks\" must be an object"

let snapshot_of_json j =
  match Json.member "snapshot" j with
  | None -> Ok []
  | Some sj -> (
      match Json.to_list sj with
      | None -> Error "\"snapshot\" must be an array"
      | Some items ->
          let rec go acc = function
            | [] -> Ok (List.rev acc)
            | Json.Arr [ p; v ] :: tl -> (
                match (Json.to_int p, Json.to_float v) with
                | Some p, Some v -> go ((p, v) :: acc) tl
                | _ -> Error "malformed snapshot pair")
            | _ -> Error "snapshot entries must be [party, value] pairs"
          in
          go [] items)

let event_of_json j =
  let* round = req_int j "round" in
  let* honest_msgs = req_int j "honest_msgs" in
  let* adversary_msgs = req_int j "adversary_msgs" in
  let* delivered_msgs = req_int j "delivered_msgs" in
  let* rejected_forgeries = req_int j "rejected_forgeries" in
  let* honest_bytes = req_int j "honest_bytes" in
  let* adversary_bytes = req_int j "adversary_bytes" in
  let* sent_by = int_list j "sent_by" in
  let* corruptions = int_list j "corruptions" in
  let* grades = grades_of_json j in
  let* marks = marks_of_json j in
  let* snapshot = snapshot_of_json j in
  Ok
    {
      Telemetry.round;
      honest_msgs;
      adversary_msgs;
      delivered_msgs;
      rejected_forgeries;
      honest_bytes;
      adversary_bytes;
      sent_by = Array.of_list sent_by;
      corruptions;
      grades;
      marks;
      snapshot;
    }

let summary_of_json j =
  let* rounds = req_int j "rounds" in
  let* honest_messages = req_int j "honest_messages" in
  let* adversary_messages = req_int j "adversary_messages" in
  Ok { Telemetry.rounds; honest_messages; adversary_messages }

let of_lines lines =
  let rec go acc lineno = function
    | [] -> Ok { acc with events = List.rev acc.events }
    | line :: tl -> (
        let located = Printf.sprintf "line %d: " lineno in
        match Json.of_string line with
        | Error m -> Error (located ^ m)
        | Ok j -> (
            match Option.bind (Json.member "type" j) Json.to_str with
            | None -> Error (located ^ "missing \"type\" field")
            | Some "start" -> (
                match Telemetry.check_format_version j with
                | Error m -> Error (located ^ m)
                | Ok () -> (
                    match meta_of_json j with
                    | Error m -> Error (located ^ m)
                    | Ok m -> go { acc with meta = Some m } (lineno + 1) tl))
            | Some "round" -> (
                match event_of_json j with
                | Error m -> Error (located ^ m)
                | Ok e ->
                    go { acc with events = e :: acc.events } (lineno + 1) tl)
            | Some "stop" -> (
                match summary_of_json j with
                | Error m -> Error (located ^ m)
                | Ok s -> go { acc with summary = Some s } (lineno + 1) tl)
            | Some "run-record" -> (
                (* recorder container header: version-checked, not a trace
                   line *)
                match Telemetry.check_format_version j with
                | Error m -> Error (located ^ m)
                | Ok () -> go acc (lineno + 1) tl)
            | Some _ -> go acc (lineno + 1) tl))
  in
  go empty 1 lines

let nonblank_lines s =
  String.split_on_char '\n' s
  |> List.filter (fun l -> String.trim l <> "")

let of_string s = of_lines (nonblank_lines s)

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error m -> Error m
  | contents -> of_string contents

(* ------------------------------------------------------------------ *)
(* divergence detection *)

type divergence = {
  round : int;
  field : string;
  expected : string;
  actual : string;
}

(* An event as named, rendered fields — the unit of comparison. "type" is
   constant, so it takes no part in divergence detection. *)
let fields_of_event e =
  match Telemetry.Jsonl.json_of_event e with
  | Json.Obj kvs ->
      List.filter_map
        (fun (k, v) -> if k = "type" then None else Some (k, Json.to_string v))
        kvs
  | _ -> []

let compare_one_event ~(expected : Telemetry.event) ~(actual : Telemetry.event)
    =
  let ef = fields_of_event expected and af = fields_of_event actual in
  let lookup k kvs =
    match List.assoc_opt k kvs with Some v -> v | None -> "(absent)"
  in
  let keys =
    List.sort_uniq String.compare (List.map fst ef @ List.map fst af)
  in
  List.find_map
    (fun k ->
      let e = lookup k ef and a = lookup k af in
      if String.equal e a then None
      else
        Some { round = expected.Telemetry.round; field = k; expected = e; actual = a })
    keys

let compare_events ~expected ~actual =
  let rec go = function
    | [], [] -> None
    | e :: etl, a :: atl -> (
        match compare_one_event ~expected:e ~actual:a with
        | Some d -> Some d
        | None -> go (etl, atl))
    | (e : Telemetry.event) :: _, [] ->
        Some
          {
            round = e.Telemetry.round;
            field = "rounds";
            expected = "event";
            actual = "(trace ended)";
          }
    | [], (a : Telemetry.event) :: _ ->
        Some
          {
            round = a.Telemetry.round;
            field = "rounds";
            expected = "(trace ended)";
            actual = "event";
          }
  in
  go (expected, actual)

let compare_meta ~expected ~actual =
  match (expected, actual) with
  | None, _ | _, None -> None (* a side without a header has nothing to pin *)
  | Some e, Some a ->
      let ej = Telemetry.Jsonl.json_of_meta e
      and aj = Telemetry.Jsonl.json_of_meta a in
      let kvs = function Json.Obj kvs -> kvs | _ -> [] in
      List.find_map
        (fun (k, v) ->
          match List.assoc_opt k (kvs aj) with
          | Some v' when Json.to_string v = Json.to_string v' -> None
          | other ->
              Some
                {
                  round = 0;
                  field = "meta." ^ k;
                  expected = Json.to_string v;
                  actual =
                    (match other with
                    | Some v' -> Json.to_string v'
                    | None -> "(absent)");
                })
        (kvs ej)

let compare_summary ~last_round ~expected ~actual =
  match (expected, actual) with
  | None, _ | _, None -> None
  | Some (e : Telemetry.summary), Some (a : Telemetry.summary) ->
      let check field ev av =
        if ev = av then None
        else
          Some
            {
              round = last_round;
              field = "summary." ^ field;
              expected = string_of_int ev;
              actual = string_of_int av;
            }
      in
      List.find_map Fun.id
        [
          check "rounds" e.rounds a.rounds;
          check "honest_messages" e.honest_messages a.honest_messages;
          check "adversary_messages" e.adversary_messages a.adversary_messages;
        ]

let diff ~expected ~actual =
  match compare_meta ~expected:expected.meta ~actual:actual.meta with
  | Some d -> Some d
  | None -> (
      match
        compare_events ~expected:expected.events ~actual:actual.events
      with
      | Some d -> Some d
      | None ->
          let last_round =
            List.fold_left
              (fun acc (e : Telemetry.event) -> max acc e.round)
              0 expected.events
          in
          compare_summary ~last_round ~expected:expected.summary
            ~actual:actual.summary)

let pp_divergence ppf d =
  Format.fprintf ppf "round %d, field %s: expected %s, got %s" d.round d.field
    d.expected d.actual

(* ------------------------------------------------------------------ *)
(* analyses *)

let convergence tr =
  List.filter_map
    (fun (e : Telemetry.event) ->
      match Telemetry.spread_of_snapshot e.snapshot with
      | None -> None
      | Some s -> Some (e.round, s))
    tr.events

let send_totals tr =
  let n =
    List.fold_left
      (fun acc (e : Telemetry.event) -> max acc (Array.length e.sent_by))
      (match tr.meta with Some m -> m.Telemetry.n | None -> 0)
      tr.events
  in
  let totals = Array.make (max n 0) 0 in
  List.iter
    (fun (e : Telemetry.event) ->
      Array.iteri (fun p c -> totals.(p) <- totals.(p) + c) e.sent_by)
    tr.events;
  totals

(* ------------------------------------------------------------------ *)
(* blame localization *)

type blame = { round : int; kind : string; detail : string; suspects : int list }

(* Parties corrupted at or before [round]: the header's initial set plus
   every per-round corruption up to it. *)
let corrupted_by tr round =
  let initial =
    match tr.meta with
    | Some m -> m.Telemetry.initial_corruptions
    | None -> []
  in
  List.fold_left
    (fun acc (e : Telemetry.event) ->
      if e.round <= round then acc @ e.corruptions else acc)
    initial tr.events
  |> List.sort_uniq compare

let busiest_sender tr round =
  List.find_map
    (fun (e : Telemetry.event) ->
      if e.round <> round || Array.length e.sent_by = 0 then None
      else
        let best = ref 0 in
        Array.iteri
          (fun p c -> if c > e.sent_by.(!best) then best := p)
          e.sent_by;
        Some !best)
    tr.events

let suspects_at tr round =
  match corrupted_by tr round with
  | _ :: _ as parties -> parties
  | [] -> ( match busiest_sender tr round with Some p -> [ p ] | None -> [])

let first_spread_expansion tr =
  let rec go prev = function
    | [] -> None
    | (round, spread) :: tl ->
        if spread > prev +. 1e-9 then Some (round, prev, spread)
        else go spread tl
  in
  match convergence tr with [] -> None | (_, s0) :: tl -> go s0 tl

let blame ?(violations = []) tr =
  match
    List.sort
      (fun (a : Aat_runtime.Watchdog.violation) b -> compare a.round b.round)
      violations
  with
  | v :: _ ->
      Some
        {
          round = v.Aat_runtime.Watchdog.round;
          kind = "watchdog";
          detail =
            Printf.sprintf "%s: %s" v.Aat_runtime.Watchdog.watchdog
              v.Aat_runtime.Watchdog.detail;
          suspects = suspects_at tr v.Aat_runtime.Watchdog.round;
        }
  | [] -> (
      match first_spread_expansion tr with
      | Some (round, prev, spread) ->
          Some
            {
              round;
              kind = "spread-expansion";
              detail =
                Printf.sprintf "honest spread grew %g -> %g" prev spread;
              suspects = suspects_at tr round;
            }
      | None -> None)

let pp_blame ppf b =
  Format.fprintf ppf "%s at round %d (%s); suspects: %s" b.kind b.round
    b.detail
    (match b.suspects with
    | [] -> "none identified"
    | ps -> String.concat ", " (List.map string_of_int ps))

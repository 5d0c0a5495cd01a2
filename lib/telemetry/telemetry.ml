(* Streaming execution telemetry.

   The engines publish one structured {!event} per round (the asynchronous
   engine aggregates delivery events into fixed-size chunks) into a
   {!Sink.t}. Sinks never see protocol messages themselves, only counts and
   observed values, so the layer is message-type agnostic and a run with the
   {!Sink.null} sink does no telemetry work at all.

   Protocol code that wants to report structured measurements the engine
   cannot see (gradecast grade histograms, phase transitions) uses the
   ambient {!Probe} collector: the engine installs a collector for the
   duration of a telemetered run and drains it into each round's event; with
   no collector installed every probe is a cheap no-op. *)

module Json = Jsonx

type run_meta = {
  engine : string;  (* "sync" or "async" *)
  protocol : string;
  adversary : string;
  n : int;
  t : int;
  seed : int;
  initial_corruptions : int list;
}

type event = {
  round : int;  (* 1-based; for the async engine, the chunk index *)
  honest_msgs : int;  (* honest letters submitted this round *)
  adversary_msgs : int;  (* accepted Byzantine letters this round *)
  delivered_msgs : int;  (* letters delivered after per-pair dedup *)
  rejected_forgeries : int;  (* forged letters dropped this round *)
  honest_bytes : int;  (* approximate payload heap bytes, honest *)
  adversary_bytes : int;  (* approximate payload heap bytes, Byzantine *)
  sent_by : int array;  (* letters submitted this round, per party *)
  corruptions : int list;  (* parties corrupted during this round *)
  grades : (int * int * int) option;  (* gradecast (g0, g1, g2) histogram *)
  marks : (string * int) list;  (* generic probe counters *)
  snapshot : (int * float) list;  (* honest (party, observed value) *)
}

type summary = { rounds : int; honest_messages : int; adversary_messages : int }

(* ------------------------------------------------------------------ *)
(* trace format versioning *)

(* Version of the JSONL trace format, stamped into every "start" header
   (and into the flight-recorder container lines built on top of it) as
   "format_version": "MAJOR.MINOR". The major changes when a reader of the
   old format can no longer make sense of the new one; readers must reject
   unknown majors and accept newer minors of their own major. A header
   without the field is a pre-versioning 1.x writer. *)
let format_version = (1, 0)

let format_version_string =
  let major, minor = format_version in
  Printf.sprintf "%d.%d" major minor

(* Check the "format_version" field of a parsed JSONL header object. *)
let check_format_version json =
  match Jsonx.member "format_version" json with
  | None -> Ok () (* pre-versioning writer: treat as 1.x *)
  | Some (Jsonx.Str s) -> (
      let major_text =
        match String.index_opt s '.' with
        | Some i -> String.sub s 0 i
        | None -> s
      in
      match int_of_string_opt major_text with
      | None -> Error (Printf.sprintf "malformed format_version %S" s)
      | Some major ->
          if major = fst format_version then Ok ()
          else
            Error
              (Printf.sprintf
                 "unsupported trace format_version %S (this reader speaks \
                  major %d)"
                 s (fst format_version)))
  | Some _ -> Error "format_version must be a string"

(* Approximate wire size of a message payload: its reachable heap footprint.
   Immediates (bare ints, constant constructors) report 0; structure shared
   between letters is counted once per letter. Engines only call this on
   telemetered runs. *)
let payload_bytes body = Obj.reachable_words (Obj.repr body) * (Sys.word_size / 8)

(* The spread (max - min) of the observed values of an event's snapshot:
   the convergence measure — for protocols whose observed value lives on a
   path or the real line this is the honest hull diameter. *)
let spread_of_snapshot = function
  | [] -> None
  | (_, v0) :: rest ->
      let lo, hi =
        List.fold_left
          (fun (lo, hi) (_, v) -> (Float.min lo v, Float.max hi v))
          (v0, v0) rest
      in
      Some (hi -. lo)

module Sink = struct
  type t = {
    on_start : run_meta -> unit;
    on_round : event -> unit;
    on_stop : summary -> unit;
  }

  let null = { on_start = ignore; on_round = ignore; on_stop = ignore }

  (* physical equality: [null] is the unique "do no telemetry work" token
     the engines test for; a freshly built sink of ignores is still live *)
  let is_null sink = sink == null

  let tee a b =
    {
      on_start = (fun m -> a.on_start m; b.on_start m);
      on_round = (fun e -> a.on_round e; b.on_round e);
      on_stop = (fun s -> a.on_stop s; b.on_stop s);
    }
end

(* ------------------------------------------------------------------ *)
(* the ambient probe collector *)

module Probe = struct
  type collector = {
    mutable g0 : int;
    mutable g1 : int;
    mutable g2 : int;
    mutable grades_seen : bool;
    mutable marks : (string * int) list;
  }

  let fresh () = { g0 = 0; g1 = 0; g2 = 0; grades_seen = false; marks = [] }

  (* Domain-local, so concurrent engine runs on a campaign worker pool each
     see their own collector; a freshly spawned domain starts with none. *)
  let current : collector option Domain.DLS.key =
    Domain.DLS.new_key (fun () -> None)

  (* The engine installs its collector with [swap (Some c)] and restores the
     previous one on exit — runs that nest (a protocol driving an inner
     engine) each see their own collector. *)
  let swap c =
    let prev = Domain.DLS.get current in
    Domain.DLS.set current c;
    prev

  let active () = Domain.DLS.get current <> None

  let grade_histogram ~g0 ~g1 ~g2 =
    match Domain.DLS.get current with
    | None -> ()
    | Some c ->
        c.g0 <- c.g0 + g0;
        c.g1 <- c.g1 + g1;
        c.g2 <- c.g2 + g2;
        c.grades_seen <- true

  let mark ?(weight = 1) name =
    match Domain.DLS.get current with
    | None -> ()
    | Some c ->
        let rec bump = function
          | [] -> [ (name, weight) ]
          | (n, w) :: tl when String.equal n name -> (n, w + weight) :: tl
          | hd :: tl -> hd :: bump tl
        in
        c.marks <- bump c.marks

  (* Drain the collector into (grades, marks) and reset it for the next
     round. *)
  let flush c =
    let grades = if c.grades_seen then Some (c.g0, c.g1, c.g2) else None in
    let marks = c.marks in
    c.g0 <- 0;
    c.g1 <- 0;
    c.g2 <- 0;
    c.grades_seen <- false;
    c.marks <- [];
    (grades, marks)
end

(* ------------------------------------------------------------------ *)
(* built-in sink: in-memory aggregation *)

module Stats = struct
  type t = {
    mutable meta : run_meta option;
    mutable summary : summary option;
    mutable events_rev : event list;
    mutable n_events : int;
  }

  let create () = { meta = None; summary = None; events_rev = []; n_events = 0 }

  let sink st =
    {
      Sink.on_start = (fun m -> st.meta <- Some m);
      on_round =
        (fun e ->
          st.events_rev <- e :: st.events_rev;
          st.n_events <- st.n_events + 1);
      on_stop = (fun s -> st.summary <- Some s);
    }

  let meta st = st.meta

  let summary st = st.summary

  let rounds st = st.n_events

  let events st = List.rev st.events_rev

  let total f st = List.fold_left (fun acc e -> acc + f e) 0 st.events_rev

  let total_honest st = total (fun e -> e.honest_msgs) st

  let total_adversary st = total (fun e -> e.adversary_msgs) st

  (* summed gradecast grade histogram over the run *)
  let grade_totals st =
    List.fold_left
      (fun (a0, a1, a2) e ->
        match e.grades with
        | None -> (a0, a1, a2)
        | Some (g0, g1, g2) -> (a0 + g0, a1 + g1, a2 + g2))
      (0, 0, 0) st.events_rev
end

(* ------------------------------------------------------------------ *)
(* built-in sink: JSONL streaming *)

module Jsonl = struct
  let json_of_meta (m : run_meta) =
    Json.Obj
      [
        ("type", Json.Str "start");
        ("format_version", Json.Str format_version_string);
        ("engine", Json.Str m.engine);
        ("protocol", Json.Str m.protocol);
        ("adversary", Json.Str m.adversary);
        ("n", Json.Num (float_of_int m.n));
        ("t", Json.Num (float_of_int m.t));
        ("seed", Json.Num (float_of_int m.seed));
        ( "initial_corruptions",
          Json.Arr (List.map (fun p -> Json.Num (float_of_int p)) m.initial_corruptions)
        );
      ]

  let json_of_event (e : event) =
    let ints xs = Json.Arr (List.map (fun i -> Json.Num (float_of_int i)) xs) in
    let base =
      [
        ("type", Json.Str "round");
        ("round", Json.Num (float_of_int e.round));
        ("honest_msgs", Json.Num (float_of_int e.honest_msgs));
        ("adversary_msgs", Json.Num (float_of_int e.adversary_msgs));
        ("delivered_msgs", Json.Num (float_of_int e.delivered_msgs));
        ("rejected_forgeries", Json.Num (float_of_int e.rejected_forgeries));
        ("honest_bytes", Json.Num (float_of_int e.honest_bytes));
        ("adversary_bytes", Json.Num (float_of_int e.adversary_bytes));
        ("sent_by", ints (Array.to_list e.sent_by));
        ("corruptions", ints e.corruptions);
      ]
    in
    let grades =
      match e.grades with
      | None -> []
      | Some (g0, g1, g2) -> [ ("grades", ints [ g0; g1; g2 ]) ]
    in
    let marks =
      match e.marks with
      | [] -> []
      | ms ->
          [
            ( "marks",
              Json.Obj (List.map (fun (k, w) -> (k, Json.Num (float_of_int w))) ms)
            );
          ]
    in
    let snapshot =
      match e.snapshot with
      | [] -> []
      | snap ->
          [
            ( "snapshot",
              Json.Arr
                (List.map
                   (fun (p, v) -> Json.Arr [ Json.Num (float_of_int p); Json.Num v ])
                   snap) );
          ]
    in
    Json.Obj (base @ grades @ marks @ snapshot)

  let json_of_summary (s : summary) =
    Json.Obj
      [
        ("type", Json.Str "stop");
        ("rounds", Json.Num (float_of_int s.rounds));
        ("honest_messages", Json.Num (float_of_int s.honest_messages));
        ("adversary_messages", Json.Num (float_of_int s.adversary_messages));
      ]

  (* One JSON object per line: a "start" header, one "round" line per round,
     a "stop" footer. The channel is flushed on stop but not closed — the
     caller owns it. *)
  let sink oc =
    let line json =
      output_string oc (Json.to_string json);
      output_char oc '\n'
    in
    {
      Sink.on_start = (fun m -> line (json_of_meta m));
      on_round = (fun e -> line (json_of_event e));
      on_stop =
        (fun s ->
          line (json_of_summary s);
          flush oc);
    }
end

(* The sharded multi-process campaign service. See service.mli for the
   protocol and the determinism contract; docs/CAMPAIGN.md for the
   design discussion and docs/ROBUSTNESS.md for the failure model. *)

module Json = Aat_telemetry.Jsonx
module Telemetry = Aat_telemetry.Telemetry
module Campaign = Aat_campaign.Campaign
module Runner = Aat_campaign.Runner
module Spec_io = Aat_obs.Spec_io
module Recorder = Aat_obs.Recorder
module Trace = Aat_obs.Trace
module Metrics = Aat_obs.Metrics
module Span = Aat_obs.Span
module Rng = Aat_util.Rng

type failure = { slot : int; restarts : int; cause : string }

type manifest = {
  tasks : int;
  computed : int;
  resumed : int;
  quarantined : int;
  requeued_shards : int;
  worker_restarts : int;
  protocol_errors : int;
  progress_kills : int;
  workers : int;
  shards : int;
  degraded : bool;
  failures : failure list;
}

type status = Completed | Halted of { cells_done : int }

type result = {
  status : status;
  spec : Campaign.Spec.t;
  cells : (Json.t, string) Stdlib.result option array;
  aggregate : Campaign.aggregate;
  manifest : manifest;
}

exception Service_error of string

(* ------------------------------------------------------------------ *)
(* messages *)

let num i = Json.Num (float_of_int i)

let msg_type j =
  match Json.member "type" j with Some (Json.Str s) -> s | _ -> ""

(* The observability fields ([slot], [incarnation], [metrics], [trace],
   [trace_parent]) are optional and only present when the coordinator
   wants piggybacked telemetry: an old worker ignores them (unknown
   fields are skipped), and with observability off the hello bytes are
   exactly the pre-observability ones. *)
let hello_msg ~spec ~heartbeat_period ~slot ~incarnation ~want_metrics
    ~trace_parent =
  Json.Obj
    ([
       ("type", Json.Str "hello");
       ("format_version", Json.Str Telemetry.format_version_string);
       ("heartbeat_period", Json.Num heartbeat_period);
       ("spec", Spec_io.to_json spec);
     ]
    @ (if want_metrics || trace_parent <> None then
         [ ("slot", num slot); ("incarnation", num incarnation) ]
       else [])
    @ (if want_metrics then [ ("metrics", Json.Bool true) ] else [])
    @
    match trace_parent with
    | Some p -> [ ("trace", Json.Bool true); ("trace_parent", num p) ]
    | None -> [])

let ready_msg () =
  Json.Obj
    [
      ("type", Json.Str "ready");
      ("format_version", Json.Str Telemetry.format_version_string);
      ("pid", num (Unix.getpid ()));
    ]

let shard_msg ?span tasks =
  Json.Obj
    ([
       ("type", Json.Str "shard");
       ( "tasks",
         Json.Arr
           (List.map
              (fun (task, seed) ->
                Json.Obj [ ("task", num task); ("task_seed", num seed) ])
              tasks) );
     ]
    @
    (* the coordinator's shard-span id: parent for the worker's cell
       spans; absent when tracing is off *)
    match span with
    | Some s -> [ ("span", num s) ]
    | None -> [])

let cell_msg ~task ~task_seed payload =
  Json.Obj
    ([ ("type", Json.Str "cell"); ("task", num task); ("task_seed", num task_seed) ]
    @
    match payload with
    | Ok o -> [ ("outcome", o) ]
    | Error e -> [ ("error", Json.Str e) ])

let protocol_error_msg detail =
  Json.Obj [ ("type", Json.Str "protocol-error"); ("detail", Json.Str detail) ]

let simple_msg ty = Json.Obj [ ("type", Json.Str ty) ]

(* Every frame write goes through the wire-chaos injector; with the
   empty plan this is exactly [Wire.write_frame]. *)
let chaos_send chaos fd j =
  let frame = Wire.encode (Json.to_string j) in
  Chaos.apply chaos frame ~write:(fun b -> Wire.write_all fd b 0 (Bytes.length b))

let int_field name j =
  match Option.bind (Json.member name j) Json.to_int with
  | Some v -> v
  | None -> raise (Service_error (Printf.sprintf "missing %S field" name))

let opt_int_field name j = Option.bind (Json.member name j) Json.to_int

(* ------------------------------------------------------------------ *)
(* endpoint telemetry: one socket end's wire-reader and chaos-injector
   counters as snapshot series, labeled with who is counting *)

let endpoint_series ~labels reader chaos =
  let open Metrics.Snapshot in
  let {
    Wire.Reader.frames;
    bytes;
    garbage_events;
    garbage_bytes;
    crc_mismatches;
    oversized;
    resyncs;
  } =
    Wire.Reader.stats reader
  in
  let { Chaos.corrupted; torn; dropped; duplicated; stalled } =
    Chaos.counts chaos
  in
  let c name v = series ~labels name (Counter (float_of_int v)) in
  [
    c "wire_frames_total" frames;
    c "wire_bytes_total" bytes;
    c "wire_garbage_events_total" garbage_events;
    c "wire_garbage_bytes_total" garbage_bytes;
    c "wire_crc_mismatch_total" crc_mismatches;
    c "wire_oversized_total" oversized;
    c "wire_resyncs_total" resyncs;
  ]
  @ List.filter_map
      (fun (kind, v) ->
        if v > 0 then
          Some
            (series
               ~labels:(("kind", kind) :: labels)
               "chaos_faults_injected_total"
               (Counter (float_of_int v)))
        else None)
      [
        ("corrupted", corrupted);
        ("torn", torn);
        ("dropped", dropped);
        ("duplicated", duplicated);
        ("stalled", stalled);
      ]

(* ------------------------------------------------------------------ *)
(* worker process *)

(* Workers ship the *rendered* outcome JSON — the coordinator re-renders
   it byte-for-byte (Jsonx round-trips exactly), which is what makes the
   distributed stream bit-identical to the in-process one. The profile
   block (only present when tracing asked for stage spans) is stripped
   first, so the shipped bytes are identical whether or not the worker
   profiled the run. *)
let render_cell outcome =
  Campaign.json_of_outcome { outcome with Runner.profile = None }

let worker_main ~chaos fd =
  let reader = Wire.Reader.create fd in
  let write_mutex = Mutex.create () in
  let locked_send j =
    Mutex.lock write_mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock write_mutex)
      (fun () -> chaos_send chaos fd j)
  in
  (* A frame the checksum rejects means the coordinator's bytes were
     mangled in flight: report what we saw (best effort) and die — the
     coordinator requeues our shard remainder and respawns the slot. *)
  let protocol_failure detail =
    (try locked_send (protocol_error_msg detail) with _ -> ());
    Unix._exit 70
  in
  let inbox = Queue.create () in
  let rec next_msg () =
    if not (Queue.is_empty inbox) then Some (Queue.pop inbox)
    else
      match Wire.Reader.poll reader with
      | Wire.Reader.Eof -> None
      | Wire.Reader.Frames fs ->
          List.iter
            (function
              | Ok f -> Queue.add f inbox
              | Error e ->
                  protocol_failure
                    ("worker: " ^ Wire.Reader.error_to_string e))
            fs;
          next_msg ()
  in
  let parse payload =
    match Json.of_string payload with
    | Ok j -> j
    | Error e -> protocol_failure ("worker: frame is not JSON: " ^ e)
  in
  (* The handshake: the coordinator speaks first. *)
  let spec, heartbeat_period, slot, incarnation, want_metrics, trace_parent =
    match next_msg () with
    | None -> Unix._exit 0
    | Some payload -> (
        let j = parse payload in
        if msg_type j <> "hello" then
          raise (Service_error "worker: expected hello");
        (match Telemetry.check_format_version j with
        | Ok () -> ()
        | Error e -> raise (Service_error ("worker: " ^ e)));
        match Json.member "spec" j with
        | None -> raise (Service_error "worker: hello carries no spec")
        | Some sj -> (
            match Spec_io.of_json sj with
            | Error e -> raise (Service_error ("worker: bad spec: " ^ e))
            | Ok spec ->
                let period =
                  match
                    Option.bind (Json.member "heartbeat_period" j) Json.to_float
                  with
                  | Some p when p > 0. -> p
                  | _ -> 0.25
                in
                let slot = Option.value (opt_int_field "slot" j) ~default:0 in
                let incarnation =
                  Option.value (opt_int_field "incarnation" j) ~default:0
                in
                let want_metrics =
                  match Json.member "metrics" j with
                  | Some (Json.Bool b) -> b
                  | _ -> false
                in
                let trace_parent =
                  match Json.member "trace" j with
                  | Some (Json.Bool true) -> opt_int_field "trace_parent" j
                  | _ -> None
                in
                (spec, period, slot, incarnation, want_metrics, trace_parent)))
  in
  let tracer =
    if trace_parent = None then Span.null
    else Span.create ~pid:(Unix.getpid ()) ~clock:Clock.now ()
  in
  Span.process_name tracer
    (Printf.sprintf "treeaa worker slot %d (incarnation %d)" slot incarnation);
  let cells_run = ref 0 in
  let hb_seq = ref 0 in
  let metric_labels =
    [
      ("incarnation", string_of_int incarnation);
      ("role", "worker");
      ("slot", string_of_int slot);
    ]
  in
  (* Cumulative counters since worker start: a heartbeat eaten (or
     duplicated) by the wire loses (or repeats) nothing, because the
     coordinator replaces its per-slot view rather than summing deltas. *)
  let piggyback_snapshot () =
    Metrics.Snapshot.of_list
      (Metrics.Snapshot.series ~labels:metric_labels "worker_cells_total"
         (Metrics.Snapshot.Counter (float_of_int !cells_run))
      :: endpoint_series ~labels:metric_labels reader chaos)
  in
  let heartbeat_msg () =
    incr hb_seq;
    Json.Obj
      ([ ("type", Json.Str "heartbeat") ]
      @ (if want_metrics || trace_parent <> None then
           [ ("seq", num !hb_seq) ]
         else [])
      @ (if want_metrics then
           [ ("metrics", Metrics.Snapshot.to_json (piggyback_snapshot ())) ]
         else [])
      @
      match Span.drain tracer with
      | [] -> []
      | evs -> [ ("spans", Json.Arr evs) ])
  in
  locked_send (ready_msg ());
  (* Heartbeats ride a background thread so a long cell never looks like
     a hung worker; the write mutex keeps frames atomic. A failed write
     means the coordinator is gone — nothing left to do. *)
  let _hb : Thread.t =
    Thread.create
      (fun () ->
        let rec loop () =
          Thread.delay heartbeat_period;
          match locked_send (heartbeat_msg ()) with
          | () -> loop ()
          | exception _ -> Unix._exit 0
        in
        loop ())
      ()
  in
  let rec serve () =
    match next_msg () with
    | None -> Unix._exit 0 (* coordinator went away *)
    | Some payload ->
        let j = parse payload in
        (match msg_type j with
        | "shard" ->
            let tasks =
              match Option.bind (Json.member "tasks" j) Json.to_list with
              | Some l -> l
              | None -> raise (Service_error "worker: shard carries no tasks")
            in
            let shard_span = opt_int_field "span" j in
            let tracing = not (Span.is_null tracer) in
            List.iter
              (fun tj ->
                let task = int_field "task" tj in
                let task_seed = int_field "task_seed" tj in
                let t0 = Clock.now () in
                (* profile only when tracing wants the stage breakdown;
                   the rendered bytes are profile-free either way *)
                let result =
                  (Campaign.run_cell ~profile:tracing spec ~task ~task_seed)
                    .Campaign.result
                in
                let t1 = Clock.now () in
                (match result with
                | Ok o when tracing ->
                    let cell_id =
                      Span.complete tracer ?parent:shard_span ~cat:"cell"
                        ~args:[ ("task", num task) ]
                        ~name:(Printf.sprintf "cell %d" task)
                        ~start:t0 ~stop:t1 ()
                    in
                    (match o.Runner.profile with
                    | Some p ->
                        (* reconstruct the stage intervals from their
                           measured durations, laid end to end *)
                        let s1 =
                          t0 +. (float_of_int p.Runner.setup_ns /. 1e9)
                        in
                        let s2 =
                          s1 +. (float_of_int p.Runner.rounds_ns /. 1e9)
                        in
                        let s3 =
                          s2 +. (float_of_int p.Runner.checks_ns /. 1e9)
                        in
                        let stage name start stop =
                          ignore
                            (Span.complete tracer ~parent:cell_id
                               ~cat:"stage" ~name ~start ~stop ())
                        in
                        stage "setup" t0 s1;
                        stage "rounds" s1 s2;
                        stage "checks" s2 s3
                    | None -> ())
                | _ -> ());
                incr cells_run;
                let payload = Result.map render_cell result in
                locked_send (cell_msg ~task ~task_seed payload))
              tasks;
            locked_send (simple_msg "shard-done")
        | "shutdown" ->
            (* flush what the last heartbeat missed before exiting *)
            (try
               if want_metrics || trace_parent <> None then
                 locked_send (heartbeat_msg ())
             with _ -> ());
            Unix._exit 0
        | _ -> () (* forward-compatible: ignore unknown message types *));
        serve ()
  in
  serve ()

(* ------------------------------------------------------------------ *)
(* checkpoints *)

let cell_path dir task =
  Filename.concat dir (Printf.sprintf "cell-%04d.record.jsonl" task)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* A checkpoint is a trace-less flight record — the same shape the
   campaign CLI's --record-dir writes and `treeaa replay` verifies. The
   temp-file + rename makes the checkpoint atomic: a cell file either
   holds a complete record or does not exist, however the coordinator
   dies. *)
let checkpoint ~dir ~spec ~task ~task_seed outcome =
  let engine_seed =
    match Option.bind (Json.member "seed" outcome) Json.to_int with
    | Some s -> s
    | None -> 0
  in
  let record =
    {
      Recorder.spec;
      task_seed;
      engine_seed;
      trace = Trace.empty;
      outcome = Some outcome;
      digest = Some (Recorder.digest_of_outcome_json outcome);
    }
  in
  let path = cell_path dir task in
  let tmp = path ^ ".tmp" in
  Recorder.write_file tmp record;
  Sys.rename tmp path

(* Untrusted files never block a resume: they are moved aside into
   <record-dir>/quarantine/ (numbered if the name is taken) for post
   mortem inspection, and their cells recomputed. *)
let quarantine_file ~dir path =
  let qdir = Filename.concat dir "quarantine" in
  mkdir_p qdir;
  let base = Filename.basename path in
  let rec fresh k =
    let candidate =
      if k = 0 then Filename.concat qdir base
      else Filename.concat qdir (Printf.sprintf "%s.%d" base k)
    in
    if Sys.file_exists candidate then fresh (k + 1) else candidate
  in
  Sys.rename path (fresh 0)

(* Restore finished cells from a previous (interrupted) invocation. A
   checkpoint is accepted only if it parses as a flight record, its
   embedded spec structurally equals ours, its task seed matches the
   schedule *and* its outcome still hashes to the embedded digest.
   Corrupt or truncated files — including stale `.tmp` files left by a
   SIGKILLed worker or coordinator — are quarantined and their cells
   recomputed; a drifted-spec record is simply left untrusted (another
   campaign may own it) and the cell recomputed over it. *)
let load_checkpoints ~dir ~spec ~seeds cells =
  let resumed = ref 0 in
  let quarantined = ref 0 in
  if Sys.file_exists dir && Sys.is_directory dir then begin
    Array.iter
      (fun entry ->
        if Filename.check_suffix entry ".tmp" then begin
          quarantine_file ~dir (Filename.concat dir entry);
          incr quarantined
        end)
      (Sys.readdir dir);
    Array.iteri
      (fun task seed ->
        let path = cell_path dir task in
        if Sys.file_exists path then
          match Recorder.read_file path with
          | Ok r
            when r.Recorder.spec = spec
                 && r.Recorder.task_seed = seed -> (
              match Recorder.verify_outcome r with
              | Ok () ->
                  cells.(task) <-
                    Some (Ok (Option.get r.Recorder.outcome));
                  incr resumed
              | Error _ ->
                  quarantine_file ~dir path;
                  incr quarantined)
          | Ok _ -> () (* drifted spec/seed: recompute, leave the file *)
          | Error _ ->
              quarantine_file ~dir path;
              incr quarantined)
      seeds
  end;
  (!resumed, !quarantined)

(* ------------------------------------------------------------------ *)
(* status files *)

(* The pair every --status-out writes, service and in-process alike: one
   "service-status" JSON line (format_version gate, [fields], then the
   metric snapshot) and the snapshot's Prometheus twin, both atomic. *)
let write_status_pair ~path fields snap =
  let j =
    Json.Obj
      (("type", Json.Str "service-status")
       :: ("format_version", Json.Str Telemetry.format_version_string)
       :: fields
      @ [ ("metrics", Metrics.Snapshot.to_json snap) ])
  in
  Metrics.write_atomic ~path (Json.to_string j ^ "\n");
  Metrics.write_atomic ~path:(path ^ ".prom")
    (Metrics.Snapshot.to_prometheus snap)

let write_status ~path (r : Campaign.result) =
  let cells = num (Array.length r.Campaign.results) in
  write_status_pair ~path
    [
      ("name", Json.Str r.Campaign.spec.Campaign.Spec.name);
      ("status", Json.Str "completed");
      ("cells_total", cells);
      ("cells_done", cells);
    ]
    (Metrics.campaign
       (Array.to_list r.Campaign.results
       |> List.map (fun (tr : Campaign.task_result) ->
              Result.map Campaign.json_of_outcome tr.Campaign.result)))

(* ------------------------------------------------------------------ *)
(* coordinator *)

type worker = {
  slot : int;
  mutable pid : int;
  mutable reader : Wire.Reader.t;
  mutable chaos : Chaos.state;  (* coordinator-side injector for this fd *)
  mutable incarnation : int;  (* incarnation reader/chaos belong to *)
  mutable shard : (int * int) list;  (* in-flight (task, task_seed) *)
  mutable last_seen : float;  (* monotonic: last byte from the worker *)
  mutable last_heartbeat : float;  (* monotonic: last heartbeat frame *)
  mutable last_progress : float;  (* monotonic: last fresh cell / assign *)
  mutable restarts : int;
  mutable alive : bool;
  mutable respawn_at : float option;  (* monotonic backoff deadline *)
  mutable failure : string option;  (* permanent: respawn budget gone *)
  mutable hb_seq : int;  (* highest piggyback seq seen (dedup) *)
  mutable view : Metrics.Snapshot.t;  (* latest piggybacked snapshot *)
  mutable shard_span : Span.span option;
  mutable backoff_span : Span.span option;
  jitter : Rng.t;  (* seeded backoff jitter stream *)
}

let spawn ~spec ~heartbeat_period ~wire_chaos ~slot ~incarnation ~other_fds
    ~want_metrics ~trace_parent =
  let parent_fd, child_fd =
    Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  match Unix.fork () with
  | 0 ->
      Unix.close parent_fd;
      List.iter (fun fd -> try Unix.close fd with _ -> ()) other_fds;
      let chaos =
        Chaos.endpoint wire_chaos ~role:Chaos.Worker ~slot ~incarnation
      in
      (try worker_main ~chaos child_fd with _ -> ());
      Unix._exit 0
  | pid ->
      Unix.close child_fd;
      let chaos =
        Chaos.endpoint wire_chaos ~role:Chaos.Coordinator ~slot ~incarnation
      in
      chaos_send chaos parent_fd
        (hello_msg ~spec ~heartbeat_period ~slot ~incarnation ~want_metrics
           ~trace_parent);
      (pid, parent_fd, chaos)

let chunks size l =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
        if k = size then go (List.rev cur :: acc) [ x ] 1 rest
        else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 l

let run ?(workers = 1) ?record_dir ?(heartbeat_period = 0.25)
    ?(heartbeat_timeout = 30.) ?(max_respawns = 2) ?(respawn_backoff = 0.5)
    ?progress_timeout ?(wire_chaos = Chaos.none) ?status_out
    ?trace_events ?kill_worker_after_cells ?halt_after_cells spec =
  match Campaign.Spec.validate spec with
  | Error m -> Error ("Service.run: " ^ m)
  | Ok () -> (
      let workers = max 1 workers in
      let reps = spec.Campaign.Spec.repetitions in
      let seeds =
        Campaign.task_seeds ~base_seed:spec.Campaign.Spec.base_seed ~count:reps
      in
      let want_metrics = status_out <> None in
      let tracer =
        match trace_events with
        | Some _ -> Span.create ~pid:(Unix.getpid ()) ~clock:Clock.now ()
        | None -> Span.null
      in
      let observing = want_metrics || not (Span.is_null tracer) in
      let started_at = Clock.now () in
      let cells = Array.make reps None in
      let resumed, quarantined =
        match record_dir with
        | None -> (0, 0)
        | Some dir ->
            let r = load_checkpoints ~dir ~spec ~seeds cells in
            mkdir_p dir;
            r
      in
      (* the campaign_* series of the cells landed so far, kept only
         for --status-out. Resumed checkpoints count exactly like
         freshly computed cells: the series are a function of the cell
         set, not of which process (or which run) computed each cell. *)
      let landed =
        ref
          (if want_metrics then
             Metrics.campaign (List.filter_map Fun.id (Array.to_list cells))
           else [])
      in
      let pending =
        List.filter (fun i -> cells.(i) = None) (List.init reps Fun.id)
      in
      let computed = ref 0 in
      let requeued_shards = ref 0 in
      let worker_restarts = ref 0 in
      let protocol_errors = ref 0 in
      let progress_kills = ref 0 in
      (* Atomically rewrite the status JSON + its Prometheus twin, and
         the cumulative Chrome trace file. [extra_series] carries the
         per-slot gauges and the aggregated worker endpoint views; the
         campaign_* series and the coordinator's operational counters
         are merged in here. Timing-derived series are outside
         the determinism contract. *)
      let write_observability ~label ~workers_json ~extra_series () =
        (match status_out with
        | None -> ()
        | Some path ->
            let now = Clock.now () in
            let cells_done =
              Array.fold_left
                (fun acc c -> if c = None then acc else acc + 1)
                0 cells
            in
            let operational =
              let open Metrics.Snapshot in
              let c name v = series name (Counter (float_of_int v)) in
              [
                series "service_cells_done" (Gauge (float_of_int cells_done));
                c "service_cells_computed_total" !computed;
                c "service_cells_resumed_total" resumed;
                series "service_cells_total" (Gauge (float_of_int reps));
                series "service_elapsed_seconds" (Gauge (now -. started_at));
                c "service_progress_kills_total" !progress_kills;
                c "service_protocol_errors_total" !protocol_errors;
                c "service_quarantined_total" quarantined;
                c "service_requeued_shards_total" !requeued_shards;
                c "service_worker_restarts_total" !worker_restarts;
              ]
            in
            let snap =
              Metrics.Snapshot.merge !landed
                (Metrics.Snapshot.of_list (operational @ extra_series))
            in
            write_status_pair ~path
              [
                ("name", Json.Str spec.Campaign.Spec.name);
                ("status", Json.Str label);
                ("cells_total", num reps);
                ("cells_done", num cells_done);
                ("computed", num !computed);
                ("resumed", num resumed);
                ("quarantined", num quarantined);
                ("requeued_shards", num !requeued_shards);
                ("worker_restarts", num !worker_restarts);
                ("protocol_errors", num !protocol_errors);
                ("progress_kills", num !progress_kills);
                ("elapsed_seconds", Json.Num (now -. started_at));
                ("workers", Json.Arr workers_json);
              ]
              snap);
        match trace_events with
        | None -> ()
        | Some path ->
            Metrics.write_atomic ~path
              (Json.to_string (Span.to_json tracer) ^ "\n")
      in
      let finish ~status ~spawned ~shards ~failures =
        let aggregate =
          Array.fold_left
            (fun agg c ->
              match c with
              | Some p -> Campaign.fold_outcome_json agg p
              | None -> agg)
            Campaign.empty_aggregate cells
        in
        {
          status;
          spec;
          cells;
          aggregate;
          manifest =
            {
              tasks = reps;
              computed = !computed;
              resumed;
              quarantined;
              requeued_shards = !requeued_shards;
              worker_restarts = !worker_restarts;
              protocol_errors = !protocol_errors;
              progress_kills = !progress_kills;
              workers = spawned;
              shards;
              degraded = failures <> [];
              failures;
            };
        }
      in
      if pending = [] then begin
        if observing then
          write_observability ~label:"completed" ~workers_json:[]
            ~extra_series:[] ();
        Ok (finish ~status:Completed ~spawned:0 ~shards:0 ~failures:[])
      end
      else begin
        (* Shards are contiguous task-index runs, sized so each worker
           sees several shards: failure loses at most one shard's worth
           of work, and the tail of the grid still load-balances. *)
        let shard_size = max 1 (List.length pending / (workers * 4)) in
        let shards =
          chunks shard_size (List.map (fun i -> (i, seeds.(i))) pending)
        in
        let n_shards = List.length shards in
        let n_spawn = min workers n_shards in
        let queue = ref shards in
        let kill_fired = ref false in
        let halted = ref false in
        let pool = ref [] in
        let prev_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
        let restore_sigpipe () = Sys.set_signal Sys.sigpipe prev_sigpipe in
        let pool_fds () =
          List.filter_map
            (fun w -> if w.alive then Some (Wire.Reader.fd w.reader) else None)
            !pool
        in
        (* endpoint counters of dead incarnations (coordinator side) and
           final piggybacked views of dead workers: incarnation labels
           keep the keys disjoint, so the merge is a union *)
        let retired = ref ([] : Metrics.Snapshot.t) in
        let root_id = ref 0 in
        let parent_opt () = if !root_id = 0 then None else Some !root_id in
        let coord_labels w =
          [
            ("incarnation", string_of_int w.incarnation);
            ("role", "coordinator");
            ("slot", string_of_int w.slot);
          ]
        in
        let spawn_into w =
          if observing && w.pid <> 0 then
            retired :=
              Metrics.Snapshot.merge !retired
                (Metrics.Snapshot.of_list
                   (endpoint_series ~labels:(coord_labels w) w.reader w.chaos));
          let pid, fd, chaos =
            spawn ~spec ~heartbeat_period ~wire_chaos ~slot:w.slot
              ~incarnation:w.restarts ~other_fds:(pool_fds ()) ~want_metrics
              ~trace_parent:
                (if Span.is_null tracer then None else Some !root_id)
          in
          let now = Clock.now () in
          w.pid <- pid;
          w.reader <- Wire.Reader.create fd;
          w.chaos <- chaos;
          w.incarnation <- w.restarts;
          w.shard <- [];
          w.last_seen <- now;
          w.last_heartbeat <- now;
          w.last_progress <- now;
          w.respawn_at <- None;
          w.hb_seq <- 0;
          w.view <- [];
          w.alive <- true
        in
        let done_count () =
          Array.fold_left
            (fun acc c -> if c = None then acc else acc + 1)
            0 cells
        in
        let kill_all () =
          List.iter
            (fun w ->
              if w.alive then begin
                (try Unix.kill w.pid Sys.sigkill with _ -> ());
                (try Unix.close (Wire.Reader.fd w.reader) with _ -> ());
                (try ignore (Unix.waitpid [] w.pid) with _ -> ());
                w.alive <- false
              end)
            !pool
        in
        (* A dead worker's unfinished shard remainder goes back to the
           *front* of the queue (it holds the lowest outstanding task
           indices; survivors should close the gap before opening new
           work), and the slot is rescheduled with exponential backoff
           plus seeded jitter — or, once its budget is gone, marked as
           a permanent failure and the campaign degrades onto the
           surviving pool. *)
        let handle_death ~cause w =
          if w.alive then begin
            w.alive <- false;
            (try Unix.close (Wire.Reader.fd w.reader) with _ -> ());
            (try ignore (Unix.waitpid [] w.pid) with _ -> ());
            let remaining =
              List.filter (fun (t, _) -> cells.(t) = None) w.shard
            in
            w.shard <- [];
            (match w.shard_span with
            | Some s ->
                Span.close tracer s;
                w.shard_span <- None
            | None -> ());
            (* the dead incarnation's last piggybacked view is final *)
            if observing && w.view <> [] then begin
              retired := Metrics.Snapshot.merge !retired w.view;
              w.view <- []
            end;
            if remaining <> [] then begin
              queue := remaining :: !queue;
              incr requeued_shards
            end;
            if not !halted then
              if w.restarts < max_respawns then begin
                let delay =
                  respawn_backoff
                  *. (2. ** float_of_int w.restarts)
                  *. (0.5 +. Rng.float w.jitter 1.0)
                in
                w.respawn_at <- Some (Clock.now () +. delay);
                if not (Span.is_null tracer) then
                  w.backoff_span <-
                    Some
                      (Span.enter tracer ~tid:(w.slot + 1)
                         ?parent:(parent_opt ()) ~cat:"backoff"
                         ~args:[ ("cause", Json.Str cause) ]
                         (Printf.sprintf "backoff before restart %d"
                            (w.restarts + 1)))
              end
              else w.failure <- Some cause
          end
        in
        (* A frame this worker sent that the checksum (or JSON layer)
           rejects poisons the whole connection: we cannot tell which
           later bytes to trust, so kill, requeue, respawn with backoff. *)
        let poison w detail =
          incr protocol_errors;
          Span.instant tracer ~tid:(w.slot + 1)
            ~args:[ ("detail", Json.Str detail) ]
            "protocol-error";
          (try Unix.kill w.pid Sys.sigkill with _ -> ());
          handle_death ~cause:("protocol error: " ^ detail) w
        in
        let safe_send w j =
          try chaos_send w.chaos (Wire.Reader.fd w.reader) j
          with
          | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _)
          ->
            handle_death ~cause:"worker connection lost on send" w
        in
        let handle_cell w j =
          let task = int_field "task" j in
          if task < 0 || task >= reps then
            raise (Service_error "cell task out of range");
          let payload =
            match Json.member "outcome" j with
            | Some o -> Ok o
            | None -> (
                match
                  Option.bind (Json.member "error" j) Json.to_str
                with
                | Some e -> Error e
                | None -> Error "malformed cell message")
          in
          w.last_progress <- Clock.now ();
          if cells.(task) = None then begin
            cells.(task) <- Some payload;
            incr computed;
            if want_metrics then
              landed :=
                Metrics.Snapshot.merge !landed (Metrics.campaign [ payload ]);
            (match (record_dir, payload) with
            | Some dir, Ok o ->
                checkpoint ~dir ~spec ~task ~task_seed:seeds.(task) o
            | _ -> ());
            (match kill_worker_after_cells with
            | Some n when (not !kill_fired) && !computed >= n ->
                kill_fired := true;
                if w.alive then (try Unix.kill w.pid Sys.sigkill with _ -> ())
            | _ -> ());
            match halt_after_cells with
            | Some n when !computed >= n -> halted := true
            | _ -> ()
          end
        in
        (* A heartbeat may piggyback the worker's cumulative metric
           snapshot and its drained trace events. The seq field dedups
           wire-duplicated heartbeats (dup-frame chaos), so spans are
           imported exactly once; the metric snapshot is cumulative, so
           replacing the view is idempotent anyway. *)
        let handle_heartbeat w j =
          w.last_heartbeat <- Clock.now ();
          let seq = Option.value (opt_int_field "seq" j) ~default:0 in
          if seq > w.hb_seq then begin
            w.hb_seq <- seq;
            (match Json.member "metrics" j with
            | Some mj -> (
                match Metrics.Snapshot.of_json mj with
                | Ok snap -> w.view <- snap
                | Error _ -> ())
            | None -> ());
            match Option.bind (Json.member "spans" j) Json.to_list with
            | Some evs -> Span.import tracer evs
            | None -> ()
          end
        in
        let handle_msg w payload =
          match Json.of_string payload with
          | Error e -> poison w ("frame is not JSON: " ^ e)
          | Ok j -> (
              match msg_type j with
              | "cell" -> (
                  try handle_cell w j
                  with Service_error m -> poison w m)
              | "shard-done" ->
                  (* Cells the wire ate (dropped/garbled frames) are
                     detected here: the shard is acknowledged complete
                     but their slots are still empty — requeue them. *)
                  let missing =
                    List.filter (fun (t, _) -> cells.(t) = None) w.shard
                  in
                  if missing <> [] then begin
                    queue := missing :: !queue;
                    incr requeued_shards
                  end;
                  w.shard <- [];
                  (match w.shard_span with
                  | Some s ->
                      Span.close tracer s;
                      w.shard_span <- None
                  | None -> ())
              | "protocol-error" ->
                  let detail =
                    match
                      Option.bind (Json.member "detail" j) Json.to_str
                    with
                    | Some d -> d
                    | None -> "unspecified"
                  in
                  poison w ("worker reported: " ^ detail)
              | "heartbeat" -> handle_heartbeat w j
              | "ready" -> ()
              | _ -> ())
        in
        let handle_readable w =
          match Wire.Reader.poll w.reader with
          | Wire.Reader.Eof -> handle_death ~cause:"worker died (eof)" w
          | Wire.Reader.Frames fs ->
              w.last_seen <- Clock.now ();
              let rec process = function
                | [] -> ()
                | _ when (not w.alive) || !halted -> ()
                | Ok payload :: rest ->
                    handle_msg w payload;
                    process rest
                | Error e :: _ ->
                    poison w (Wire.Reader.error_to_string e)
              in
              process fs
        in
        let assign w =
          match !queue with
          | [] -> ()
          | shard :: rest ->
              queue := rest;
              w.shard <- shard;
              w.last_progress <- Clock.now ();
              let span =
                if Span.is_null tracer then None
                else begin
                  let lo =
                    List.fold_left (fun a (t, _) -> min a t) max_int shard
                  in
                  let hi =
                    List.fold_left (fun a (t, _) -> max a t) min_int shard
                  in
                  let s =
                    Span.enter tracer ~tid:(w.slot + 1)
                      ?parent:(parent_opt ()) ~cat:"shard"
                      (Printf.sprintf "shard cells %d-%d" lo hi)
                  in
                  w.shard_span <- Some s;
                  Some (Span.id s)
                end
              in
              safe_send w (shard_msg ?span shard)
        in
        let respawn_due now =
          List.iter
            (fun w ->
              match w.respawn_at with
              | Some at when now >= at ->
                  (* Fire only when there is queued work for the new
                     process; an expired deadline with an empty queue
                     stays armed, so capacity comes back the moment a
                     surviving worker dies with work in flight. *)
                  if !queue <> [] then begin
                    w.respawn_at <- None;
                    (match w.backoff_span with
                    | Some s ->
                        Span.close tracer s;
                        w.backoff_span <- None
                    | None -> ());
                    w.restarts <- w.restarts + 1;
                    incr worker_restarts;
                    spawn_into w
                  end
              | _ -> ())
            !pool
        in
        let next_respawn () =
          List.fold_left
            (fun acc w ->
              match (w.respawn_at, acc) with
              | None, acc -> acc
              | Some at, None -> Some at
              | Some at, Some best -> Some (min at best))
            None !pool
        in
        let hard_failure () =
          let causes =
            List.filter_map
              (fun w ->
                Option.map
                  (fun c ->
                    Printf.sprintf "slot %d (%d respawns): %s" w.slot
                      w.restarts c)
                  w.failure)
              !pool
          in
          raise
            (Service_error
               ("all worker slots exhausted their respawn budgets with work \
                 outstanding — "
               ^ String.concat "; " causes))
        in
        (* the live per-slot gauges + every endpoint's wire/chaos view:
           current incarnations read live, dead ones come from [retired] *)
        let pool_extra now =
          !retired
          @ List.concat_map
              (fun w ->
                let open Metrics.Snapshot in
                let sl = [ ("slot", string_of_int w.slot) ] in
                [
                  series ~labels:sl "service_backoff_remaining_seconds"
                    (Gauge
                       (match w.respawn_at with
                       | Some at -> Float.max 0. (at -. now)
                       | None -> 0.));
                  series ~labels:sl "service_heartbeat_lag_seconds"
                    (Gauge
                       (if w.alive then Float.max 0. (now -. w.last_heartbeat)
                        else 0.));
                  series ~labels:sl "service_progress_lag_seconds"
                    (Gauge
                       (if w.alive then Float.max 0. (now -. w.last_progress)
                        else 0.));
                  series ~labels:sl "service_shard_inflight"
                    (Gauge (float_of_int (List.length w.shard)));
                  series ~labels:sl "service_worker_alive"
                    (Gauge (if w.alive then 1. else 0.));
                  series ~labels:sl "service_worker_restarts"
                    (Gauge (float_of_int w.restarts));
                ]
                @ w.view
                @
                if w.pid <> 0 then
                  endpoint_series ~labels:(coord_labels w) w.reader w.chaos
                else [])
              !pool
        in
        let pool_workers_json now =
          List.map
            (fun w ->
              Json.Obj
                [
                  ("slot", num w.slot);
                  ("pid", num w.pid);
                  ("alive", Json.Bool w.alive);
                  ("restarts", num w.restarts);
                  ("incarnation", num w.incarnation);
                  ( "heartbeat_lag_seconds",
                    Json.Num
                      (if w.alive then Float.max 0. (now -. w.last_heartbeat)
                       else 0.) );
                  ( "progress_lag_seconds",
                    Json.Num
                      (if w.alive then Float.max 0. (now -. w.last_progress)
                       else 0.) );
                  ( "backoff_remaining_seconds",
                    Json.Num
                      (match w.respawn_at with
                      | Some at -> Float.max 0. (at -. now)
                      | None -> 0.) );
                  ("shard_inflight", num (List.length w.shard));
                  ( "failure",
                    match w.failure with
                    | Some c -> Json.Str c
                    | None -> Json.Null );
                ])
            !pool
        in
        let write_live ~label () =
          if observing then begin
            let now = Clock.now () in
            write_observability ~label ~workers_json:(pool_workers_json now)
              ~extra_series:(pool_extra now) ()
          end
        in
        let serve () =
          Span.process_name tracer "treeaa coordinator";
          root_id :=
            Span.id
              (Span.enter tracer ~tid:0 ~cat:"campaign"
                 spec.Campaign.Spec.name);
          for slot = 0 to n_spawn - 1 do
            let w =
              {
                slot;
                pid = 0;
                reader = Wire.Reader.create Unix.stdin (* replaced *);
                chaos =
                  Chaos.endpoint Chaos.none ~role:Chaos.Coordinator ~slot
                    ~incarnation:0 (* replaced *);
                incarnation = 0;
                shard = [];
                last_seen = 0.;
                last_heartbeat = 0.;
                last_progress = 0.;
                restarts = 0;
                alive = false;
                respawn_at = None;
                failure = None;
                hb_seq = 0;
                view = [];
                shard_span = None;
                backoff_span = None;
                jitter =
                  Rng.create
                    (spec.Campaign.Spec.base_seed + (0x2545F491 * (slot + 1)));
              }
            in
            pool := !pool @ [ w ];
            spawn_into w
          done;
          List.iter assign !pool;
          write_live ~label:"running" ();
          let last_status = ref (Clock.now ()) in
          while (not !halted) && done_count () < reps do
            respawn_due (Clock.now ());
            (match List.filter (fun w -> w.alive) !pool with
            | [] -> (
                (* No live worker. If a respawn is scheduled, sleep up
                   to its deadline; otherwise every slot's budget is
                   spent with work outstanding — the hard failure. *)
                match next_respawn () with
                | Some at ->
                    let wait = at -. Clock.now () in
                    if wait > 0. then
                      Unix.sleepf (min heartbeat_period (max 0.005 wait))
                | None -> hard_failure ())
            | alive -> (
                let fds = List.map (fun w -> Wire.Reader.fd w.reader) alive in
                match Unix.select fds [] [] heartbeat_period with
                | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
                | readable, _, _ ->
                    List.iter
                      (fun w ->
                        if
                          w.alive
                          && List.mem (Wire.Reader.fd w.reader) readable
                        then handle_readable w)
                      alive;
                    let now = Clock.now () in
                    List.iter
                      (fun w ->
                        if w.alive then
                          if now -. w.last_seen > heartbeat_timeout then begin
                            Span.instant tracer ~tid:(w.slot + 1)
                              "heartbeat-timeout kill";
                            (try Unix.kill w.pid Sys.sigkill with _ -> ());
                            handle_death ~cause:"heartbeat timeout" w
                          end
                          else
                            match progress_timeout with
                            | Some limit
                              when w.shard <> []
                                   && now -. w.last_progress > limit ->
                                (* Livelocked: heartbeats arrive but no
                                   cells ship (e.g. a shard frame the
                                   wire ate). Kill and requeue. *)
                                incr progress_kills;
                                Span.instant tracer ~tid:(w.slot + 1)
                                  "progress-timeout kill";
                                (try Unix.kill w.pid Sys.sigkill
                                 with _ -> ());
                                handle_death
                                  ~cause:
                                    "progress timeout (heartbeats but no \
                                     cells)"
                                  w
                            | _ -> ())
                      !pool));
            if not !halted then
              List.iter
                (fun w -> if w.alive && w.shard = [] then assign w)
                !pool;
            if observing && Clock.now () -. !last_status >= heartbeat_period
            then begin
              last_status := Clock.now ();
              write_live ~label:"running" ()
            end
          done;
          let failures () =
            List.filter_map
              (fun w ->
                Option.map
                  (fun cause ->
                    { slot = w.slot; restarts = w.restarts; cause })
                  w.failure)
              !pool
          in
          if !halted then begin
            kill_all ();
            finish
              ~status:(Halted { cells_done = done_count () })
              ~spawned:n_spawn ~shards:n_shards ~failures:(failures ())
          end
          else begin
            List.iter
              (fun w -> if w.alive then safe_send w (simple_msg "shutdown"))
              !pool;
            (* workers flush a final piggyback heartbeat on shutdown:
               drain it (bounded) so the last snapshot and spans land in
               the final status/trace files, then reap on EOF *)
            if observing then begin
              let deadline = Clock.now () +. (2. *. heartbeat_period) +. 0.5 in
              let rec drain_final () =
                let live = List.filter (fun w -> w.alive) !pool in
                if live <> [] && Clock.now () < deadline then begin
                  let fds =
                    List.map (fun w -> Wire.Reader.fd w.reader) live
                  in
                  (match Unix.select fds [] [] 0.05 with
                  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
                  | readable, _, _ ->
                      List.iter
                        (fun w ->
                          if
                            w.alive
                            && List.mem (Wire.Reader.fd w.reader) readable
                          then
                            match Wire.Reader.poll w.reader with
                            | Wire.Reader.Eof ->
                                (try Unix.close (Wire.Reader.fd w.reader)
                                 with _ -> ());
                                (try ignore (Unix.waitpid [] w.pid)
                                 with _ -> ());
                                w.alive <- false
                            | Wire.Reader.Frames fs ->
                                List.iter
                                  (function
                                    | Ok p -> (
                                        match Json.of_string p with
                                        | Ok j
                                          when msg_type j = "heartbeat" ->
                                            handle_heartbeat w j
                                        | _ -> ())
                                    | Error _ -> ())
                                  fs)
                        live);
                  drain_final ()
                end
              in
              drain_final ()
            end;
            List.iter
              (fun w ->
                if w.alive then begin
                  (try Unix.close (Wire.Reader.fd w.reader) with _ -> ());
                  (try ignore (Unix.waitpid [] w.pid) with _ -> ());
                  w.alive <- false
                end)
              !pool;
            finish ~status:Completed ~spawned:n_spawn ~shards:n_shards
              ~failures:(failures ())
          end
        in
        match serve () with
        | result ->
            restore_sigpipe ();
            if observing then begin
              Span.close_all tracer;
              write_live
                ~label:
                  (match result.status with
                  | Completed -> "completed"
                  | Halted _ -> "halted")
                ()
            end;
            Ok result
        | exception exn ->
            kill_all ();
            restore_sigpipe ();
            (if observing then
               try
                 Span.close_all tracer;
                 write_live ~label:"failed" ()
               with _ -> ());
            Error
              (match exn with
              | Service_error m -> m
              | exn -> Printexc.to_string exn)
      end)

(* ------------------------------------------------------------------ *)
(* result stream + manifest *)

let jsonl_lines r =
  (match r.status with
  | Completed -> ()
  | Halted _ ->
      invalid_arg "Service.jsonl_lines: halted campaign (resume it first)");
  let reps = r.spec.Campaign.Spec.repetitions in
  let seeds =
    Campaign.task_seeds ~base_seed:r.spec.Campaign.Spec.base_seed ~count:reps
  in
  Campaign.stream_lines r.spec
    (List.init reps (fun i ->
         match r.cells.(i) with
         | Some payload ->
             Campaign.json_of_task_line ~task:i ~task_seed:seeds.(i) payload
         | None -> assert false (* Completed means every cell is present *)))
    r.aggregate

let jsonl_string r = Campaign.string_of_lines (jsonl_lines r)

let write_jsonl oc r = Campaign.output_lines oc (jsonl_lines r)

let manifest_json r =
  let m = r.manifest in
  Json.Obj
    [
      ("type", Json.Str "campaign-manifest");
      ( "status",
        match r.status with
        | Completed -> Json.Str "completed"
        | Halted { cells_done } ->
            Json.Obj [ ("halted_at_cells", num cells_done) ] );
      ("tasks", num m.tasks);
      ("computed", num m.computed);
      ("resumed", num m.resumed);
      ("quarantined", num m.quarantined);
      ("requeued_shards", num m.requeued_shards);
      ("worker_restarts", num m.worker_restarts);
      ("protocol_errors", num m.protocol_errors);
      ("progress_kills", num m.progress_kills);
      ("workers", num m.workers);
      ("shards", num m.shards);
      ("degraded", Json.Bool m.degraded);
      ( "failures",
        Json.Arr
          (List.map
             (fun (f : failure) ->
               Json.Obj
                 [
                   ("slot", num f.slot);
                   ("restarts", num f.restarts);
                   ("cause", Json.Str f.cause);
                 ])
             m.failures) );
    ]

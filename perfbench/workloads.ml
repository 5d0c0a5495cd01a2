(* The five workloads. Each makes its inputs from the workload seed alone,
   runs one measured repetition through the library's own entry points
   when untraced, and through the same public pieces wrapped by {!Probe}
   when traced; the traced path must reproduce the untraced counters (and,
   for the campaign, its JSONL bytes) exactly. *)

open Treeagree
module Json = Aat_telemetry.Jsonx

type size = {
  passive_n : int;
  spoiler_n : int;
  cells : int;
  async_n : int;
  async_t : int;
  async_vertices : int;
  async_diameter : int;
}

let full =
  {
    passive_n = 150;
    spoiler_n = 120;
    cells = 3000;
    async_n = 40;
    async_t = 4;
    async_vertices = 31;
    async_diameter = 12;
  }

(* the self-test sizes: every workload and every check in seconds *)
let tiny =
  {
    passive_n = 16;
    spoiler_n = 13;
    cells = 40;
    async_n = 7;
    async_t = 1;
    async_vertices = 9;
    async_diameter = 4;
  }

(* One measured repetition. [rounds] is the Runner's [rounds_used] summed
   over cells (synchronous rounds; delivery events on the async engine);
   [deliveries] counts letters delivered (async: delivery events). *)
type rep = {
  wall : float;
  alloc_bytes : float;
  rounds : int;
  cells : int;
  deliveries : int;
  checks : int;
  failures : int;
  counters : (string * int) list;  (** deterministic work counts *)
  digest : string;  (** digest of the JSONL stream; [""] without one *)
}

type t = {
  name : string;
  setup : unit -> unit;  (** one set-up probe, timed by the caller *)
  rep : unit -> rep;  (** traced iff {!Probe.enabled} *)
  count : unit -> (string * int) list;
      (** counting pass of the traced invocation: byte-counting telemetry *)
  verify : rep list -> int * int;
      (** checks over all repetitions: (attempted, failed) *)
}

let now = Service_clock.now

let measured f =
  let a0 = Gc.allocated_bytes () in
  let t0 = now () in
  let v = f () in
  let wall = now () -. t0 in
  (v, wall, Gc.allocated_bytes () -. a0)

let no_verify _ = (0, 0)

(* A live telemetry sink that only adds up letters and payload bytes. *)
let byte_sink () =
  let letters = ref 0 and bytes = ref 0 in
  let sink =
    {
      Telemetry.Sink.on_start = ignore;
      on_round =
        (fun e ->
          letters := !letters + e.Telemetry.honest_msgs + e.Telemetry.adversary_msgs;
          bytes := !bytes + e.Telemetry.honest_bytes + e.Telemetry.adversary_bytes);
      on_stop = ignore;
    }
  in
  (sink, fun () -> [ ("sync_engine.letters", !letters); ("sync_engine.payload_bytes", !bytes) ])

(* ------------------------------------------------------------------ *)
(* TreeAA runners *)

(* TreeAA's two phases as Campaign.Spec.Tree_spoiler phases its attack. *)
let tree_spoiler ~tree ~t () =
  let nv = Tree.n_vertices tree in
  let iterations range = Rounds.bdh_iterations ~range:(float_of_int range) ~eps:1. in
  Compose_adversary.phased ~name:"spoiler"
    ~barrier:(max 1 (Paths_finder.rounds ~tree))
    ~first:(Spoiler.realaa_spoiler ~t ~iterations:(iterations ((2 * nv) - 2)))
    ~second:
      (Spoiler.realaa_spoiler ~t ~iterations:(iterations (max 2 (Metrics.diameter tree))))

let tree_check ~tree ~inputs report =
  Probe.span "tree_verdict.check" (fun () ->
      Tree_verdict.check ~tree
        ~n_honest:(Array.length inputs - List.length report.Report.corrupted)
        ~honest_inputs:(Report.honest_inputs ~inputs report)
        ~honest_outputs:(Report.honest_outputs report))

(* Untraced: [Runner.tree_aa] itself. Traced: the same runner assembled
   from [Runner.of_protocol] with the protocol, adversary and verdict
   wrapped — field for field what [Runner.tree_aa] builds. *)
let tree_aa_runner ~tree ~inputs ~t ~adversary ~watch =
  if not !Probe.enabled then
    Runner.tree_aa
      ~config:{ Runner.Config.default with Runner.Config.watch }
      ~tree ~inputs ~t ~adversary ()
  else
    Runner.of_protocol ~name:"tree-aa" ~n:(Array.length inputs) ~t
      ~max_rounds:(Tree_aa.rounds ~tree)
      ~protocol:(fun () ->
        Probe.protocol ~tree (Tree_aa.protocol ~tree ~inputs:(fun i -> inputs.(i)) ~t))
      ~adversary:(fun () -> Probe.adversary (adversary ()))
      ~observe:Tree_aa.observe
      ~watchdogs:(fun () ->
        Probe.open_engine ();
        if watch then [ Fault_watchdogs.corruption_budget ~t ] else [])
      ~check:(fun report ->
        Probe.close_engine ();
        tree_check ~tree ~inputs report)
      ()

(* ------------------------------------------------------------------ *)
(* scale-passive / scale-spoiler: one TreeAA run on star-9 *)

let scale ~name ~n ~spoiler ~seed =
  let t = (n - 1) / 3 in
  let draw () =
    Probe.span "tree.generate" (fun () ->
        let tree = Generate.star 9 in
        let rng = Rng.create seed in
        (tree, Array.init n (fun _ -> Rng.int rng (Tree.n_vertices tree))))
  in
  let adversary ~tree () =
    if spoiler then tree_spoiler ~tree ~t () else Adversary.passive "none"
  in
  let runner () =
    let tree, inputs = draw () in
    (tree, tree_aa_runner ~tree ~inputs ~t ~adversary:(adversary ~tree) ~watch:false)
  in
  let setup () =
    let tree, inputs = draw () in
    ignore (Runner.tree_aa ~tree ~inputs ~t ~adversary:(adversary ~tree) ());
    ignore (Tree_aa.protocol ~tree ~inputs:(fun i -> inputs.(i)) ~t);
    ignore (adversary ~tree ())
  in
  let rep () =
    let tree, r = runner () in
    let o, wall, alloc_bytes =
      measured (fun () ->
          Probe.span "runner.run" (fun () ->
              r.Runner.run ~seed ~profile:!Probe.enabled ()))
    in
    Probe.stage_profile o;
    let letters = o.Runner.honest_messages + o.Runner.adversary_messages in
    let ok = Runner.ok o && o.Runner.rounds_used = Tree_aa.rounds ~tree in
    {
      wall;
      alloc_bytes;
      rounds = o.Runner.rounds_used;
      cells = 1;
      deliveries = letters;
      checks = 1;
      failures = (if ok then 0 else 1);
      counters = [ ("rounds", o.Runner.rounds_used); ("letters", letters) ];
      digest = "";
    }
  in
  let count () =
    let tree, inputs = draw () in
    let sink, read = byte_sink () in
    let r = Runner.tree_aa ~tree ~inputs ~t ~adversary:(adversary ~tree) () in
    ignore (r.Runner.run ~seed ~telemetry:sink ());
    read ()
  in
  { name; setup; rep; count; verify = no_verify }

(* ------------------------------------------------------------------ *)
(* campaign-mixed / campaign-service: 2000 small tree-aa cells *)

let spec ~cells ~seed =
  {
    Campaign.Spec.name = "perfbench-mixed";
    protocol = Campaign.Spec.Tree_aa;
    tree = Campaign.Spec.Any_tree;
    n = Campaign.Spec.Between (4, 13);
    t_budget = Campaign.Spec.Up_to_third;
    inputs = Campaign.Spec.Random_vertices;
    adversary = Campaign.Spec.Any_tree_adversary;
    faults = Campaign.Spec.No_faults;
    watchdogs = true;
    repetitions = cells;
    base_seed = seed;
  }

(* [Campaign.instantiate] for the spec above, draw for draw from the task
   seed's stream, so the traced run can wrap the layers a cell calls. The
   traced JSONL must equal [Campaign.run]'s byte for byte, which checks
   this mirror on every traced repetition. *)
let instantiate (spec : Campaign.Spec.t) ~task_seed =
  let rng = Rng.create task_seed in
  let tree =
    Probe.span "tree.generate" (fun () ->
        match Rng.int rng 6 with
        | 0 -> Generate.path (2 + Rng.int rng 300)
        | 1 -> Generate.star (3 + Rng.int rng 200)
        | 2 -> Generate.caterpillar ~spine:(1 + Rng.int rng 40) ~legs:(Rng.int rng 4)
        | 3 -> Generate.spider ~legs:(1 + Rng.int rng 8) ~leg_length:(1 + Rng.int rng 20)
        | 4 -> Generate.balanced ~arity:(2 + Rng.int rng 2) ~depth:(1 + Rng.int rng 5)
        | _ -> Generate.random rng (2 + Rng.int rng 250))
  in
  let n =
    match spec.Campaign.Spec.n with
    | Campaign.Spec.Between (lo, hi) -> max 1 (lo + Rng.int rng (hi - lo + 1))
    | Campaign.Spec.Exactly k -> max 1 k
  in
  let t = Rng.int rng (((max 1 n - 1) / 3) + 1) in
  let inputs =
    Probe.span "tree.generate" (fun () ->
        Array.init n (fun _ -> Rng.int rng (max 1 (Tree.n_vertices tree))))
  in
  let rounds_hint = max 1 (Tree_aa.rounds ~tree) in
  let adversary =
    match Rng.int rng 4 with
    | 0 -> fun () -> Adversary.passive "none"
    | 1 -> fun () -> Strategies.random_silent ~count:t
    | 2 ->
        let at_round = 1 + Rng.int rng (max 1 rounds_hint) in
        let bound = max 1 (min n (t + 3)) in
        let victims = Rng.sample_without_replacement rng (min t bound) bound in
        fun () -> Strategies.crash ~at_round ~victims
    | _ -> tree_spoiler ~tree ~t
  in
  let runner = tree_aa_runner ~tree ~inputs ~t ~adversary ~watch:spec.Campaign.Spec.watchdogs in
  (runner, Rng.int rng 0x3FFF_FFFF)

let cell_ok = function
  | Ok o -> Runner.ok o
  | Error _ -> false

let json_cell_ok = function
  | Some (Ok j) -> Json.member "ok" j = Some (Json.Bool true)
  | Some (Error _) | None -> false

let failures_of ok cells = Array.fold_left (fun acc c -> if ok c then acc else acc + 1) 0 cells

let campaign_rep ~cells ~(agg : Campaign.aggregate) ~failures ~jsonl ~wall ~alloc_bytes ~extra =
  let letters = agg.Campaign.total_honest_messages + agg.Campaign.total_adversary_messages in
  {
    wall;
    alloc_bytes;
    rounds = agg.Campaign.total_rounds;
    cells;
    deliveries = letters;
    checks = cells + extra;
    failures;
    counters =
      [
        ("cells", agg.Campaign.tasks);
        ("rounds", agg.Campaign.total_rounds);
        ("letters", letters);
        ("json_bytes", String.length jsonl);
      ];
    digest = Digest.to_hex (Digest.string jsonl);
  }

(* The traced campaign: [Campaign.run ~workers:1]'s task loop (its pool
   runs one worker inline), with each layer call in its own span. *)
let traced_campaign spec =
  let line j = Json.to_string j ^ "\n" in
  let buf = Buffer.create (1 lsl 20) in
  let render j = Probe.span "campaign.render" (fun () -> Buffer.add_string buf (line j)) in
  render (Campaign.json_header spec);
  let seeds =
    Campaign.task_seeds ~base_seed:spec.Campaign.Spec.base_seed
      ~count:spec.Campaign.Spec.repetitions
  in
  let agg = ref Campaign.empty_aggregate in
  let results =
    Array.mapi
      (fun task task_seed ->
        let result =
          try
            let runner, seed =
              Probe.span "campaign.instantiate" (fun () -> instantiate spec ~task_seed)
            in
            let o = Probe.span "runner.run" (fun () -> runner.Runner.run ~seed ~profile:true ()) in
            Probe.stage_profile o;
            Ok { o with Runner.profile = None }
          with exn -> Error (Printexc.to_string exn)
        in
        let tr = { Campaign.task; task_seed; result } in
        agg := Probe.span "campaign.fold" (fun () -> Campaign.fold_task !agg tr);
        render (Campaign.json_of_task_result tr);
        result)
      seeds
  in
  render (Campaign.json_footer !agg);
  (results, !agg, Buffer.contents buf)

let campaign_mixed ~cells ~seed =
  let spec = spec ~cells ~seed in
  let setup () =
    ignore (Campaign.Spec.validate spec);
    ignore (Campaign.task_seeds ~base_seed:seed ~count:cells)
  in
  let rep () =
    let (results, agg, jsonl), wall, alloc_bytes =
      measured (fun () ->
          if !Probe.enabled then traced_campaign spec
          else
            let r = Campaign.run ~workers:1 spec in
            ( Array.map (fun tr -> tr.Campaign.result) r.Campaign.results,
              r.Campaign.aggregate,
              Campaign.jsonl_string r ))
    in
    Probe.add "campaign.json_bytes" (float_of_int (String.length jsonl));
    campaign_rep ~cells ~agg ~failures:(failures_of cell_ok results) ~jsonl ~wall ~alloc_bytes
      ~extra:0
  in
  let count () =
    let sink, read = byte_sink () in
    ignore (Campaign.run ~workers:1 ~telemetry:(fun ~task:_ -> Some sink) spec);
    read ()
  in
  { name = "campaign-mixed"; setup; rep; count; verify = no_verify }

(* ------------------------------------------------------------------ *)
(* campaign-service *)

let scratch = Filename.concat ".perfbench" "tmp"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_json path =
  match Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
  | Ok j -> j
  | Error e -> failwith (path ^ ": " ^ e)

let num_field k j = Option.bind (Json.member k j) Json.to_float
let str_field k j = Option.bind (Json.member k j) Json.to_str

(* Worker cell spans of the service's own Chrome trace: (start, stop) in
   clock seconds, paired by (pid, name) — cell names are unique. *)
let cell_spans events =
  let opened = Hashtbl.create 1024 and spans = ref [] in
  List.iter
    (fun ev ->
      match (str_field "ph" ev, str_field "name" ev, num_field "pid" ev, num_field "ts" ev) with
      | Some "B", Some name, Some pid, Some ts when str_field "cat" ev = Some "cell" ->
          Hashtbl.replace opened (pid, name) ts
      | Some "E", Some name, Some pid, Some ts -> (
          match Hashtbl.find_opt opened (pid, name) with
          | Some t0 ->
              Hashtbl.remove opened (pid, name);
              spans := (t0 /. 1e6, ts /. 1e6) :: !spans
          | None -> ())
      | _ -> ())
    events;
  !spans

let counter_total snapshot name =
  List.fold_left
    (fun acc (s : Obs_metrics.Snapshot.series) ->
      match s.Obs_metrics.Snapshot.value with
      | Obs_metrics.Snapshot.Counter v when s.Obs_metrics.Snapshot.name = name -> acc +. v
      | _ -> acc)
    0. snapshot

(* Service.run's own observability, read back into per-layer counts. *)
let book_service ~start ~wall ~workers ~cells ~trace_path ~status_path
    (m : Service.manifest) =
  let events =
    match Json.member "traceEvents" (read_json trace_path) with
    | Some (Json.Arr evs) -> evs
    | _ -> []
  in
  Obs_span.import !Probe.tracer events;
  let spans = cell_spans events in
  let busy = List.fold_left (fun acc (a, b) -> acc +. (b -. a)) 0. spans in
  let first = List.fold_left (fun acc (a, _) -> Float.min acc a) infinity spans in
  let capacity = wall *. float_of_int workers in
  let per_cell x = x /. float_of_int (max 1 cells) in
  Probe.add "service.first_cell_ms" ((first -. start) *. 1000.);
  Probe.add "service.overhead_ms_per_cell" (per_cell ((capacity -. busy) *. 1000.));
  Probe.add "service.useful_frac" (busy /. capacity);
  Probe.add "service.requeued_shards" (float_of_int m.Service.requeued_shards);
  match Json.member "metrics" (read_json status_path) with
  | Some j -> (
      match Obs_metrics.Snapshot.of_json j with
      | Ok snap ->
          Probe.add "wire.bytes_per_cell" (per_cell (counter_total snap "wire_bytes_total"));
          Probe.add "wire.frames_per_cell" (per_cell (counter_total snap "wire_frames_total"))
      | Error _ -> ())
  | None -> ()

let campaign_service ~cells ~seed =
  let workers = 2 in
  let spec = spec ~cells ~seed in
  (* set-up: spec compilation, fork, hello/ready and shutdown of the
     pool, carrying one cell per worker *)
  let setup () =
    ignore (Service.run ~workers { spec with Campaign.Spec.repetitions = workers })
  in
  let rep () =
    let traced = !Probe.enabled in
    let trace_path = Filename.concat scratch "service-trace.json" in
    let status_path = Filename.concat scratch "service-status.json" in
    if traced then mkdir_p scratch;
    let start = now () in
    let (r, jsonl), wall, alloc_bytes =
      measured (fun () ->
          let r =
            Probe.span "service.run" (fun () ->
                if traced then
                  Service.run ~workers ~trace_events:trace_path ~status_out:status_path spec
                else Service.run ~workers spec)
          in
          match r with
          | Error e -> failwith ("campaign-service: " ^ e)
          | Ok r -> (r, Probe.span "campaign.render" (fun () -> Service.jsonl_string r)))
    in
    let m = r.Service.manifest in
    if traced then begin
      book_service ~start ~wall ~workers ~cells ~trace_path ~status_path m;
      Probe.add "campaign.json_bytes" (float_of_int (String.length jsonl))
    end;
    let healthy =
      r.Service.status = Service.Completed && (not m.Service.degraded)
      && m.Service.requeued_shards = 0
    in
    campaign_rep ~cells ~agg:r.Service.aggregate
      ~failures:(failures_of json_cell_ok r.Service.cells + if healthy then 0 else 1)
      ~jsonl ~wall ~alloc_bytes ~extra:1
  in
  (* every stream must equal the in-process Campaign.run of the same spec *)
  let verify reps =
    let reference = Digest.to_hex (Digest.string (Campaign.jsonl_string (Campaign.run ~workers:1 spec))) in
    (List.length reps, List.length (List.filter (fun r -> r.digest <> reference) reps))
  in
  let count () =
    let sink, read = byte_sink () in
    ignore (Campaign.run ~workers:1 ~telemetry:(fun ~task:_ -> Some sink) spec);
    read ()
  in
  { name = "campaign-service"; setup; rep; count; verify }

(* ------------------------------------------------------------------ *)
(* async-fifo: one async-tree-aa run, Fifo scheduler, passive adversary *)

let async_fifo (size : size) ~seed =
  let n = size.async_n and t = size.async_t in
  let draw () =
    Probe.span "tree.generate" (fun () ->
        let rng = Rng.create seed in
        let tree =
          Generate.random_of_diameter rng ~n:size.async_vertices ~diameter:size.async_diameter
        in
        (tree, Array.init n (fun _ -> Rng.int rng (Tree.n_vertices tree))))
  in
  let reactor ~tree ~inputs =
    Async_aa.tree ~tree ~inputs:(fun i -> inputs.(i)) ~t
      ~iterations:(Nr_baseline.iterations_for tree)
  in
  let setup () =
    let tree, inputs = draw () in
    ignore (reactor ~tree ~inputs);
    ignore (Async_engine.passive ~scheduler:Async_engine.Fifo "none")
  in
  let rep () =
    let tree, inputs = draw () in
    let reactor = reactor ~tree ~inputs in
    let reactor = if !Probe.enabled then Probe.reactor reactor else reactor in
    let (outcome, ok), wall, alloc_bytes =
      measured (fun () ->
          let outcome =
            Probe.span "async_engine.run_outcome" (fun () ->
                Async_engine.run_outcome ~n ~t ~seed ~max_events:Runner.Config.default.max_events
                  ~reactor
                  ~adversary:(Async_engine.passive ~scheduler:Async_engine.Fifo "none")
                  ())
          in
          let ok =
            match outcome with
            | Outcome.Completed report ->
                let v =
                  Probe.span "tree_verdict.check" (fun () ->
                      Tree_verdict.check_report ~tree ~inputs
                        ~value:(fun r -> r.Async_aa.value)
                        report)
                in
                v.Verdict.termination && v.Verdict.validity && v.Verdict.agreement
            | Outcome.Liveness_timeout _ | Outcome.Engine_error _ -> false
          in
          (outcome, ok))
    in
    let events, letters =
      match outcome with
      | Outcome.Completed r | Outcome.Liveness_timeout { report = r; _ } ->
          (r.Report.rounds_used, r.Report.honest_messages + r.Report.adversary_messages)
      | Outcome.Engine_error _ -> (0, 0)
    in
    Probe.add "async_engine.events" (float_of_int events);
    Probe.add "async_engine.letters" (float_of_int letters);
    {
      wall;
      alloc_bytes;
      rounds = events;
      cells = 1;
      deliveries = events;
      checks = 1;
      failures = (if ok then 0 else 1);
      counters = [ ("events", events); ("letters", letters) ];
      digest = "";
    }
  in
  { name = "async-fifo"; setup; rep; count = (fun () -> []); verify = no_verify }

let names = [ "scale-passive"; "scale-spoiler"; "campaign-mixed"; "campaign-service"; "async-fifo" ]

let make (size : size) ~seed = function
  | "scale-passive" -> Some (scale ~name:"scale-passive" ~n:size.passive_n ~spoiler:false ~seed)
  | "scale-spoiler" -> Some (scale ~name:"scale-spoiler" ~n:size.spoiler_n ~spoiler:true ~seed)
  | "campaign-mixed" -> Some (campaign_mixed ~cells:size.cells ~seed)
  | "campaign-service" -> Some (campaign_service ~cells:size.cells ~seed)
  | "async-fifo" -> Some (async_fifo size ~seed)
  | _ -> None

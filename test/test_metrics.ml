(* Tests for the service metrics registry and the span tracer: the
   snapshot codec inverts and renders deterministically, update order
   never changes a snapshot, the null registry is inert and free, the
   deterministic [campaign_*] series are bit-identical for any worker
   count — in-process *and* across the multi-process service under a
   seeded wire-chaos plan — the status file stays parseable under a
   concurrent reader through every atomic rewrite, the in-process status
   file matches the service's, and the Chrome trace
   the service writes is well-formed (balanced B/E per (pid, tid),
   time-sorted). *)

open Treeagree
module M = Obs_metrics
module Json = Telemetry.Json

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let json_bytes snap = Json.to_string (M.Snapshot.to_json snap)

(* ------------------------------------------------------------------ *)
(* snapshot codec: random snapshots round-trip through JSON *)

let snapshot_gen =
  let open QCheck.Gen in
  let name = oneofl [ "alpha_total"; "beta_seconds"; "gamma"; "delta_total" ] in
  let label = pair (oneofl [ "slot"; "kind"; "grade" ]) (string_size (0 -- 4)) in
  let labels = list_size (0 -- 2) label in
  let value =
    frequency
      [
        (3, map (fun v -> M.Snapshot.Counter (float_of_int v)) (0 -- 1000));
        (2, map (fun v -> M.Snapshot.Gauge (float_of_int v /. 8.)) (0 -- 1000));
        ( 1,
          map2
            (fun counts overflow ->
              M.Snapshot.Histogram
                {
                  bounds = [ 1.; 2.; 4.; 8. ];
                  counts;
                  overflow;
                  sum =
                    List.fold_left ( + ) overflow counts |> float_of_int;
                  count = List.fold_left ( + ) overflow counts;
                })
            (list_repeat 4 (0 -- 50))
            (0 -- 50) );
      ]
  in
  let series =
    map2
      (fun (name, labels) value -> M.Snapshot.series ~labels name value)
      (pair name labels) value
  in
  map M.Snapshot.of_list (list_size (0 -- 12) series)

let codec_round_trip =
  QCheck.Test.make ~count:300 ~name:"snapshot JSON codec inverts"
    (QCheck.make snapshot_gen) (fun snap ->
      match M.Snapshot.of_json (M.Snapshot.to_json snap) with
      | Error e -> QCheck.Test.fail_reportf "of_json: %s" e
      | Ok back ->
          (* value equality and byte equality: the codec must invert and
             the rendering must be canonical *)
          M.Snapshot.equal snap back && String.equal (json_bytes snap) (json_bytes back))

(* ------------------------------------------------------------------ *)
(* registry semantics *)

let test_registry_basics () =
  let reg = M.create () in
  let c = M.counter reg "alpha_total" in
  M.incr c;
  M.add c 4.;
  M.add c (-100.) (* clamped: counters never go down *);
  let g = M.gauge reg ~labels:[ ("slot", "1") ] "beta" in
  M.set g 2.;
  M.max_gauge g 7.;
  M.max_gauge g 3.;
  let h = M.histogram reg ~buckets:[ 1.; 10. ] "gamma" in
  List.iter (M.observe h) [ 0.5; 5.; 50. ];
  let snap = M.snapshot reg in
  let find name =
    List.find (fun s -> s.M.Snapshot.name = name) snap
  in
  (match (find "alpha_total").M.Snapshot.value with
  | M.Snapshot.Counter v -> check_string "counter" "5" (Printf.sprintf "%g" v)
  | _ -> Alcotest.fail "alpha_total not a counter");
  (match (find "beta").M.Snapshot.value with
  | M.Snapshot.Gauge v -> check_string "max gauge" "7" (Printf.sprintf "%g" v)
  | _ -> Alcotest.fail "beta not a gauge");
  (match (find "gamma").M.Snapshot.value with
  | M.Snapshot.Histogram { counts; overflow; count; _ } ->
      check "buckets" true (counts = [ 1; 1 ]);
      check_int "overflow" 1 overflow;
      check_int "count" 3 count
  | _ -> Alcotest.fail "gamma not a histogram");
  (* re-minting the same name/labels hits the same series *)
  M.incr (M.counter reg "alpha_total");
  match (List.find (fun s -> s.M.Snapshot.name = "alpha_total") (M.snapshot reg)).M.Snapshot.value with
  | M.Snapshot.Counter v -> check_string "re-mint" "6" (Printf.sprintf "%g" v)
  | _ -> Alcotest.fail "alpha_total lost"

let test_order_independence () =
  (* the same updates in any order produce byte-identical snapshots *)
  let updates =
    [
      (fun reg -> M.incr (M.counter reg "a_total"));
      (fun reg -> M.add (M.counter reg ~labels:[ ("k", "x") ] "a_total") 3.);
      (fun reg -> M.max_gauge (M.gauge reg "g") 5.);
      (fun reg -> M.max_gauge (M.gauge reg "g") 2.);
      (fun reg -> M.observe (M.histogram reg "h") 3.);
      (fun reg -> M.observe (M.histogram reg "h") 300.);
    ]
  in
  let run order =
    let reg = M.create () in
    List.iter (fun f -> f reg) order;
    json_bytes (M.snapshot reg)
  in
  check_string "reversed order" (run updates) (run (List.rev updates));
  (* labels normalize regardless of mint order *)
  let reg1 = M.create () in
  M.incr (M.counter reg1 ~labels:[ ("a", "1"); ("b", "2") ] "l_total");
  let reg2 = M.create () in
  M.incr (M.counter reg2 ~labels:[ ("b", "2"); ("a", "1") ] "l_total");
  check_string "label order" (json_bytes (M.snapshot reg1))
    (json_bytes (M.snapshot reg2))

let test_null_registry () =
  check "null is null" true (M.is_null M.null);
  check "live is not null" false (M.is_null (M.create ()));
  M.incr (M.counter M.null "x_total");
  M.set (M.gauge M.null "g") 3.;
  M.observe (M.histogram M.null "h") 1.;
  M.record_cell M.null (Error "boom");
  check "null snapshot empty" true (M.snapshot M.null = []);
  (* the span twin obeys the same discipline *)
  let span = Obs_span.enter Obs_span.null "s" in
  check_int "null span id" 0 (Obs_span.id span);
  Obs_span.close Obs_span.null span;
  check "null tracer drains nothing" true (Obs_span.drain Obs_span.null = [])

let test_merge () =
  let s ?labels name v = M.Snapshot.series ?labels name v in
  let left =
    M.Snapshot.of_list
      [ s "c_total" (M.Snapshot.Counter 2.); s "g" (M.Snapshot.Gauge 1.) ]
  in
  let right =
    M.Snapshot.of_list
      [ s "c_total" (M.Snapshot.Counter 3.); s "g" (M.Snapshot.Gauge 4.) ]
  in
  let merged = M.Snapshot.merge left right in
  check "counters sum, gauges max" true
    (merged
    = M.Snapshot.of_list
        [ s "c_total" (M.Snapshot.Counter 5.); s "g" (M.Snapshot.Gauge 4.) ])

let test_prometheus () =
  let reg = M.create () in
  M.incr (M.counter reg ~labels:[ ("grade", "pa\"ss") ] "c_total");
  M.observe (M.histogram reg ~buckets:[ 1.; 2. ] "h") 1.5;
  let prom = M.Snapshot.to_prometheus (M.snapshot reg) in
  let has needle =
    let ln = String.length prom and lf = String.length needle in
    let rec at i = i + lf <= ln && (String.sub prom i lf = needle || at (i + 1)) in
    at 0
  in
  check "TYPE line" true (has "# TYPE c_total counter");
  check "escaped label" true (has "c_total{grade=\"pa\\\"ss\"} 1");
  check "cumulative buckets" true (has "h_bucket{le=\"2\"} 1");
  check "inf bucket" true (has "h_bucket{le=\"+Inf\"} 1");
  check "hist count" true (has "h_count 1")

(* ------------------------------------------------------------------ *)
(* the determinism contract, end to end *)

let spec reps =
  {
    Campaign.Spec.name = "metrics-prop";
    protocol = Campaign.Spec.Tree_aa;
    tree = Campaign.Spec.Random_tree (Campaign.Spec.Between (2, 10));
    n = Campaign.Spec.Between (4, 7);
    t_budget = Campaign.Spec.Up_to_third;
    inputs = Campaign.Spec.Random_vertices;
    adversary = Campaign.Spec.Any_tree_adversary;
    faults = Campaign.Spec.Chaos { intensity = 0.35 };
    watchdogs = true;
    repetitions = reps;
    base_seed = 71;
  }

(* OCaml 5 forbids [Unix.fork] in any process that has ever spawned a
   domain, and the service forks its workers — so the in-process
   multi-worker runs (which spawn Pool domains) happen in a forked
   child, keeping this test process domain-free for the Service.run
   cases. The child ships the snapshot bytes back over a pipe. *)
let in_child f =
  let rd, wr = Unix.pipe ~cloexec:false () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let reply = (try f () with e -> "EXN: " ^ Printexc.to_string e) in
      let oc = Unix.out_channel_of_descr wr in
      output_string oc reply;
      flush oc;
      Unix.close wr;
      Unix._exit 0
  | pid ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let buf = Buffer.create 1024 in
      (try
         while true do
           Buffer.add_channel buf ic 1
         done
       with End_of_file -> ());
      close_in ic;
      ignore (Unix.waitpid [] pid);
      Buffer.contents buf

(* only campaign_* series are in the contract; service/wire series are
   operational (timing, chaos luck, respawn history) *)
let campaign_series snap =
  List.filter
    (fun s ->
      String.length s.M.Snapshot.name >= 9
      && String.sub s.M.Snapshot.name 0 9 = "campaign_")
    snap

let fold_results results =
  let reg = M.create () in
  Array.iter
    (fun (tr : Campaign.task_result) ->
      M.record_cell reg (Result.map Campaign.json_of_outcome tr.Campaign.result))
    results;
  M.snapshot reg

let test_inprocess_bit_identity () =
  let spec = spec 8 in
  let baseline =
    json_bytes (fold_results (Campaign.run ~workers:1 spec).Campaign.results)
  in
  check "baseline has campaign series" true (baseline <> json_bytes []);
  List.iter
    (fun w ->
      let bytes =
        in_child (fun () ->
            json_bytes
              (fold_results (Campaign.run ~workers:w spec).Campaign.results))
      in
      check_string (Printf.sprintf "workers %d" w) baseline bytes)
    [ 2; 4 ]

let test_distributed_bit_identity () =
  let spec = spec 6 in
  let baseline =
    json_bytes
      (campaign_series
         (fold_results (Campaign.run ~workers:1 spec).Campaign.results))
  in
  let plan =
    match Service_chaos.parse "corrupt-frame:0.06+dup-frame:0.04+seed:5" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun w ->
      let reg = M.create () in
      match
        Service.run ~workers:w ~heartbeat_period:0.02 ~wire_chaos:plan
          ~metrics:reg spec
      with
      | Error e -> Alcotest.failf "Service.run (%d workers): %s" w e
      | Ok _ ->
          check_string
            (Printf.sprintf "distributed %d under chaos" w)
            baseline
            (json_bytes (campaign_series (M.snapshot reg))))
    [ 1; 2; 4 ]

let test_metrics_off_neutrality () =
  (* observability off (the default) and on produce the same stream —
     the registry and tracer only observe *)
  let spec = spec 5 in
  let stream run = match run with
    | Ok r -> Service.jsonl_string r
    | Error e -> Alcotest.fail ("Service.run: " ^ e)
  in
  let plain = stream (Service.run ~workers:2 spec) in
  let observed =
    stream (Service.run ~workers:2 ~metrics:(M.create ()) spec)
  in
  check_string "stream unchanged under observation" plain observed;
  check_string "matches in-process too"
    (Campaign.jsonl_string (Campaign.run ~workers:1 spec))
    plain

(* ------------------------------------------------------------------ *)
(* status-file atomicity under a concurrent reader *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_write_atomic () =
  let path = Filename.temp_file "aat-metrics" ".json" in
  M.write_atomic ~path "first\n";
  check_string "first write" "first\n" (read_file path);
  M.write_atomic ~path "second\n";
  check_string "rewrite" "second\n" (read_file path);
  Sys.remove path

let test_status_atomic_under_reader () =
  let path = Filename.temp_file "aat-status" ".json" in
  Sys.remove path (* the service's first atomic write creates it *);
  let stop = Atomic.make false in
  let good = Atomic.make 0 in
  let torn = ref [] in
  let reader =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          (match (try Some (read_file path) with Sys_error _ -> None) with
          | None -> () (* not written yet *)
          | Some bytes -> (
              match Json.of_string (String.trim bytes) with
              | Ok _ -> Atomic.incr good
              | Error e -> torn := e :: !torn));
          Thread.yield ()
        done)
      ()
  in
  let result =
    Service.run ~workers:2 ~heartbeat_period:0.01 ~status_out:path (spec 6)
  in
  Atomic.set stop true;
  Thread.join reader;
  (match result with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("Service.run: " ^ e));
  check "no torn reads" true (!torn = []);
  check "reader saw the file" true (Atomic.get good > 0);
  (* the final rewrite reports completion, and the Prometheus twin
     carries the deterministic cell counter *)
  let json =
    match Json.of_string (String.trim (read_file path)) with
    | Ok j -> j
    | Error e -> Alcotest.fail ("final status: " ^ e)
  in
  let str name = Option.bind (Json.member name json) Json.to_str in
  check "final status completed" true (str "status" = Some "completed");
  let prom = read_file (path ^ ".prom") in
  let has needle =
    let ln = String.length prom and lf = String.length needle in
    let rec at i = i + lf <= ln && (String.sub prom i lf = needle || at (i + 1)) in
    at 0
  in
  check "prom twin" true (has "campaign_cells_total 6");
  Sys.remove path;
  Sys.remove (path ^ ".prom")

(* In-process --status-out writes the same pair as the service: a header
   the format_version gate accepts, and campaign_* series (JSON and
   Prometheus) equal to the served run's on the same spec. *)
let test_inprocess_status_matches_service () =
  let spec = spec 6 in
  let served = Filename.temp_file "aat-served" ".json" in
  let inproc = Filename.temp_file "aat-inproc" ".json" in
  (match Service.run ~workers:2 ~status_out:served spec with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("Service.run: " ^ e));
  Service.write_status ~path:inproc (Campaign.run ~workers:1 spec);
  let status path =
    match Json.of_string (String.trim (read_file path)) with
    | Ok j -> j
    | Error e -> Alcotest.failf "%s: %s" path e
  in
  let a = status inproc and b = status served in
  check "in-process header passes the format_version gate" true
    (Telemetry.check_format_version a = Ok ());
  let str name j = Option.bind (Json.member name j) Json.to_str in
  check "same status type" true (str "type" a = str "type" b);
  let series j =
    match Option.map M.Snapshot.of_json (Json.member "metrics" j) with
    | Some (Ok snap) -> json_bytes (campaign_series snap)
    | _ -> Alcotest.fail "status file carries no metric snapshot"
  in
  check "campaign series present" true (series a <> json_bytes []);
  check_string "campaign series equal" (series b) (series a);
  let campaign_prom path =
    String.split_on_char '\n' (read_file (path ^ ".prom"))
    |> List.filter (fun l ->
           let has_prefix p =
             String.length l >= String.length p
             && String.sub l 0 (String.length p) = p
           in
           has_prefix "campaign_" || has_prefix "# TYPE campaign_")
  in
  check "prometheus campaign series equal" true
    (campaign_prom inproc = campaign_prom served);
  List.iter Sys.remove [ served; served ^ ".prom"; inproc; inproc ^ ".prom" ]

(* ------------------------------------------------------------------ *)
(* trace well-formedness *)

let test_trace_well_formed () =
  let path = Filename.temp_file "aat-trace" ".json" in
  (match
     Service.run ~workers:2 ~heartbeat_period:0.02 ~trace_events:path (spec 6)
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("Service.run: " ^ e));
  let json =
    match Json.of_string (String.trim (read_file path)) with
    | Ok j -> j
    | Error e -> Alcotest.fail ("trace: " ^ e)
  in
  let events =
    match Option.bind (Json.member "traceEvents" json) Json.to_list with
    | Some evs -> evs
    | None -> Alcotest.fail "no traceEvents"
  in
  let fnum name ev = Option.bind (Json.member name ev) Json.to_float in
  let fstr name ev = Option.bind (Json.member name ev) Json.to_str in
  let depth = Hashtbl.create 8 in
  let spans = ref 0 in
  let pids = Hashtbl.create 4 in
  let last_ts = ref neg_infinity in
  List.iter
    (fun ev ->
      let ph = Option.value (fstr "ph" ev) ~default:"?" in
      let ts = Option.value (fnum "ts" ev) ~default:nan in
      if ph <> "M" then begin
        check "time-sorted" true (ts >= !last_ts);
        last_ts := ts
      end;
      Option.iter (fun p -> Hashtbl.replace pids p ()) (fnum "pid" ev);
      let key = (fnum "pid" ev, fnum "tid" ev) in
      let d = try Hashtbl.find depth key with Not_found -> 0 in
      match ph with
      | "B" ->
          Stdlib.incr spans;
          Hashtbl.replace depth key (d + 1)
      | "E" ->
          check "E after B" true (d > 0);
          Hashtbl.replace depth key (d - 1)
      | _ -> ())
    events;
  Hashtbl.iter (fun _ d -> check_int "balanced" 0 d) depth;
  check "has spans" true (!spans > 0);
  (* worker cell spans arrive over the wire under their own pid *)
  check "two processes traced" true (Hashtbl.length pids >= 2);
  Sys.remove path

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "metrics"
    [
      ( "snapshot",
        [
          QCheck_alcotest.to_alcotest codec_round_trip;
          Alcotest.test_case "registry basics" `Quick test_registry_basics;
          Alcotest.test_case "order independence" `Quick test_order_independence;
          Alcotest.test_case "null registry" `Quick test_null_registry;
          Alcotest.test_case "merge" `Quick test_merge;
          Alcotest.test_case "prometheus exposition" `Quick test_prometheus;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "in-process workers 1/2/4" `Quick
            test_inprocess_bit_identity;
          Alcotest.test_case "distributed 1/2/4 under wire chaos" `Slow
            test_distributed_bit_identity;
          Alcotest.test_case "metrics-off neutrality" `Slow
            test_metrics_off_neutrality;
        ] );
      ( "exposure",
        [
          Alcotest.test_case "write_atomic" `Quick test_write_atomic;
          Alcotest.test_case "status file under concurrent reader" `Slow
            test_status_atomic_under_reader;
          Alcotest.test_case "in-process status file = service's" `Slow
            test_inprocess_status_matches_service;
          Alcotest.test_case "trace well-formed" `Slow test_trace_well_formed;
        ] );
    ]

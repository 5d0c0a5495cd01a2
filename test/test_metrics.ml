(* Tests for the service metric snapshots and the span tracer: the
   snapshot codec inverts and renders deterministically, the
   [campaign_*] series are a fold over the cell set (any order or split
   of the cells renders the same bytes), the null tracer is inert, the
   deterministic [campaign_*] series are bit-identical for any worker
   count — in-process *and* across the multi-process service under a
   seeded wire-chaos plan — and pinned by md5 over fixed cells that
   reach every series, the status file stays parseable under a
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

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

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
(* campaign series: a fold over the cell set *)

(* a cell payload as [Campaign.json_of_outcome] renders it *)
let cell ?(ok = true) ?grade ?status ?(faults = []) ?(violations = 0) ?spread
    rounds =
  let num i = Json.Num (float_of_int i) in
  Json.Obj
    ([
       ("termination", Json.Bool true);
       ("validity", Json.Bool true);
       ("agreement", Json.Bool ok);
       ("rounds_used", num rounds);
       ("honest_messages", num (10 * rounds));
       ("adversary_messages", num rounds);
       ("spread", match spread with Some s -> Json.Num s | None -> Json.Null);
     ]
    @ (match status with Some st -> [ ("status", Json.Str st) ] | None -> [])
    @ (match grade with Some g -> [ ("grade", Json.Str g) ] | None -> [])
    @ (if faults = [] then []
       else [ ("faults", Json.Obj (List.map (fun (k, v) -> (k, num v)) faults)) ])
    @
    if violations = 0 then []
    else
      [
        ( "watchdog_violations",
          Json.Arr (List.init violations (fun _ -> Json.Obj [])) );
      ])

let test_campaign_basics () =
  let snap =
    M.campaign
      [
        Ok (cell ~spread:2. 1);
        Ok (cell ~ok:false ~spread:7. ~faults:[ ("dropped", 3); ("crashed", 0) ] 5);
        Ok (cell ~grade:"excused" ~status:"liveness-timeout" ~spread:3. ~violations:2 300);
        Error "boom";
      ]
  in
  let value ?(labels = []) name =
    match
      List.find_opt
        (fun s -> s.M.Snapshot.name = name && s.M.Snapshot.labels = labels)
        snap
    with
    | Some s -> s.M.Snapshot.value
    | None -> Alcotest.failf "no series %s" name
  in
  let counter ?labels name want =
    match value ?labels name with
    | M.Snapshot.Counter v -> check_string name want (Printf.sprintf "%g" v)
    | _ -> Alcotest.failf "%s not a counter" name
  in
  counter "campaign_cells_total" "4";
  counter "campaign_cell_errors_total" "1";
  counter ~labels:[ ("grade", "passed") ] "campaign_grades_total" "1";
  counter ~labels:[ ("grade", "violated") ] "campaign_grades_total" "1";
  counter ~labels:[ ("grade", "excused") ] "campaign_grades_total" "1";
  counter ~labels:[ ("status", "completed") ] "campaign_statuses_total" "2";
  counter ~labels:[ ("status", "engine-error") ] "campaign_statuses_total" "1";
  counter ~labels:[ ("status", "liveness-timeout") ] "campaign_statuses_total" "1";
  counter "campaign_rounds_total" "306";
  counter "campaign_honest_messages_total" "3060";
  counter ~labels:[ ("kind", "dropped") ] "campaign_faults_injected_total" "3";
  counter "campaign_watchdog_violations_total" "2";
  check "a zero fault count adds no series" false
    (List.exists
       (fun s -> s.M.Snapshot.labels = [ ("kind", "crashed") ])
       snap);
  (match value "campaign_spread_max" with
  | M.Snapshot.Gauge v -> check_string "max spread" "7" (Printf.sprintf "%g" v)
  | _ -> Alcotest.fail "campaign_spread_max not a gauge");
  match value "campaign_rounds_used" with
  | M.Snapshot.Histogram { counts; overflow; count; sum; _ } ->
      check "buckets" true (counts = [ 1; 0; 0; 1; 0; 0; 0; 0; 0 ]);
      check_int "overflow" 1 overflow;
      check_int "count" 3 count;
      check_string "sum" "306" (Printf.sprintf "%g" sum)
  | _ -> Alcotest.fail "campaign_rounds_used not a histogram"

let test_order_independence () =
  (* the same cells in any order produce byte-identical snapshots *)
  let cells =
    [
      Ok (cell ~spread:5. 3);
      Ok (cell ~faults:[ ("dropped", 2) ] ~spread:2. 300);
      Error "boom";
      Ok (cell ~grade:"excused" 9);
    ]
  in
  check_string "reversed order"
    (json_bytes (M.campaign cells))
    (json_bytes (M.campaign (List.rev cells)));
  (* labels normalize regardless of the order they are given in *)
  let l_total labels =
    json_bytes (M.Snapshot.of_list [ M.Snapshot.series ~labels "l_total" (M.Snapshot.Counter 1.) ])
  in
  check_string "label order"
    (l_total [ ("a", "1"); ("b", "2") ])
    (l_total [ ("b", "2"); ("a", "1") ])

(* random cell payloads, covering every field the fold reads *)
let payload_gen =
  let open QCheck.Gen in
  let ok =
    map
      (fun ((ok, excused, status), (rounds, faults, violations, spread)) ->
        Ok
          (cell ~ok ?grade:(if excused then Some "excused" else None) ?status
             ~faults ~violations
             ?spread:(Option.map (fun k -> float_of_int k /. 8.) spread)
             rounds))
      (pair
         (triple bool bool
            (opt (oneofl [ "completed"; "liveness-timeout"; "engine-error" ])))
         (quad (0 -- 600)
            (list_size (0 -- 3)
               (pair (oneofl [ "dropped"; "duplicated"; "delayed"; "crashed" ]) (0 -- 9)))
            (0 -- 3) (opt (0 -- 800))))
  in
  frequency [ (6, ok); (1, return (Error "boom")) ]

(* [Metrics.campaign] of any permutation of the cells, and the merge of
   the campaign series of any split of them, render the same bytes *)
let campaign_fold =
  let gen =
    QCheck.Gen.(
      list_size (0 -- 12) payload_gen >>= fun cells ->
      pair (shuffle_l cells) (list_size (0 -- 4) (0 -- 12)) >|= fun (perm, cuts) ->
      (cells, perm, cuts))
  in
  let print (cells, _, cuts) =
    String.concat "; "
      (List.map (function Ok j -> Json.to_string j | Error e -> e) cells)
    ^ " / cuts " ^ String.concat "," (List.map string_of_int cuts)
  in
  QCheck.Test.make ~count:300 ~name:"campaign series: any order, any split"
    (QCheck.make ~print gen) (fun (cells, perm, cuts) ->
      let want = json_bytes (M.campaign cells) in
      let rec split cells = function
        | [] -> [ cells ]
        | k :: rest ->
            List.filteri (fun i _ -> i < k) cells
            :: split (List.filteri (fun i _ -> i >= k) cells) rest
      in
      let merged =
        List.fold_left
          (fun acc part -> M.Snapshot.merge acc (M.campaign part))
          [] (split cells cuts)
      in
      String.equal want (json_bytes (M.campaign perm))
      && String.equal want (json_bytes merged))

let test_null_tracer () =
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
  let prom =
    M.Snapshot.to_prometheus
      (M.Snapshot.of_list
         [
           M.Snapshot.series ~labels:[ ("grade", "pa\"ss") ] "c_total"
             (M.Snapshot.Counter 1.);
           M.Snapshot.series "h"
             (M.Snapshot.Histogram
                { bounds = [ 1.; 2. ]; counts = [ 0; 1 ]; overflow = 0; sum = 1.5; count = 1 });
         ])
  in
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

(* the metric snapshot a --status-out file carries *)
let status_snapshot path =
  match Json.of_string (String.trim (read_file path)) with
  | Error e -> Alcotest.failf "%s: %s" path e
  | Ok j -> (
      match Option.map M.Snapshot.of_json (Json.member "metrics" j) with
      | Some (Ok snap) -> snap
      | _ -> Alcotest.failf "%s carries no metric snapshot" path)

let fold_results results =
  M.campaign
    (Array.to_list results
    |> List.map (fun (tr : Campaign.task_result) ->
           Result.map Campaign.json_of_outcome tr.Campaign.result))

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
      let path = Filename.temp_file "aat-distributed" ".json" in
      match
        Service.run ~workers:w ~heartbeat_period:0.02 ~wire_chaos:plan
          ~status_out:path spec
      with
      | Error e -> Alcotest.failf "Service.run (%d workers): %s" w e
      | Ok _ ->
          check_string
            (Printf.sprintf "distributed %d under chaos" w)
            baseline
            (json_bytes (campaign_series (status_snapshot path)));
          List.iter Sys.remove [ path; path ^ ".prom" ])
    [ 1; 2; 4 ]

let test_metrics_off_neutrality () =
  (* observability off (the default) and on produce the same stream —
     the status file only observes *)
  let spec = spec 5 in
  let stream run = match run with
    | Ok r -> Service.jsonl_string r
    | Error e -> Alcotest.fail ("Service.run: " ^ e)
  in
  let plain = stream (Service.run ~workers:2 spec) in
  let path = Filename.temp_file "aat-observed" ".json" in
  let observed = stream (Service.run ~workers:2 ~status_out:path spec) in
  List.iter Sys.remove [ path; path ^ ".prom" ];
  check_string "stream unchanged under observation" plain observed;
  check_string "matches in-process too"
    (Campaign.jsonl_string (Campaign.run ~workers:1 spec))
    plain

(* ------------------------------------------------------------------ *)
(* status-file atomicity under a concurrent reader *)

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
(* the campaign_* series, pinned byte for byte *)

(* Fixed campaigns whose cells reach every campaign_* series: a chaos
   RealAA grid (passed and excused grades, crashes, drops, watchdog
   violations, the spread gauge), a gradecast wedge at t >= n/3
   (violated grades), an async grid under delay/duplicate/omission
   (liveness timeouts, delivery-event round counts past the last finite
   bucket) and a task that failed to instantiate. *)
let golden_cells () =
  let base =
    {
      Campaign.Spec.name = "metrics-golden";
      protocol = Campaign.Spec.Real_aa { eps = 1. };
      tree = Campaign.Spec.Any_tree;
      n = Campaign.Spec.Between (4, 13);
      t_budget = Campaign.Spec.Up_to_third;
      inputs = Campaign.Spec.Linspace_reals 100.;
      adversary = Campaign.Spec.Any_real_adversary;
      faults = Campaign.Spec.Chaos { intensity = 0.8 };
      watchdogs = true;
      repetitions = 50;
      base_seed = 1;
    }
  in
  let plan =
    match Fault_plan_io.parse "delay:0.3:40;duplicate:0.1;omission:0.05" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let specs =
    [
      base;
      {
        base with
        protocol = Campaign.Spec.Path_aa;
        tree = Campaign.Spec.Path_tree (Campaign.Spec.Exactly 7);
        n = Campaign.Spec.Exactly 7;
        t_budget = Campaign.Spec.Fixed_t 3;
        inputs = Campaign.Spec.Random_vertices;
        adversary = Campaign.Spec.Gradecast_wedge;
        faults = Campaign.Spec.No_faults;
        repetitions = 4;
        base_seed = 3;
      };
      {
        base with
        protocol = Campaign.Spec.Async_tree_aa;
        n = Campaign.Spec.Between (4, 8);
        inputs = Campaign.Spec.Random_vertices;
        adversary = Campaign.Spec.Passive;
        faults = Campaign.Spec.Fault_plan plan;
        watchdogs = false;
        repetitions = 6;
        base_seed = 6;
      };
    ]
  in
  let runs = List.map (fun s -> Campaign.run ~workers:1 s) specs in
  let failed =
    { Campaign.task = 0; task_seed = 0; result = Error "Failure(\"pinned\")" }
  in
  {
    (List.hd runs) with
    Campaign.results =
      Array.concat (List.map (fun r -> r.Campaign.results) runs @ [ [| failed |] ]);
  }

let test_campaign_series_golden () =
  let path = Filename.temp_file "aat-golden" ".json" in
  Service.write_status ~path (golden_cells ());
  let is_campaign = String.starts_with ~prefix:"campaign_" in
  let series =
    match Json.of_string (String.trim (read_file path)) with
    | Error e -> Alcotest.fail ("status: " ^ e)
    | Ok j -> (
        match
          Option.bind (Json.member "metrics" j) (fun m ->
              Option.bind (Json.member "series" m) Json.to_list)
        with
        | Some items ->
            List.filter
              (fun s ->
                match Option.bind (Json.member "name" s) Json.to_str with
                | Some name -> is_campaign name
                | None -> false)
              items
        | None -> Alcotest.fail "status file carries no metric series")
  in
  let prom =
    String.split_on_char '\n' (read_file (path ^ ".prom"))
    |> List.filter (fun l ->
           is_campaign l || String.starts_with ~prefix:"# TYPE campaign_" l)
  in
  Sys.remove path;
  Sys.remove (path ^ ".prom");
  (* the pin means something only if the campaigns reach every series *)
  List.iter
    (fun needle ->
      check ("covers " ^ needle) true
        (List.exists (String.starts_with ~prefix:needle) prom))
    [
      "campaign_adversary_messages_total ";
      "campaign_cell_errors_total 1";
      "campaign_cells_total ";
      "campaign_faults_injected_total{kind=\"crashed\"}";
      "campaign_faults_injected_total{kind=\"delayed\"}";
      "campaign_faults_injected_total{kind=\"dropped\"}";
      "campaign_faults_injected_total{kind=\"duplicated\"}";
      "campaign_grades_total{grade=\"excused\"}";
      "campaign_grades_total{grade=\"passed\"}";
      "campaign_grades_total{grade=\"violated\"}";
      "campaign_honest_messages_total ";
      "campaign_rounds_total ";
      "campaign_spread_max ";
      "campaign_statuses_total{status=\"completed\"}";
      "campaign_statuses_total{status=\"engine-error\"} 1";
      "campaign_statuses_total{status=\"liveness-timeout\"}";
      "campaign_watchdog_violations_total ";
    ];
  let overflow =
    List.exists
      (fun s ->
        Option.bind (Json.member "name" s) Json.to_str = Some "campaign_rounds_used"
        && Option.bind (Json.member "overflow" s) Json.to_int <> Some 0)
      series
  in
  check "a cell lands in the +Inf bucket" true overflow;
  let md5 s = Digest.to_hex (Digest.string s) in
  check_string "campaign series JSON md5" "8af17f405946d85116a1190f63ebe754"
    (md5 (Json.to_string (Json.Arr series)));
  check_string "campaign series Prometheus md5" "cf6f33003e9430d7111feb78d6db0788"
    (md5 (String.concat "\n" prom))

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
          Alcotest.test_case "campaign basics" `Quick test_campaign_basics;
          Alcotest.test_case "order independence" `Quick test_order_independence;
          QCheck_alcotest.to_alcotest campaign_fold;
          Alcotest.test_case "null tracer" `Quick test_null_tracer;
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
          Alcotest.test_case "campaign series golden" `Quick
            test_campaign_series_golden;
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

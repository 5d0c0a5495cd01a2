(* The experiment harness: regenerates every table of EXPERIMENTS.md (the
   quantitative claims of the paper — see DESIGN.md section 4) and hosts the
   Bechamel micro-benchmarks. The tables themselves live in
   Aat_bench_tables (shared with `treeaa bench check`); this executable
   adds the file writing, profiling, the convergence-series export and the
   Bechamel suite.

   Usage:
     dune exec bench/main.exe                 # all tables + micro-benchmarks
     dune exec bench/main.exe -- --table E3   # one table
     dune exec bench/main.exe -- --bechamel   # micro-benchmarks only
     dune exec bench/main.exe -- --all        # tables + micro-benchmarks
     dune exec bench/main.exe -- --convergence [FILE]
                                              # per-round convergence JSON

   Flags (anywhere on the line):
     --workers N   fan parallel tables over N domains (numbers unchanged)
     --json-out    also write each table group as BENCH_<NAME>.json (cwd)
     --profile     per-table wall-clock / allocation summary at the end *)

open Treeagree
module Tables = Aat_bench_tables

let print_table = Tables.print_table

(* ------------------------------------------------------------------ *)
(* convergence series: per-round honest-hull diameter via the telemetry
   stats sink, exported as JSON for offline plotting (EXPERIMENTS.md) *)

let convergence out_file =
  let series = ref [] in
  let add name tree_kind stats =
    series := (name, tree_kind, Telemetry.Stats.convergence stats) :: !series
  in
  (* RealAA under the spoiler: the Lemma 5 contraction, round by round *)
  List.iter
    (fun (n, t, d) ->
      let inputs =
        Array.init n (fun i -> d *. float_of_int i /. float_of_int (n - 1))
      in
      let iterations = Rounds.bdh_iterations ~range:d ~eps:1. in
      let stats = Telemetry.Stats.create () in
      ignore
        (Engine.run ~n ~t ~seed:1
           ~max_rounds:(3 * iterations)
           ~telemetry:(Telemetry.Stats.sink stats)
           ~observe:Real_aa.observe
           ~protocol:
             (Real_aa.protocol ~inputs:(fun i -> inputs.(i)) ~t ~iterations ())
           ~adversary:(Spoiler.realaa_spoiler ~t ~iterations)
           ());
      add
        (Printf.sprintf "realaa-n%d-t%d-d%.0e-spoiler" n t d)
        "real-line" stats)
    [ (10, 3, 1e3); (10, 3, 1e6); (16, 5, 1e6) ];
  (* TreeAA across families: phase-2 path-index spread per round *)
  let n = 10 and t = 3 in
  List.iter
    (fun (family, tree) ->
      let rng = Rng.create 7 in
      let inputs = Array.init n (fun _ -> Rng.int rng (Tree.n_vertices tree)) in
      let stats = Telemetry.Stats.create () in
      ignore
        (Tree_aa.run ~tree ~inputs ~t
           ~telemetry:(Telemetry.Stats.sink stats)
           ~adversary:(Tables.spoiler_for_tree ~tree ~t)
           ());
      add (Printf.sprintf "treeaa-%s-spoiler" family) family stats)
    [
      ("path-1000", Generate.path 1_000);
      ("star-1000", Generate.star 1_000);
      ("caterpillar-500x3", Generate.caterpillar ~spine:500 ~legs:3);
      ("balanced-2ary-12", Generate.balanced ~arity:2 ~depth:12);
    ];
  let json =
    Telemetry.Json.Obj
      [
        ("schema", Telemetry.Json.Str "treeagree-convergence/v1");
        ( "series",
          Telemetry.Json.Arr
            (List.rev_map
               (fun (name, tree_kind, points) ->
                 Telemetry.Json.Obj
                   [
                     ("name", Telemetry.Json.Str name);
                     ("space", Telemetry.Json.Str tree_kind);
                     ( "points",
                       Telemetry.Json.Arr
                         (List.map
                            (fun (round, spread) ->
                              Telemetry.Json.Arr
                                [
                                  Telemetry.Json.Num (float_of_int round);
                                  Telemetry.Json.Num spread;
                                ])
                            points) );
                   ])
               !series) );
      ]
  in
  let emit oc = output_string oc (Telemetry.Json.to_string json ^ "\n") in
  match out_file with
  | None -> emit stdout
  | Some path ->
      let oc = open_out path in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> emit oc);
      Printf.printf "convergence series written to %s\n" path

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks *)

let bechamel () =
  let open Bechamel in
  let path10k = Generate.path 10_000 in
  let rooted10k = Rooted.make path10k in
  let tour10k = Euler_tour.compute rooted10k in
  let lca10k = Lca.build tour10k in
  let random1k = Generate.random (Rng.create 9) 1_000 in
  let rooted1k = Rooted.make random1k in
  let generators = List.init 20 (fun i -> i * 37 mod 1_000) in
  let small_tree = Generate.caterpillar ~spine:30 ~legs:2 in
  let small_inputs =
    Array.init 7 (fun i -> i * 11 mod Tree.n_vertices small_tree)
  in
  let tests =
    Test.make_grouped ~name:"treeagree"
      [
        Test.make ~name:"euler-tour-10k"
          (Staged.stage (fun () -> ignore (Euler_tour.compute rooted10k)));
        Test.make ~name:"lca-build-10k"
          (Staged.stage (fun () -> ignore (Lca.build tour10k)));
        Test.make ~name:"lca-query"
          (Staged.stage (fun () -> ignore (Lca.query lca10k 137 9_221)));
        Test.make ~name:"hull-1k-20gen"
          (Staged.stage (fun () -> ignore (Convex_hull.compute rooted1k generators)));
        Test.make ~name:"diameter-10k"
          (Staged.stage (fun () -> ignore (Metrics.diameter path10k)));
        Test.make ~name:"fekete-min-rounds"
          (Staged.stage (fun () ->
               ignore (Fekete.min_rounds ~n:100 ~t:33 ~d:1e9 ~eps:1.)));
        Test.make ~name:"tree-aa-run-7p"
          (Staged.stage (fun () ->
               ignore
                 (Tree_aa.run ~tree:small_tree ~inputs:small_inputs ~t:2
                    ~adversary:(Adversary.passive "none") ())));
      ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name res acc ->
        match Analyze.OLS.estimates res with
        | Some [ est ] ->
            [ name; Printf.sprintf "%.0f" est; Printf.sprintf "%.3f" (est /. 1e6) ]
            :: acc
        | _ -> [ name; "?"; "?" ] :: acc)
      results []
    |> List.sort compare
  in
  print_table ~title:"Micro-benchmarks (Bechamel, monotonic clock)"
    ~header:[ "benchmark"; "ns/run"; "ms/run" ]
    rows

(* ------------------------------------------------------------------ *)

let write_json_table ~name ~profile tables_captured =
  let path = Printf.sprintf "BENCH_%s.json" name in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Tables.render_group ~name ~profile tables_captured));
  Printf.printf "table group %s written to %s\n" name path

(* Run one table group under the capture/measurement harness. Returns its
   profile row; cost numbers are measurements, so committed BENCH files
   are regenerated without --profile. *)
let run_table ~json_out ~profile (name, f) =
  let t0 = Unix.gettimeofday () in
  let a0 = Gc.allocated_bytes () in
  let tables_captured = Tables.run_captured ~capture:json_out f in
  let wall_s = Unix.gettimeofday () -. t0 in
  let alloc_mb = (Gc.allocated_bytes () -. a0) /. (1024. *. 1024.) in
  if json_out then
    write_json_table ~name
      ~profile:(if profile then Some (wall_s, alloc_mb) else None)
      tables_captured;
  (name, wall_s, alloc_mb)

let print_profile rows =
  print_table ~title:"Table cost profile (--profile; wall clock, GC)"
    ~header:[ "table"; "wall s"; "alloc MB" ]
    (List.map
       (fun (name, wall_s, alloc_mb) ->
         [ name; Printf.sprintf "%.2f" wall_s; Printf.sprintf "%.1f" alloc_mb ])
       rows)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  (* --workers N / --json-out / --profile may appear anywhere; none of
     them affects a single digit of the tables (the parallel tables run
     on the deterministic Pool; capture and measurement only observe). *)
  let rec extract_opt name acc = function
    | flag :: n :: rest when flag = name -> (
        match Codec.parse Codec.int n with
        | Ok n -> (Some n, List.rev_append acc rest)
        | Error m ->
            Printf.eprintf "bad %s: %s\n" name m;
            exit 1)
    | x :: rest -> extract_opt name (x :: acc) rest
    | [] -> (None, List.rev acc)
  in
  let extract_flag name args =
    (List.mem name args, List.filter (fun a -> a <> name) args)
  in
  let workers, args = extract_opt "--workers" [] args in
  let workers = Option.value workers ~default:1 in
  let workers = if workers <= 0 then Pool.default_workers () else workers in
  (* --distributed N: campaign-backed tables (E-CHAOS) run on N service
     worker processes instead of in-process domains; every digit stays
     the same. *)
  let distributed_n, args = extract_opt "--distributed" [] args in
  let workers, distributed =
    match distributed_n with
    | Some w -> ((if w <= 0 then Pool.default_workers () else w), true)
    | None -> (workers, false)
  in
  let json_out, args = extract_flag "--json-out" args in
  let profile, args = extract_flag "--profile" args in
  let tables = Tables.tables ~workers ~distributed in
  let run = run_table ~json_out ~profile in
  match args with
  | [ "--bechamel" ] -> bechamel ()
  | [ "--convergence" ] -> convergence None
  | [ "--convergence"; file ] -> convergence (Some file)
  | [ "--table"; name ] -> (
      match List.assoc_opt (String.uppercase_ascii name) tables with
      | Some f ->
          let row = run (String.uppercase_ascii name, f) in
          if profile then print_profile [ row ]
      | None ->
          Printf.eprintf "unknown table %s (have: %s)\n" name
            (String.concat ", " (List.map fst tables));
          exit 1)
  | [ "--all" ] | [] ->
      let rows = List.map run tables in
      if profile then print_profile rows;
      bechamel ()
  | _ ->
      Printf.eprintf
        "usage: main.exe [--table E1..E10 | --bechamel | --convergence \
         [FILE] | --all] [--workers N] [--distributed N] [--json-out] \
         [--profile]\n";
      exit 1

(* The experiment harness: regenerates every table of EXPERIMENTS.md (the
   quantitative claims of the paper — see DESIGN.md section 4). The tables
   themselves live in Aat_bench_tables (shared with `treeaa bench check`);
   this executable adds the file writing and the convergence-series export.
   Wall-clock cost is measured by the perfbench cost ledger, not here.

   Usage:
     dune exec bench/main.exe                 # all tables
     dune exec bench/main.exe -- --table E3   # one table
     dune exec bench/main.exe -- --all        # all tables
     dune exec bench/main.exe -- --convergence [FILE]
                                              # per-round convergence JSON

   Flags (anywhere on the line):
     --workers N   fan parallel tables over N domains (numbers unchanged)
     --json-out    also write each table group as BENCH_<NAME>.json (cwd) *)

open Treeagree
module Tables = Aat_bench_tables

(* ------------------------------------------------------------------ *)
(* convergence series: per-round honest-hull diameter via the telemetry
   stats sink, exported as JSON for offline plotting (EXPERIMENTS.md) *)

let convergence out_file =
  let series = ref [] in
  let add name tree_kind stats =
    series :=
      (name, tree_kind, Trace.convergence (Trace.of_stats stats)) :: !series
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
           ~adversary:(Campaign.tree_spoiler ~tree ~t)
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

(* Run one table group under the capture harness; with --json-out, write
   it as BENCH_<NAME>.json. *)
let run_table ~json_out (name, f) =
  let tables_captured = Tables.run_captured ~capture:json_out f in
  if json_out then begin
    let path = Printf.sprintf "BENCH_%s.json" name in
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (Tables.render_group ~name tables_captured));
    Printf.printf "table group %s written to %s\n" name path
  end

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  (* --workers N / --json-out may appear anywhere; neither affects a
     single digit of the tables (the parallel tables run on the
     deterministic Pool; capture only observes). *)
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
  let tables = Tables.tables ~workers ~distributed in
  let run = run_table ~json_out in
  match args with
  | [ "--convergence" ] -> convergence None
  | [ "--convergence"; file ] -> convergence (Some file)
  | [ "--table"; name ] -> (
      match List.assoc_opt (String.uppercase_ascii name) tables with
      | Some f -> run (String.uppercase_ascii name, f)
      | None ->
          Printf.eprintf "unknown table %s (have: %s)\n" name
            (String.concat ", " (List.map fst tables));
          exit 1)
  | [ "--all" ] | [] -> List.iter run tables
  | _ ->
      Printf.eprintf
        "usage: main.exe [--table E1..E10 | --convergence [FILE] | --all] \
         [--workers N] [--distributed N] [--json-out]\n";
      exit 1

(* Edge-case sweep across the protocol stack: minimal configurations,
   degenerate inputs, and cross-protocol consistency properties. *)

open Aat_tree
open Aat_engine
open Aat_treeaa
open Aat_realaa
module Report = Aat_runtime.Report
module LT = Labeled_tree
module Strategies = Aat_adversary.Strategies
module Rng = Aat_util.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let tree_verdict ~tree inputs (report : (_, _) Sync_engine.report) =
  let initially = Report.initially_corrupted report in
  let hull_inputs =
    Array.to_list (Array.mapi (fun i x -> (i, x)) inputs)
    |> List.filter_map (fun (i, x) ->
           if List.mem i initially then None else Some x)
  in
  Tree_verdict.check ~tree
    ~n_honest:(Array.length inputs - List.length report.corrupted)
    ~honest_inputs:hull_inputs
    ~honest_outputs:(Report.honest_outputs report)

(* --- minimal configurations --- *)

let test_tree_aa_minimal_n4_t1 () =
  let tree = Generate.path 30 in
  let inputs = [| 0; 29; 10; 20 |] in
  let report =
    Tree_aa.run ~tree ~inputs ~t:1 ~adversary:(Strategies.silent ~victims:[ 3 ]) ()
  in
  check "verdict" true (Verdict.all_ok (tree_verdict ~tree inputs report))

let test_tree_aa_t_zero () =
  let tree = Generate.random (Rng.create 5) 25 in
  let inputs = [| 3; 17; 9 |] in
  let report = Tree_aa.run ~tree ~inputs ~t:0 ~adversary:(Adversary.passive "none") () in
  check "verdict" true (Verdict.all_ok (tree_verdict ~tree inputs report))

let test_tree_aa_single_party () =
  let tree = Generate.path 10 in
  let report =
    Tree_aa.run ~tree ~inputs:[| 7 |] ~t:0 ~adversary:(Adversary.passive "none") ()
  in
  (* one party: output must be its own input (validity with a single honest
     input pins the hull to {7}) *)
  Alcotest.(check (list int)) "own input" [ 7 ] (Report.honest_outputs report)

let test_tree_aa_identical_inputs () =
  (* all honest parties hold the same vertex: the hull is a single vertex,
     so every output must be exactly it *)
  let tree = Generate.caterpillar ~spine:10 ~legs:2 in
  let inputs = Array.make 7 13 in
  let report =
    Tree_aa.run ~tree ~inputs ~t:2 ~adversary:(Strategies.silent ~victims:[ 5; 6 ]) ()
  in
  List.iter
    (fun o -> check_int "pinned" 13 o)
    (Report.honest_outputs report);
  check "verdict" true (Verdict.all_ok (tree_verdict ~tree inputs report))

let test_tree_aa_adjacent_inputs () =
  (* honest inputs already 1-close: outputs must stay within their hull
     (the two vertices) *)
  let tree = Generate.path 50 in
  let inputs = [| 20; 21; 20; 21; 20; 0; 49 |] in
  let report =
    Tree_aa.run ~tree ~inputs ~t:2 ~adversary:(Strategies.silent ~victims:[ 5; 6 ]) ()
  in
  List.iter
    (fun o -> check "within the edge" true (o = 20 || o = 21))
    (Report.honest_outputs report)

let test_path_aa_two_vertices () =
  let path = Generate.path 2 in
  let inputs = [| 0; 1; 0; 1 |] in
  let protocol = Path_aa.protocol ~path ~inputs:(fun i -> inputs.(i)) ~t:1 in
  let report =
    Sync_engine.run ~n:4 ~t:1 ~max_rounds:(max 1 (Path_aa.rounds ~path))
      ~protocol ~adversary:(Adversary.passive "none") ()
  in
  check "verdict" true (Verdict.all_ok (tree_verdict ~tree:path inputs report))

let test_paths_finder_identical_inputs () =
  (* all honest hold v: RealAA returns exactly v's index, so every path is
     exactly P(root, v) *)
  let tree = Generate.balanced ~arity:2 ~depth:3 in
  let target = 11 in
  let inputs = Array.make 7 target in
  let rooted = Rooted.make tree in
  let protocol =
    Paths_finder.protocol ~rooted ~inputs:(fun i -> inputs.(i)) ~t:2
  in
  let report =
    Sync_engine.run ~n:7 ~t:2
      ~max_rounds:(max 1 (Paths_finder.rounds ~tree))
      ~protocol
      ~adversary:(Strategies.silent ~victims:[ 5; 6 ])
      ()
  in
  let expected = Array.of_list (Rooted.path_to_root rooted target) in
  List.iter
    (fun p -> check "exact path" true (p = expected))
    (Report.honest_outputs report)

(* --- engine corner cases --- *)

let test_engine_n1 () =
  let tree = LT.singleton "x" in
  let report =
    Tree_aa.run ~tree ~inputs:[| 0 |] ~t:0 ~adversary:(Adversary.passive "none") ()
  in
  check_int "instant" 0 report.rounds_used

let test_gradecast_all_leaders_simultaneously () =
  (* n parallel instances in one Multi: each leader's value lands at grade 2
     everywhere when all are honest *)
  let n = 6 and t = 1 in
  let protocol leader =
    Aat_gradecast.Gradecast.protocol ~leader
      ~inputs:(fun i -> float_of_int (i * i))
      ~t
  in
  List.iter
    (fun leader ->
      let report =
        Sync_engine.run ~n ~t ~max_rounds:3 ~protocol:(protocol leader)
          ~adversary:(Adversary.passive "none") ()
      in
      List.iter
        (fun (r : float Aat_gradecast.Gradecast.result) ->
          check "grade 2" true (r.grade = Aat_gradecast.Gradecast.G2);
          check "value" true (r.value = Some (float_of_int (leader * leader))))
        (Report.honest_outputs report))
    [ 0; 3; 5 ]

(* --- trim / mean properties --- *)

let prop_trimmed_mean_within_trimmed_range =
  QCheck2.Test.make ~name:"trimmed mean inside trimmed range" ~count:300
    QCheck2.Gen.(
      pair (list_size (int_range 5 25) (float_bound_inclusive 100.)) (int_range 0 3))
    (fun (values, t) ->
      QCheck2.assume (List.length values > 2 * t);
      match (Trim.trimmed_mean ~t values, Trim.range (Trim.trimmed ~t values)) with
      | Some m, Some (lo, hi) -> m >= lo -. 1e-9 && m <= hi +. 1e-9
      | _ -> false)

let prop_mean_midpoint_agree_on_pairs =
  QCheck2.Test.make ~name:"mean = midpoint on 2-element windows" ~count:200
    QCheck2.Gen.(pair (float_bound_inclusive 50.) (float_bound_inclusive 50.))
    (fun (a, b) ->
      Trim.mean [ a; b ] = Trim.midpoint [ a; b ])

(* --- cross-protocol consistency: all four tree protocols agree with the
   spec on the same instance --- *)

let prop_all_protocols_valid_on_same_instance =
  QCheck2.Test.make ~name:"TreeAA and NR baseline both satisfy Definition 2"
    ~count:25
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 3 30))
    (fun (seed, nv) ->
      let rng = Rng.create seed in
      let tree = Generate.random rng nv in
      let inputs = Array.init 7 (fun _ -> Rng.int rng nv) in
      let r1 =
        Tree_aa.run ~seed ~tree ~inputs ~t:2
          ~adversary:(Strategies.random_silent ~count:2) ()
      in
      let r2 =
        Nr_baseline.run ~seed ~tree ~inputs ~t:2
          ~adversary:(Strategies.random_silent ~count:2) ()
      in
      Verdict.all_ok (tree_verdict ~tree inputs r1)
      && Verdict.all_ok (tree_verdict ~tree inputs r2))

(* --- rounds formulas: cross-consistency of paths_finder and tree_aa --- *)

let test_rounds_consistency () =
  List.iter
    (fun nv ->
      let tree = Generate.path nv in
      let d = Metrics.diameter tree in
      check "TreeAA = barrier + phase2" true
        (Tree_aa.rounds ~tree
        = max 1 (Paths_finder.rounds ~tree)
          + Rounds.bdh_rounds ~range:(float_of_int d) ~eps:1.))
    [ 3; 10; 100; 1000 ];
  (* trivial trees: 0 rounds *)
  check_int "singleton" 0 (Tree_aa.rounds ~tree:(LT.singleton "x"));
  check_int "edge" 0 (Tree_aa.rounds ~tree:(Generate.path 2))

(* --- the simple projection wrappers --- *)
let test_simple_wrappers () =
  let values = [| 0.; 10.; 20.; 30. |] in
  let report =
    Sync_engine.run ~n:4 ~t:1 ~max_rounds:6
      ~protocol:(Bdh.simple ~inputs:(fun i -> values.(i)) ~t:1 ~iterations:2)
      ~adversary:(Adversary.passive "none") ()
  in
  check "bdh simple outputs floats in range" true
    (List.for_all (fun v -> v >= 0. && v <= 30.) (Report.honest_outputs report));
  let report2 =
    Sync_engine.run ~n:4 ~t:1 ~max_rounds:5
      ~protocol:
        (Iterated_midpoint.naive_simple ~inputs:(fun i -> values.(i)) ~t:1
           ~iterations:5)
      ~adversary:(Adversary.passive "none") ()
  in
  check "naive simple converges" true
    (Verdict.spread (Report.honest_outputs report2) <= 30. /. 32.)

(* --- gradecast-based midpoint baseline at the resilience boundary --- *)

let test_gc_midpoint_wedge_boundary () =
  let n = 6 and t = 2 in
  let values = [| 0.; 0.; 64.; 64.; 0.; 64. |] in
  let report =
    Sync_engine.run ~n ~t ~max_rounds:60
      ~protocol:
        (Iterated_midpoint.with_gradecast
           ~inputs:(fun i -> values.(i))
           ~t ~iterations:10)
      ~adversary:(Aat_adversary.Wedge.gradecast_wedge ())
      ()
  in
  let outputs =
    List.map
      (fun (r : Iterated_midpoint.result) -> r.value)
      (Report.honest_outputs report)
  in
  check "broken at n=3t" true (Verdict.spread outputs > 1.)

(* --- Path AA and known-path AA agree on path input spaces --- *)

let prop_path_aa_matches_known_path =
  QCheck2.Test.make
    ~name:"Path AA = known-path AA when the tree is its own path" ~count:30
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 3 60))
    (fun (seed, k) ->
      let path_tree = Generate.path k in
      let rng = Rng.create seed in
      let inputs = Array.init 7 (fun _ -> Rng.int rng k) in
      let full_path = Path_aa.canonical_order path_tree in
      let run protocol =
        Sync_engine.run ~n:7 ~t:2 ~seed
          ~max_rounds:(max 1 (Path_aa.rounds ~path:path_tree))
          ~protocol
          ~adversary:(Strategies.silent ~victims:[ 5; 6 ])
          ()
      in
      let r1 = run (Path_aa.protocol ~path:path_tree ~inputs:(fun i -> inputs.(i)) ~t:2) in
      let r2 =
        run
          (Known_path_aa.protocol ~tree:path_tree ~path:full_path
             ~inputs:(fun i -> inputs.(i))
             ~t:2)
      in
      (* On a path, projection is the identity, so the two protocols run the
         same RealAA instance and must output identically. *)
      Report.honest_outputs r1 = Report.honest_outputs r2)

let () =
  Alcotest.run "edge-cases"
    [
      ( "minimal-configs",
        [
          Alcotest.test_case "n=4 t=1" `Quick test_tree_aa_minimal_n4_t1;
          Alcotest.test_case "t=0" `Quick test_tree_aa_t_zero;
          Alcotest.test_case "single party" `Quick test_tree_aa_single_party;
          Alcotest.test_case "identical inputs" `Quick
            test_tree_aa_identical_inputs;
          Alcotest.test_case "adjacent inputs" `Quick
            test_tree_aa_adjacent_inputs;
          Alcotest.test_case "2-vertex path AA" `Quick test_path_aa_two_vertices;
          Alcotest.test_case "PathsFinder identical inputs" `Quick
            test_paths_finder_identical_inputs;
          Alcotest.test_case "n=1" `Quick test_engine_n1;
          Alcotest.test_case "gradecast all leaders" `Quick
            test_gradecast_all_leaders_simultaneously;
        ] );
      ( "numeric-properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_trimmed_mean_within_trimmed_range;
            prop_mean_midpoint_agree_on_pairs;
            prop_all_protocols_valid_on_same_instance;
          ] );
      ( "boundaries",
        [
          Alcotest.test_case "gradecast midpoint wedge at n=3t" `Quick
            test_gc_midpoint_wedge_boundary;
          QCheck_alcotest.to_alcotest prop_path_aa_matches_known_path;
        ] );
      ( "wrappers",
        [ Alcotest.test_case "simple projections" `Quick test_simple_wrappers ] );
      ( "schedules",
        [ Alcotest.test_case "rounds consistency" `Quick test_rounds_consistency ] );
    ]

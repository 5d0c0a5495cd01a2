(* Tests for the paper's protocols on trees: Path AA (§4), known-path AA
   (§5), PathsFinder (§6, Lemma 4), TreeAA (§7, Theorem 4), and the
   Nowak-Rybicki-style baseline. *)

open Aat_tree
open Aat_engine
open Aat_treeaa
module Report = Aat_runtime.Report
module LT = Labeled_tree
module Strategies = Aat_adversary.Strategies
module Spoiler = Aat_adversary.Spoiler
module Compose = Aat_adversary.Compose
module Rng = Aat_util.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let fig3 () =
  LT.of_labeled_edges
    [
      ("v1", "v2"); ("v2", "v3"); ("v3", "v6"); ("v3", "v7");
      ("v2", "v4"); ("v4", "v8"); ("v2", "v5");
    ]

let v t l = LT.vertex_of_label t l

(* Validity's hull is over *initially*-honest inputs (a party corrupted
   adaptively mid-run contributed its input while honest — see
   Report.initially_corrupted); Termination and Agreement quantify over
   finally-honest parties. *)
let honest_io inputs (report : (_, _) Sync_engine.report) =
  let initially = Report.initially_corrupted report in
  let hull_inputs =
    Array.to_list (Array.mapi (fun i x -> (i, x)) inputs)
    |> List.filter_map (fun (i, x) ->
           if List.mem i initially then None else Some x)
  in
  (hull_inputs, Report.honest_outputs report)

let tree_verdict ~tree inputs (report : (_, _) Sync_engine.report) =
  let hull_inputs, honest_outputs = honest_io inputs report in
  let n_honest = Array.length inputs - List.length report.corrupted in
  Tree_verdict.check ~tree ~n_honest ~honest_inputs:hull_inputs ~honest_outputs

(* --- Tree_verdict itself --- *)

let test_verdict_detects_violations () =
  let tree = fig3 () in
  let ok =
    Tree_verdict.check ~tree ~n_honest:2
      ~honest_inputs:[ v tree "v6"; v tree "v7" ]
      ~honest_outputs:[ v tree "v3"; v tree "v6" ]
  in
  check "valid run" true (Verdict.all_ok ok);
  let invalid =
    Tree_verdict.check ~tree ~n_honest:2
      ~honest_inputs:[ v tree "v6"; v tree "v7" ]
      ~honest_outputs:[ v tree "v5"; v tree "v6" ]
  in
  check "validity caught" false invalid.validity;
  let split =
    Tree_verdict.check ~tree ~n_honest:2
      ~honest_inputs:[ v tree "v6"; v tree "v5" ]
      ~honest_outputs:[ v tree "v6"; v tree "v5" ]
  in
  check "1-agreement caught" false split.agreement;
  let missing =
    Tree_verdict.check ~tree ~n_honest:3
      ~honest_inputs:[ v tree "v6"; v tree "v7"; v tree "v3" ]
      ~honest_outputs:[ v tree "v3"; v tree "v3" ]
  in
  check "termination caught" false missing.termination

let test_output_diameter () =
  let tree = fig3 () in
  check_int "diam" 4
    (Tree_verdict.output_diameter ~tree [ v tree "v6"; v tree "v8"; v tree "v2" ]);
  check_int "single" 0 (Tree_verdict.output_diameter ~tree [ v tree "v6" ]);
  check_int "empty" 0 (Tree_verdict.output_diameter ~tree [])

(* --- Path AA (§4) --- *)

let test_path_aa_fault_free () =
  let path = Generate.path 20 in
  let inputs = [| 0; 19; 5; 12; 7; 3; 16 |] in
  let protocol = Path_aa.protocol ~path ~inputs:(fun i -> inputs.(i)) ~t:2 in
  let report =
    Sync_engine.run ~n:7 ~t:2
      ~max_rounds:(Path_aa.rounds ~path)
      ~protocol ~adversary:(Adversary.passive "none") ()
  in
  check "verdict" true (Verdict.all_ok (tree_verdict ~tree:path inputs report));
  check_int "schedule" (Path_aa.rounds ~path) report.rounds_used

let test_path_aa_with_byz () =
  let path = Generate.path 50 in
  let inputs = [| 0; 49; 10; 30; 25; 42; 3 |] in
  let protocol = Path_aa.protocol ~path ~inputs:(fun i -> inputs.(i)) ~t:2 in
  let report =
    Sync_engine.run ~n:7 ~t:2
      ~max_rounds:(Path_aa.rounds ~path)
      ~protocol
      ~adversary:(Strategies.silent ~victims:[ 5; 6 ])
      ()
  in
  check "verdict" true (Verdict.all_ok (tree_verdict ~tree:path inputs report))

let test_path_aa_rejects_non_path () =
  check "star rejected" true
    (try
       ignore (Path_aa.protocol ~path:(Generate.star 5) ~inputs:(fun _ -> 0) ~t:1);
       false
     with Invalid_argument _ -> true)

let test_path_aa_canonical_order () =
  let path = Generate.path 5 in
  let order = Path_aa.canonical_order path in
  Alcotest.(check (list int)) "identity order" [ 0; 1; 2; 3; 4 ]
    (Array.to_list order)

(* --- Known-path AA (§5) --- *)

(* Figure 2's tree: spine v1..v8 with hairs to u1 (via x1), u2, u3 (via x2). *)
let fig2 () =
  LT.of_labeled_edges
    [
      ("v1", "v2"); ("v2", "v3"); ("v3", "v4"); ("v4", "v5");
      ("v5", "v6"); ("v6", "v7"); ("v7", "v8");
      ("v3", "x1"); ("x1", "u1"); ("v4", "u2"); ("v6", "x2"); ("x2", "u3");
    ]

let test_known_path_aa_fig2 () =
  let tree = fig2 () in
  let path = Array.map (v tree) [| "v1"; "v2"; "v3"; "v4"; "v5"; "v6"; "v7"; "v8" |] in
  (* honest inputs are u1, u2, u3 (projections v3, v4, v6); byz hold junk *)
  let inputs =
    [| v tree "u1"; v tree "u2"; v tree "u3"; v tree "v5"; v tree "u1";
       v tree "v8"; v tree "v8" |]
  in
  let protocol =
    Known_path_aa.protocol ~tree ~path ~inputs:(fun i -> inputs.(i)) ~t:2
  in
  let report =
    Sync_engine.run ~n:7 ~t:2
      ~max_rounds:(Known_path_aa.rounds ~path)
      ~protocol
      ~adversary:(Strategies.silent ~victims:[ 5; 6 ])
      ()
  in
  let verdict = tree_verdict ~tree inputs report in
  check "verdict" true (Verdict.all_ok verdict);
  (* outputs must lie on the path *)
  List.iter
    (fun o -> check "on path" true (Paths.mem path o))
    (Report.honest_outputs report)

let test_known_path_aa_rejects_non_path () =
  let tree = fig2 () in
  let bogus = [| v tree "v1"; v tree "v3" |] in
  check "rejected" true
    (try
       ignore (Known_path_aa.protocol ~tree ~path:bogus ~inputs:(fun _ -> 0) ~t:1);
       false
     with Invalid_argument _ -> true)

(* --- PathsFinder (§6): Lemma 4 --- *)

let paths_finder_outputs ~tree ~inputs ~t ~adversary =
  let protocol =
    Paths_finder.protocol ~rooted:(Rooted.make tree)
      ~inputs:(fun i -> inputs.(i)) ~t
  in
  let report =
    Sync_engine.run ~n:(Array.length inputs) ~t
      ~max_rounds:(max 1 (Paths_finder.rounds ~tree))
      ~protocol ~adversary ()
  in
  report

let lemma4_holds ~tree ~inputs (report : (Paths.path, _) Sync_engine.report) =
  let honest_inputs, paths = honest_io inputs report in
  let rooted = Rooted.make tree in
  let hull = Convex_hull.compute rooted honest_inputs in
  (* Property 1: every path intersects the hull. *)
  let prop1 =
    List.for_all (fun p -> Array.exists (Convex_hull.mem hull) p) paths
  in
  (* Property 2: all paths start at the root and are prefixes of the longest
     one, shorter by at most one vertex. *)
  let prop2 =
    let root = LT.root tree in
    let sorted = List.sort (fun a b -> compare (Array.length a) (Array.length b)) paths in
    match (sorted, List.rev sorted) with
    | [], _ | _, [] -> true
    | shortest :: _, longest :: _ ->
        Array.length longest - Array.length shortest <= 1
        && List.for_all
             (fun p ->
               Array.length p > 0 && p.(0) = root
               && Array.for_all Fun.id
                    (Array.mapi (fun i x -> longest.(i) = x) p))
             paths
  in
  prop1 && prop2

let test_paths_finder_fig3 () =
  let tree = fig3 () in
  (* the paper's §6 example: honest inputs v3, v6, v5 *)
  let inputs = [| v tree "v3"; v tree "v6"; v tree "v5"; v tree "v3";
                  v tree "v6"; v tree "v7"; v tree "v8" |] in
  let report =
    paths_finder_outputs ~tree ~inputs ~t:2
      ~adversary:(Strategies.silent ~victims:[ 5; 6 ])
  in
  check "Lemma 4" true (lemma4_holds ~tree ~inputs report)

let test_paths_finder_trivial_tree () =
  let tree = LT.singleton "root" in
  let inputs = [| 0; 0; 0; 0 |] in
  let report =
    paths_finder_outputs ~tree ~inputs ~t:1 ~adversary:(Adversary.passive "none")
  in
  List.iter
    (fun p -> check_int "root path" 1 (Array.length p))
    (Report.honest_outputs report)

(* --- TreeAA (§7): Theorem 4 --- *)

let test_tree_aa_fig3_fault_free () =
  let tree = fig3 () in
  let inputs = [| v tree "v3"; v tree "v6"; v tree "v5"; v tree "v8";
                  v tree "v1"; v tree "v7"; v tree "v4" |] in
  let report =
    Tree_aa.run ~tree ~inputs ~t:2 ~adversary:(Adversary.passive "none") ()
  in
  check "verdict" true (Verdict.all_ok (tree_verdict ~tree inputs report));
  check_int "exact schedule" (Tree_aa.rounds ~tree) report.rounds_used

let test_tree_aa_fig3_silent_byz () =
  let tree = fig3 () in
  let inputs = [| v tree "v3"; v tree "v6"; v tree "v5"; v tree "v8";
                  v tree "v1"; v tree "v7"; v tree "v4" |] in
  let report =
    Tree_aa.run ~tree ~inputs ~t:2
      ~adversary:(Strategies.silent ~victims:[ 5; 6 ])
      ()
  in
  check "verdict" true (Verdict.all_ok (tree_verdict ~tree inputs report))

let test_tree_aa_trivial_trees () =
  (* single vertex *)
  let tree1 = LT.singleton "x" in
  let report1 =
    Tree_aa.run ~tree:tree1 ~inputs:[| 0; 0; 0; 0 |] ~t:1
      ~adversary:(Adversary.passive "none") ()
  in
  check_int "no rounds" 0 report1.rounds_used;
  check "verdict" true
    (Verdict.all_ok (tree_verdict ~tree:tree1 [| 0; 0; 0; 0 |] report1));
  (* single edge: parties output own inputs, 1-close by construction *)
  let tree2 = Generate.path 2 in
  let inputs2 = [| 0; 1; 0; 1 |] in
  let report2 =
    Tree_aa.run ~tree:tree2 ~inputs:inputs2 ~t:1
      ~adversary:(Adversary.passive "none") ()
  in
  check_int "no rounds (edge)" 0 report2.rounds_used;
  check "verdict (edge)" true (Verdict.all_ok (tree_verdict ~tree:tree2 inputs2 report2))

let test_tree_aa_long_path () =
  let tree = Generate.path 200 in
  let inputs = [| 0; 199; 50; 120; 75; 30; 160 |] in
  let report =
    Tree_aa.run ~tree ~inputs ~t:2
      ~adversary:(Strategies.crash ~at_round:5 ~victims:[ 1; 4 ])
      ()
  in
  check "verdict" true (Verdict.all_ok (tree_verdict ~tree inputs report))

let test_tree_aa_star () =
  let tree = Generate.star 30 in
  let inputs = [| 1; 7; 13; 29; 2; 5; 11 |] in
  let report =
    Tree_aa.run ~tree ~inputs ~t:2
      ~adversary:(Strategies.silent ~victims:[ 0; 3 ])
      ()
  in
  check "verdict" true (Verdict.all_ok (tree_verdict ~tree inputs report))

let test_tree_aa_spoiler_both_phases () =
  let tree = Generate.caterpillar ~spine:20 ~legs:2 in
  let n = 10 and t = 3 in
  let nv = LT.n_vertices tree in
  let inputs = Array.init n (fun i -> (i * 13) mod nv) in
  let tour_len = (2 * nv) - 1 in
  let iter1 =
    Aat_realaa.Rounds.bdh_iterations ~range:(float_of_int (tour_len - 1)) ~eps:1.
  in
  let iter2 =
    Aat_realaa.Rounds.bdh_iterations
      ~range:(float_of_int (Metrics.diameter tree))
      ~eps:1.
  in
  let adversary =
    Compose.phased ~name:"spoiler-both"
      ~barrier:(max 1 (Paths_finder.rounds ~tree))
      ~first:(Spoiler.realaa_spoiler ~t ~iterations:iter1)
      ~second:(Spoiler.realaa_spoiler ~t ~iterations:iter2)
  in
  let report = Tree_aa.run ~tree ~inputs ~t ~adversary () in
  check "verdict under spoiler" true (Verdict.all_ok (tree_verdict ~tree inputs report))

let test_tree_aa_rounds_scaling () =
  (* Theorem 4: rounds grow like log|V|/loglog|V| — sanity: the schedule for
     10x more vertices grows by far less than 10x. *)
  let r1 = Tree_aa.rounds ~tree:(Generate.path 100) in
  let r2 = Tree_aa.rounds ~tree:(Generate.path 1000) in
  check "sublinear growth" true (r2 < 2 * r1);
  check "monotone" true (r2 >= r1)

(* --- NR baseline --- *)

let test_safe_vertices_path_matches_trim () =
  (* On a path, the safe set must be the [t+1 .. m-t]-th order statistics'
     span — exactly real-valued trimming. *)
  let tree = Generate.path 10 in
  let rooted = Rooted.make tree in
  let multiset = [ 0; 2; 2; 5; 7; 9; 9 ] in
  (* m = 7, t = 2: safe span = positions 2..7 of sorted multiset -> [2, 7] *)
  let safe = Nr_baseline.safe_vertices rooted ~t:2 multiset in
  Alcotest.(check (list int)) "safe interval" [ 2; 3; 4; 5; 6; 7 ] safe

let test_safe_vertices_star () =
  let tree = Generate.star 8 in
  let rooted = Rooted.make tree in
  (* all mass on distinct leaves: only the center is safe *)
  let safe = Nr_baseline.safe_vertices rooted ~t:2 [ 1; 2; 3; 4; 5; 6; 7 ] in
  Alcotest.(check (list int)) "center only" [ 0 ] safe;
  (* heavy single leaf: if one leaf holds >= m - t of the mass it is safe *)
  let safe2 = Nr_baseline.safe_vertices rooted ~t:2 [ 1; 1; 1; 1; 1; 2; 3 ] in
  check "heavy leaf safe" true (List.mem 1 safe2)

let test_safe_vertices_inside_honest_hull () =
  let tree = fig3 () in
  let rooted = Rooted.make tree in
  (* multiset = 5 honest in subtree of v2 + 2 byz at v6 *)
  let multiset =
    [ v tree "v5"; v tree "v5"; v tree "v8"; v tree "v8"; v tree "v4";
      v tree "v6"; v tree "v6" ]
  in
  let safe = Nr_baseline.safe_vertices rooted ~t:2 multiset in
  let hull =
    Convex_hull.compute rooted [ v tree "v5"; v tree "v8"; v tree "v4" ]
  in
  check "safe inside honest hull" true (List.for_all (Convex_hull.mem hull) safe)

let test_center_of () =
  let tree = Generate.path 10 in
  let rooted = Rooted.make tree in
  check_int "interval midpoint" 4 (Nr_baseline.center_of rooted [ 2; 3; 4; 5; 6 ]);
  check_int "pair" 2 (Nr_baseline.center_of rooted [ 2; 3 ]);
  check_int "singleton" 7 (Nr_baseline.center_of rooted [ 7 ])

let test_nr_baseline_converges () =
  let tree = Generate.path 100 in
  let inputs = [| 0; 99; 20; 60; 40; 10; 90 |] in
  let report =
    Nr_baseline.run ~tree ~inputs ~t:2
      ~adversary:(Strategies.silent ~victims:[ 5; 6 ])
      ()
  in
  check "verdict" true (Verdict.all_ok (tree_verdict ~tree inputs report))

let test_nr_baseline_on_fig3 () =
  let tree = fig3 () in
  let inputs = [| v tree "v3"; v tree "v6"; v tree "v5"; v tree "v8";
                  v tree "v1"; v tree "v7"; v tree "v4" |] in
  let report =
    Nr_baseline.run ~tree ~inputs ~t:2 ~adversary:(Adversary.passive "none") ()
  in
  check "verdict" true (Verdict.all_ok (tree_verdict ~tree inputs report))

let test_tree_aa_beats_nr_on_long_paths () =
  let tree = Generate.path 3000 in
  check "fewer rounds" true (Tree_aa.rounds ~tree < Nr_baseline.rounds ~tree)

(* --- per-cell setup cost --- *)

(* What a campaign cell does with its tree outside the rounds: generate
   it, size the schedule, build the protocol and grade 9 honest inputs and
   outputs. It costs 115-150 minor words per vertex when the tree is built
   once from vertex ids, the schedule is read from |V| and each of the
   protocol and the verdict roots the tree once; Printf labels, a label
   hash table and a rooting plus tour per schedule query take it to about
   440. Minor words only: from 129 vertices on, the tour's two 2n - 1 word
   arrays exceed the minor heap's 256-word limit and are not counted
   (4 words per vertex). *)
let test_setup_allocation () =
  let trees =
    [
      ("random 200", fun () -> Generate.random (Rng.create 1) 200);
      ("path 200", fun () -> Generate.path 200);
      ("star 200", fun () -> Generate.star 200);
      ("balanced 3:4", fun () -> Generate.balanced ~arity:3 ~depth:4);
      ("caterpillar 40:3", fun () -> Generate.caterpillar ~spine:40 ~legs:3);
      ("spider 8:20", fun () -> Generate.spider ~legs:8 ~leg_length:20);
    ]
  in
  List.iter
    (fun (name, generate) ->
      let before = Gc.minor_words () in
      let tree = generate () in
      let nv = LT.n_vertices tree in
      let vs = Array.init 9 (fun i -> i * (nv - 1) / 8) in
      ignore (Tree_aa.rounds ~tree);
      ignore (Tree_aa.protocol ~tree ~inputs:(fun i -> vs.(i)) ~t:2);
      let honest = Array.to_list vs in
      ignore
        (Tree_verdict.check ~tree ~n_honest:9 ~honest_inputs:honest
           ~honest_outputs:honest);
      let per_vertex = (Gc.minor_words () -. before) /. float_of_int nv in
      if per_vertex > 200. then
        Alcotest.failf "%s: %.1f minor words per vertex (bound 200)" name
          per_vertex)
    trees

(* --- per-letter cost of the rounds --- *)

(* Minor words per letter of a whole tree-aa run, n = 13 and t = 4 on
   star:9. Each letter is built once on its way: a broadcast is one
   [To_all] box, every layer reads its inbox in place through a view,
   the adversary's view lists the honest outbox only for a strategy that
   reads it, each party derives its phase-two protocol once, RealAA
   trims an unboxed float array, and the parties of a run share each
   round-3 vote and grading when their tables hold the same rows. That
   costs about 13.5 words per letter passive and 14.1 under the
   random-silent adversary, and 18.0 and 17.8 with every party counting
   round 3 itself. Without the share, rebuilding the phase-two protocol
   at every step took it to 21.1 and 21.4; rebuilding it, trimming
   boxed lists and listing the view for every adversary cost 28.3 and
   34.4; copying each outbox and inbox into lists at every layer as
   well cost 57 and 64. *)
let test_round_allocation () =
  let tree = Generate.star 9 in
  let inputs = Array.init 13 (fun i -> i mod 9) in
  List.iter
    (fun (name, adversary) ->
      let before = Gc.minor_words () in
      let report = Tree_aa.run ~seed:1 ~tree ~inputs ~t:4 ~adversary () in
      let words = Gc.minor_words () -. before in
      let letters =
        report.Report.honest_messages + report.Report.adversary_messages
      in
      let per_letter = words /. float_of_int letters in
      if per_letter > 16. then
        Alcotest.failf "%s: %.1f minor words per letter (bound 16)" name
          per_letter)
    [
      ("passive", Adversary.passive "none");
      ("random-silent", Strategies.random_silent ~count:4);
    ]

(* --- randomized end-to-end property --- *)

let prop_tree_aa_random =
  QCheck2.Test.make ~name:"TreeAA on random trees under assorted adversaries"
    ~count:60
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 2 60) (int_range 0 2))
    (fun (seed, nv, adv_class) ->
      let rng = Rng.create seed in
      let tree = Generate.random rng nv in
      let n = 7 and t = 2 in
      let inputs = Array.init n (fun _ -> Rng.int rng nv) in
      let adversary =
        match adv_class with
        | 0 -> Adversary.passive "none"
        | 1 -> Strategies.random_silent ~count:t
        | _ ->
            Strategies.crash
              ~at_round:(1 + Rng.int rng (max 1 (Tree_aa.rounds ~tree)))
              ~victims:[ 0; 3 ]
      in
      let report = Tree_aa.run ~seed ~tree ~inputs ~t ~adversary () in
      Verdict.all_ok (tree_verdict ~tree inputs report))

let prop_nr_baseline_random =
  QCheck2.Test.make ~name:"NR baseline on random trees" ~count:40
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 2 40))
    (fun (seed, nv) ->
      let rng = Rng.create seed in
      let tree = Generate.random rng nv in
      let n = 7 and t = 2 in
      let inputs = Array.init n (fun _ -> Rng.int rng nv) in
      let report =
        Nr_baseline.run ~seed ~tree ~inputs ~t
          ~adversary:(Strategies.random_silent ~count:t)
          ()
      in
      Verdict.all_ok (tree_verdict ~tree inputs report))

let () =
  Alcotest.run "treeaa"
    [
      ( "verdict",
        [
          Alcotest.test_case "violations detected" `Quick
            test_verdict_detects_violations;
          Alcotest.test_case "output diameter" `Quick test_output_diameter;
        ] );
      ( "path-aa",
        [
          Alcotest.test_case "fault free" `Quick test_path_aa_fault_free;
          Alcotest.test_case "with byz" `Quick test_path_aa_with_byz;
          Alcotest.test_case "rejects non-path" `Quick
            test_path_aa_rejects_non_path;
          Alcotest.test_case "canonical order" `Quick
            test_path_aa_canonical_order;
        ] );
      ( "known-path-aa",
        [
          Alcotest.test_case "figure 2 scenario" `Quick test_known_path_aa_fig2;
          Alcotest.test_case "rejects non-path" `Quick
            test_known_path_aa_rejects_non_path;
        ] );
      ( "paths-finder",
        [
          Alcotest.test_case "Lemma 4 on fig3" `Quick test_paths_finder_fig3;
          Alcotest.test_case "trivial tree" `Quick
            test_paths_finder_trivial_tree;
        ] );
      ( "tree-aa",
        [
          Alcotest.test_case "fig3 fault free" `Quick
            test_tree_aa_fig3_fault_free;
          Alcotest.test_case "fig3 silent byz" `Quick
            test_tree_aa_fig3_silent_byz;
          Alcotest.test_case "trivial trees" `Quick test_tree_aa_trivial_trees;
          Alcotest.test_case "long path" `Quick test_tree_aa_long_path;
          Alcotest.test_case "star" `Quick test_tree_aa_star;
          Alcotest.test_case "spoiler in both phases" `Quick
            test_tree_aa_spoiler_both_phases;
          Alcotest.test_case "rounds scaling" `Quick test_tree_aa_rounds_scaling;
          Alcotest.test_case
            "a cell's tree setup allocates <= 200 minor words per vertex"
            `Quick test_setup_allocation;
          Alcotest.test_case "a tree-aa run allocates <= 20 minor words per letter"
            `Quick test_round_allocation;
        ] );
      ( "nr-baseline",
        [
          Alcotest.test_case "safe set on path = trim" `Quick
            test_safe_vertices_path_matches_trim;
          Alcotest.test_case "safe set on star" `Quick test_safe_vertices_star;
          Alcotest.test_case "safe set inside hull" `Quick
            test_safe_vertices_inside_honest_hull;
          Alcotest.test_case "center_of" `Quick test_center_of;
          Alcotest.test_case "converges on path" `Quick
            test_nr_baseline_converges;
          Alcotest.test_case "fig3" `Quick test_nr_baseline_on_fig3;
          Alcotest.test_case "TreeAA beats NR on long paths" `Quick
            test_tree_aa_beats_nr_on_long_paths;
        ] );
      ( "random",
        List.map QCheck_alcotest.to_alcotest
          [ prop_tree_aa_random; prop_nr_baseline_random ] );
    ]

(* Tests for ListConstruction (Euler tour) — the Lemma 2 properties — and
   for LCA queries built on it (Lemma 2, property 4 / reference [8]). *)

open Aat_tree
module LT = Labeled_tree
module Rng = Aat_util.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let fig3 () =
  LT.of_labeled_edges
    [
      ("v1", "v2");
      ("v2", "v3");
      ("v3", "v6");
      ("v3", "v7");
      ("v2", "v4");
      ("v4", "v8");
      ("v2", "v5");
    ]

let tour_of t = Euler_tour.compute (Rooted.make t)

(* The paper's worked example (Section 6): for Figure 3's tree rooted at v1,
   L = [v1, v2, v3, v6, v3, v7, v3, v2, v4, v8, v4, v2, v5, v2, v1]. *)
let test_fig3_list () =
  let t = fig3 () in
  let tour = tour_of t in
  let got = Array.to_list (Array.map (LT.label t) (Euler_tour.tour tour)) in
  Alcotest.(check (list string)) "paper example"
    [ "v1"; "v2"; "v3"; "v6"; "v3"; "v7"; "v3"; "v2"; "v4"; "v8"; "v4"; "v2"; "v5"; "v2"; "v1" ]
    got

let test_fig3_occurrences () =
  let t = fig3 () in
  let tour = tour_of t in
  let v l = LT.vertex_of_label t l in
  (* Paper gives 1-based L(v3) = {3,5,7}, L(v6) = {4}, L(v5) = {13},
     L(v4) = {9,11}, L(v8) = {10}; ours are 0-based. *)
  Alcotest.(check (list int)) "L(v3)" [ 2; 4; 6 ] (Euler_tour.occurrences tour (v "v3"));
  Alcotest.(check (list int)) "L(v6)" [ 3 ] (Euler_tour.occurrences tour (v "v6"));
  Alcotest.(check (list int)) "L(v5)" [ 12 ] (Euler_tour.occurrences tour (v "v5"));
  Alcotest.(check (list int)) "L(v4)" [ 8; 10 ] (Euler_tour.occurrences tour (v "v4"));
  Alcotest.(check (list int)) "L(v8)" [ 9 ] (Euler_tour.occurrences tour (v "v8"))

let test_singleton_tour () =
  let t = LT.singleton "x" in
  let tour = tour_of t in
  check_int "length 1" 1 (Euler_tour.length tour);
  check_int "L_0" 0 (Euler_tour.vertex_at tour 0)

let test_length_formula () =
  List.iter
    (fun t ->
      let tour = tour_of t in
      check_int "2n-1" ((2 * LT.n_vertices t) - 1) (Euler_tour.length tour))
    [ fig3 (); Generate.path 17; Generate.star 9; Generate.balanced ~arity:3 ~depth:3 ]

(* Lemma 2 property checkers, used both on fixed trees and in properties. *)

let property1_adjacent t tour =
  let len = Euler_tour.length tour in
  let ok = ref true in
  for i = 0 to len - 2 do
    if not (LT.adjacent t (Euler_tour.vertex_at tour i) (Euler_tour.vertex_at tour (i + 1)))
    then ok := false
  done;
  !ok

let property2_all_present t tour =
  Euler_tour.length tour <= 2 * LT.n_vertices t
  && List.for_all (fun v -> Euler_tour.occurrences tour v <> []) (LT.vertices t)

let property3_subtree_brackets t tour =
  let r = Euler_tour.rooted tour in
  let ok = ref true in
  List.iter
    (fun v ->
      let imin = Euler_tour.first_occurrence tour v in
      let imax = Euler_tour.last_occurrence tour v in
      List.iter
        (fun u ->
          let inside =
            List.for_all (fun i -> imin <= i && i <= imax) (Euler_tour.occurrences tour u)
          in
          if inside <> Rooted.in_subtree r ~root_of:v u then ok := false)
        (LT.vertices t))
    (LT.vertices t);
  !ok

let property4_lca_between t tour =
  let lca = Lca.build tour in
  let r = Euler_tour.rooted tour in
  (* reference LCA: deepest common vertex of the two root paths *)
  let ref_lca a b =
    let pa = Rooted.path_to_root r a and pb = Rooted.path_to_root r b in
    let rec go last = function
      | x :: xs, y :: ys when x = y -> go x (xs, ys)
      | _ -> last
    in
    go (Rooted.root r) (pa, pb)
  in
  let ok = ref true in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let w = ref_lca a b in
          if Lca.query lca a b <> w then ok := false;
          (* property 4: between ANY occurrences, the lca occurs *)
          List.iter
            (fun i ->
              List.iter
                (fun j ->
                  let lo = min i j and hi = max i j in
                  let found = ref false in
                  for k = lo to hi do
                    if Euler_tour.vertex_at tour k = w then found := true
                  done;
                  if not !found then ok := false)
                (Euler_tour.occurrences tour b))
            (Euler_tour.occurrences tour a))
        (LT.vertices t))
    (LT.vertices t);
  !ok

let test_lemma2_fig3 () =
  let t = fig3 () in
  let tour = tour_of t in
  check "property 1" true (property1_adjacent t tour);
  check "property 2" true (property2_all_present t tour);
  check "property 3" true (property3_subtree_brackets t tour);
  check "property 4 + lca" true (property4_lca_between t tour)

let test_lca_basics () =
  let t = fig3 () in
  let tour = tour_of t in
  let lca = Lca.build tour in
  let v l = LT.vertex_of_label t l in
  check_int "lca(v6,v7)" (v "v3") (Lca.query lca (v "v6") (v "v7"));
  check_int "lca(v6,v8)" (v "v2") (Lca.query lca (v "v6") (v "v8"));
  check_int "lca(v3,v6)" (v "v3") (Lca.query lca (v "v3") (v "v6"));
  check_int "lca(v,v)" (v "v5") (Lca.query lca (v "v5") (v "v5"));
  check_int "lca with root" (v "v1") (Lca.query lca (v "v1") (v "v8"))

let test_range_min_vertex () =
  let t = fig3 () in
  let tour = tour_of t in
  let lca = Lca.build tour in
  let v l = LT.vertex_of_label t l in
  (* between index 3 (v6) and 12 (v5) the shallowest vertex is v2 *)
  check_int "range min" (v "v2") (Lca.range_min_vertex lca 3 12);
  check_int "range min single" (v "v6") (Lca.range_min_vertex lca 3 3);
  check_int "range min swapped args" (v "v2") (Lca.range_min_vertex lca 12 3)

(* Exhaustive check of Lemma 2 on every labeled tree with <= 6 vertices. *)
let test_lemma2_exhaustive_small () =
  for n = 1 to 6 do
    Prufer.enumerate ~n
    |> Seq.iter (fun edges ->
           let labels = Generate.labels_of_size n in
           let t =
             if n = 1 then LT.singleton labels.(0)
             else
               LT.of_labeled_edges
                 (List.map (fun (u, v) -> (labels.(u), labels.(v))) edges)
           in
           let tour = tour_of t in
           if
             not
               (property1_adjacent t tour && property2_all_present t tour
              && property3_subtree_brackets t tour)
           then Alcotest.failf "Lemma 2 violated on %a" LT.pp t)
  done

let tree_gen =
  QCheck2.Gen.(
    map2
      (fun seed n ->
        let rng = Rng.create seed in
        Generate.random rng (max 1 n))
      (int_bound 1_000_000) (int_bound 30))

let prop_lemma2_random =
  QCheck2.Test.make ~name:"Lemma 2 on random trees" ~count:150 tree_gen
    (fun t ->
      let tour = tour_of t in
      property1_adjacent t tour && property2_all_present t tour
      && property3_subtree_brackets t tour)

let prop_lca_random =
  QCheck2.Test.make ~name:"LCA matches reference on random trees" ~count:60
    tree_gen (fun t -> property4_lca_between t (tour_of t))

let prop_first_occurrence_is_min =
  QCheck2.Test.make ~name:"first/last occurrence consistent" ~count:100
    tree_gen (fun t ->
      let tour = tour_of t in
      List.for_all
        (fun v ->
          let occ = Euler_tour.occurrences tour v in
          Euler_tour.first_occurrence tour v = List.hd occ
          && Euler_tour.last_occurrence tour v = List.nth occ (List.length occ - 1)
          && List.for_all (fun i -> Euler_tour.vertex_at tour i = v) occ)
        (LT.vertices t))

(* Euler_tour.compute as it was before it kept its stack in an int array:
   a Stack of (vertex, remaining children) with children from
   Rooted.children, and occurrence lists reversed at the end. Kept
   verbatim as the oracle. *)
let reference_tour rooted =
  let tree = Rooted.tree rooted in
  let n = LT.n_vertices tree in
  let len = (2 * n) - 1 in
  let tour = Array.make len 0 in
  let depth = Array.make len 0 in
  let pos = ref 0 in
  let record v =
    tour.(!pos) <- v;
    depth.(!pos) <- Rooted.depth rooted v;
    incr pos
  in
  let stack = Stack.create () in
  let push v =
    record v;
    Stack.push (v, ref (Rooted.children rooted v)) stack
  in
  push (Rooted.root rooted);
  while not (Stack.is_empty stack) do
    let _, rest = Stack.top stack in
    match !rest with
    | [] ->
        ignore (Stack.pop stack);
        if not (Stack.is_empty stack) then begin
          let parent, _ = Stack.top stack in
          record parent
        end
    | child :: tl ->
        rest := tl;
        push child
  done;
  assert (!pos = len);
  let first = Array.make n (-1) and last = Array.make n (-1) in
  let occ_rev = Array.make n [] in
  Array.iteri
    (fun i v ->
      if first.(v) = -1 then first.(v) <- i;
      last.(v) <- i;
      occ_rev.(v) <- i :: occ_rev.(v))
    tour;
  let occ = Array.map List.rev occ_rev in
  (tour, depth, first, last, occ)

let matches_reference rooted =
  let tour, depth, first, last, occ = reference_tour rooted in
  let e = Euler_tour.compute rooted in
  let n = Array.length first in
  Euler_tour.rooted e == rooted
  && Euler_tour.tour e = tour
  && Array.init (Euler_tour.length e) (Euler_tour.depth_at e) = depth
  && Array.init n (Euler_tour.first_occurrence e) = first
  && Array.init n (Euler_tour.last_occurrence e) = last
  && Array.init n (Euler_tour.occurrences e) = occ

let prop_matches_reference =
  QCheck2.Test.make ~name:"compute = reference (any root)" ~count:150
    QCheck2.Gen.(pair tree_gen (int_bound 1_000_000))
    (fun (t, r) ->
      matches_reference (Rooted.make t)
      && matches_reference (Rooted.make ~root:(r mod LT.n_vertices t) t))

let test_reference_long_path () =
  let t = Generate.path 100_000 in
  check "rooted at v00000" true (matches_reference (Rooted.make t));
  check "rooted mid-path" true (matches_reference (Rooted.make ~root:31_415 t))

(* PathsFinder's schedule reads |V| only; it must equal RealAA's over the
   tour's actual length, |L| - 1. Every size up to 1600 is checked: the
   iteration count R steps only where R^R reaches |L| - 1 (at 14, 129
   and 1563 vertices), which sampled sizes would seldom hit. *)
let test_paths_finder_rounds () =
  for n = 1 to 1600 do
    let tree = Generate.random (Rng.create n) n in
    let expected =
      Aat_realaa.Rounds.bdh_rounds
        ~range:(float_of_int (Euler_tour.length (tour_of tree) - 1))
        ~eps:1.
    in
    let got = Aat_treeaa.Paths_finder.rounds ~tree in
    if got <> expected then
      Alcotest.failf "%d vertices: %d rounds, tour says %d" n got expected
  done

let () =
  Alcotest.run "euler"
    [
      ( "list-construction",
        [
          Alcotest.test_case "paper Figure 3 list" `Quick test_fig3_list;
          Alcotest.test_case "paper Figure 3 occurrences" `Quick
            test_fig3_occurrences;
          Alcotest.test_case "singleton" `Quick test_singleton_tour;
          Alcotest.test_case "length = 2n-1" `Quick test_length_formula;
          Alcotest.test_case "Lemma 2 on fig3" `Quick test_lemma2_fig3;
          Alcotest.test_case "Lemma 2 exhaustive (n<=6)" `Slow
            test_lemma2_exhaustive_small;
          Alcotest.test_case "10^5-vertex path = reference" `Quick
            test_reference_long_path;
          Alcotest.test_case "PathsFinder rounds = RealAA over |L| - 1" `Quick
            test_paths_finder_rounds;
        ] );
      ( "lca",
        [
          Alcotest.test_case "basic queries" `Quick test_lca_basics;
          Alcotest.test_case "range_min_vertex" `Quick test_range_min_vertex;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_lemma2_random;
            prop_lca_random;
            prop_first_occurrence_is_min;
            prop_matches_reference;
          ] );
    ]

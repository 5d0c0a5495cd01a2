(* Tests for convex hulls (Section 2, Figure 1) and projections onto paths
   (Section 5, Figure 2, Lemma 1). *)

open Aat_tree
module LT = Labeled_tree
module Rng = Aat_util.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Figure 1's tree: u1, u2, u3 with hull {u1..u5}. We reconstruct a tree
   with that shape: u4 joins u1 and u2's branch, u5 between u4 and u3, and
   two extra vertices outside the hull. *)
let fig1 () =
  LT.of_labeled_edges
    [
      ("u1", "u4");
      ("u2", "u4");
      ("u4", "u5");
      ("u5", "u3");
      ("u5", "w1");
      ("u1", "w2");
    ]

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

let v t l = LT.vertex_of_label t l

let hull_labels t vs =
  let r = Rooted.make t in
  Convex_hull.compute r (List.map (v t) vs)
  |> Convex_hull.vertices
  |> List.map (LT.label t)

let test_fig1_hull () =
  let t = fig1 () in
  Alcotest.(check (list string)) "paper Figure 1"
    [ "u1"; "u2"; "u3"; "u4"; "u5" ]
    (hull_labels t [ "u1"; "u2"; "u3" ])

let test_fig4_hull () =
  (* Section 6's example: honest inputs v3, v6, v5 have hull
     {v5, v2, v3, v6}; v4 and v8 are outside. *)
  let t = fig3 () in
  Alcotest.(check (list string)) "paper Figure 4 hull"
    [ "v2"; "v3"; "v5"; "v6" ]
    (hull_labels t [ "v3"; "v6"; "v5" ]);
  let r = Rooted.make t in
  let h = Convex_hull.compute r [ v t "v3"; v t "v6"; v t "v5" ] in
  check "v4 outside" false (Convex_hull.mem h (v t "v4"));
  check "v8 outside" false (Convex_hull.mem h (v t "v8"))

let test_hull_singleton_set () =
  let t = fig3 () in
  let r = Rooted.make t in
  let h = Convex_hull.compute r [ v t "v7" ] in
  check_int "size" 1 (Convex_hull.size h);
  check "mem" true (Convex_hull.mem h (v t "v7"))

let test_hull_two_points_is_path () =
  let t = fig3 () in
  let r = Rooted.make t in
  let h = Convex_hull.compute r [ v t "v6"; v t "v8" ] in
  Alcotest.(check (list string)) "path hull"
    [ "v2"; "v3"; "v4"; "v6"; "v8" ]
    (List.map (LT.label t) (Convex_hull.vertices h))

let test_hull_empty_rejected () =
  let t = fig3 () in
  let r = Rooted.make t in
  check "empty raises" true
    (try
       ignore (Convex_hull.compute r []);
       false
     with Invalid_argument _ -> true)

let test_hull_duplicates_ignored () =
  let t = fig3 () in
  let r = Rooted.make t in
  let h1 = Convex_hull.compute r [ v t "v6"; v t "v6"; v t "v8" ] in
  let h2 = Convex_hull.compute r [ v t "v6"; v t "v8" ] in
  check "same" true (Convex_hull.vertices h1 = Convex_hull.vertices h2)

let test_hull_subset () =
  let t = fig3 () in
  let r = Rooted.make t in
  let small = Convex_hull.compute r [ v t "v6"; v t "v3" ] in
  let big = Convex_hull.compute r [ v t "v6"; v t "v8" ] in
  check "subset" true (Convex_hull.subset small big);
  check "not superset" false (Convex_hull.subset big small)

(* --- projections --- *)

(* Figure 2: path P = (v1..v8); u1, u2, u3 hang off it and project to
   v3, v4, v6 respectively. *)
let fig2 () =
  let spine =
    [ ("v1", "v2"); ("v2", "v3"); ("v3", "v4"); ("v4", "v5");
      ("v5", "v6"); ("v6", "v7"); ("v7", "v8") ]
  in
  let hairs = [ ("v3", "x1"); ("x1", "u1"); ("v4", "u2"); ("v6", "x2"); ("x2", "u3") ] in
  LT.of_labeled_edges (spine @ hairs)

let test_fig2_projections () =
  let t = fig2 () in
  let r = Rooted.make t in
  let p = Array.map (v t) [| "v1"; "v2"; "v3"; "v4"; "v5"; "v6"; "v7"; "v8" |] in
  Alcotest.(check string) "proj u1" "v3" (LT.label t (Projection.onto_path r p (v t "u1")));
  Alcotest.(check string) "proj u2" "v4" (LT.label t (Projection.onto_path r p (v t "u2")));
  Alcotest.(check string) "proj u3" "v6" (LT.label t (Projection.onto_path r p (v t "u3")));
  check_int "index of proj u3" 5 (Projection.onto_path_index r p (v t "u3"))

let test_projection_of_path_vertex_is_itself () =
  let t = fig2 () in
  let r = Rooted.make t in
  let p = Array.map (v t) [| "v1"; "v2"; "v3"; "v4"; "v5"; "v6"; "v7"; "v8" |] in
  Array.iter
    (fun u -> check "fixed point" true (Projection.onto_path r p u = u))
    p

let test_all_onto_path_matches_pointwise () =
  let t = fig2 () in
  let r = Rooted.make t in
  let p = Array.map (v t) [| "v1"; "v2"; "v3"; "v4"; "v5"; "v6"; "v7"; "v8" |] in
  let all = Projection.all_onto_path t p in
  List.iter
    (fun u -> check_int "agrees" (Projection.onto_path r p u) all.(u))
    (LT.vertices t)

let test_distance_to_path () =
  let t = fig2 () in
  let p = Array.map (v t) [| "v1"; "v2"; "v3"; "v4"; "v5"; "v6"; "v7"; "v8" |] in
  check_int "u1 two away" 2 (Projection.distance_to_path t p (v t "u1"));
  check_int "u2 one away" 1 (Projection.distance_to_path t p (v t "u2"));
  check_int "on path" 0 (Projection.distance_to_path t p (v t "v5"))

(* Lemma 1: if P intersects <S>, the projection of any s in S lies in
   V(P) ∩ <S>. *)
let lemma1_holds t s path =
  let r = Rooted.make t in
  let h = Convex_hull.compute r s in
  let intersects = Array.exists (fun w -> Convex_hull.mem h w) path in
  (not intersects)
  || List.for_all
       (fun x ->
         let p = Projection.onto_path r path x in
         Paths.mem path p && Convex_hull.mem h p)
       s

let test_lemma1_fig2 () =
  let t = fig2 () in
  let p = Array.map (v t) [| "v1"; "v2"; "v3"; "v4"; "v5"; "v6"; "v7"; "v8" |] in
  check "Lemma 1" true (lemma1_holds t [ v t "u1"; v t "u2"; v t "u3" ] p)

(* --- qcheck properties --- *)

let tree_and_sets =
  QCheck2.Gen.(
    map2
      (fun seed n ->
        let n = max 2 n in
        let rng = Rng.create seed in
        let t = Generate.random rng n in
        let k = 1 + Rng.int rng (min 6 n) in
        let s = List.init k (fun _ -> Rng.int rng n) in
        (t, s, rng))
      (int_bound 1_000_000) (int_bound 30))

let prop_hull_matches_oracle =
  QCheck2.Test.make ~name:"hull = pairwise-path oracle" ~count:150
    tree_and_sets (fun (t, s, _) ->
      let r = Rooted.make t in
      let h = Convex_hull.compute r s in
      List.for_all
        (fun w -> Convex_hull.mem h w = Convex_hull.on_some_pair_path r s w)
        (LT.vertices t))

let prop_hull_connected =
  QCheck2.Test.make ~name:"hull induces a connected subtree" ~count:150
    tree_and_sets (fun (t, s, _) ->
      let r = Rooted.make t in
      let h = Convex_hull.compute r s in
      match Convex_hull.vertices h with
      | [] -> false
      | v0 :: _ ->
          (* BFS within the hull must reach every hull vertex. *)
          let seen = Hashtbl.create 16 in
          let queue = Queue.create () in
          Hashtbl.replace seen v0 ();
          Queue.add v0 queue;
          while not (Queue.is_empty queue) do
            let u = Queue.pop queue in
            List.iter
              (fun w ->
                if Convex_hull.mem h w && not (Hashtbl.mem seen w) then begin
                  Hashtbl.replace seen w ();
                  Queue.add w queue
                end)
              (LT.neighbors t u)
          done;
          List.for_all (Hashtbl.mem seen) (Convex_hull.vertices h))

let prop_projection_minimizes_distance =
  QCheck2.Test.make ~name:"projection minimizes distance to path" ~count:100
    tree_and_sets (fun (t, _, rng) ->
      let r = Rooted.make t in
      let n = LT.n_vertices t in
      let a = Rng.int rng n and b = Rng.int rng n in
      let path = Paths.between r a b in
      List.for_all
        (fun u ->
          let p = Projection.onto_path r path u in
          let d = Paths.distance r u p in
          Array.for_all (fun w -> Paths.distance r u w >= d) path
          && Projection.distance_to_path t path u = d)
        (LT.vertices t))

let prop_lemma1_random =
  QCheck2.Test.make ~name:"Lemma 1 on random trees/paths/sets" ~count:150
    tree_and_sets (fun (t, s, rng) ->
      let r = Rooted.make t in
      let n = LT.n_vertices t in
      let a = Rng.int rng n and b = Rng.int rng n in
      lemma1_holds t s (Paths.between r a b))

(* compute re-roots the view at a generator unless its root already is
   one; either way the hull is the same. *)
let prop_hull_root_independent =
  QCheck2.Test.make ~name:"hull does not depend on the view's root"
    ~count:150 tree_and_sets (fun (t, s, rng) ->
      let hull root =
        let h = Convex_hull.compute (Rooted.make ~root t) s in
        (Convex_hull.vertices h, Convex_hull.generators h)
      in
      let in_s = List.nth s (Rng.int rng (List.length s)) in
      let any = Rng.int rng (LT.n_vertices t) in
      hull in_s = hull any && hull (List.hd s) = hull (LT.root t))

let () =
  Alcotest.run "hull"
    [
      ( "convex-hull",
        [
          Alcotest.test_case "paper Figure 1" `Quick test_fig1_hull;
          Alcotest.test_case "paper Figure 4 hull" `Quick test_fig4_hull;
          Alcotest.test_case "singleton set" `Quick test_hull_singleton_set;
          Alcotest.test_case "two points = path" `Quick
            test_hull_two_points_is_path;
          Alcotest.test_case "empty set rejected" `Quick
            test_hull_empty_rejected;
          Alcotest.test_case "duplicates ignored" `Quick
            test_hull_duplicates_ignored;
          Alcotest.test_case "subset" `Quick test_hull_subset;
        ] );
      ( "projection",
        [
          Alcotest.test_case "paper Figure 2" `Quick test_fig2_projections;
          Alcotest.test_case "path vertices are fixed points" `Quick
            test_projection_of_path_vertex_is_itself;
          Alcotest.test_case "all_onto_path" `Quick
            test_all_onto_path_matches_pointwise;
          Alcotest.test_case "distance_to_path" `Quick test_distance_to_path;
          Alcotest.test_case "Lemma 1 on Figure 2" `Quick test_lemma1_fig2;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_hull_matches_oracle;
            prop_hull_connected;
            prop_projection_minimizes_distance;
            prop_lemma1_random;
            prop_hull_root_independent;
          ] );
    ]

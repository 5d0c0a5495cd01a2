(* Tests for the labeled-tree substrate: construction, rooted views, paths,
   and metrics. *)

open Aat_tree
module LT = Labeled_tree
module Rng = Aat_util.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* The tree of the paper's Figure 3: v1 at the root, v2 below it, with
   subtrees {v3 -> v6, v7}, {v4 -> v8} and leaf v5. *)
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

(* --- construction --- *)

let test_singleton () =
  let t = LT.singleton "only" in
  check_int "n" 1 (LT.n_vertices t);
  check_int "root" 0 (LT.root t);
  check "no edges" true (LT.edges t = []);
  check "leaf" true (LT.is_leaf t 0)

let test_vertices_sorted_by_label () =
  let t = LT.of_labeled_edges [ ("b", "a"); ("b", "c") ] in
  Alcotest.(check string) "vertex 0" "a" (LT.label t 0);
  Alcotest.(check string) "vertex 1" "b" (LT.label t 1);
  Alcotest.(check string) "vertex 2" "c" (LT.label t 2);
  check_int "root is lowest label" 0 (LT.root t)

let test_neighbors_sorted () =
  let t = fig3 () in
  let labels = List.map (LT.label t) (LT.neighbors t (v t "v2")) in
  Alcotest.(check (list string)) "sorted" [ "v1"; "v3"; "v4"; "v5" ] labels

let test_reject_cycle () =
  Alcotest.check_raises "cycle" (LT.Invalid_tree "a tree on 3 vertices needs 2 edges, got 3")
    (fun () -> ignore (LT.of_labeled_edges [ ("a", "b"); ("b", "c"); ("c", "a") ]))

(* Each rejection below reaches its own check (the edge count is right),
   and the message is pinned: when several edges are bad, the first bad
   edge in input order is the one reported. *)
let reject name msg ?isolated edges =
  Alcotest.check_raises name (LT.Invalid_tree msg) (fun () ->
      ignore (LT.of_labeled_edges ?isolated edges))

let test_reject_disconnected () =
  (* 4 vertices and 3 edges, but the edges close a triangle on a, b, c
     and leave d isolated. *)
  reject "disconnected" "graph is disconnected (3 of 4 reachable)"
    ~isolated:[ "d" ] [ ("a", "b"); ("b", "c"); ("c", "a") ]

let test_reject_self_loop () =
  reject "self loop" "self-loop at \"a\"" [ ("a", "a"); ("b", "c") ]

let test_reject_duplicate_edge () =
  reject "dup edge, reversed" "duplicate edge \"b\"-\"a\""
    [ ("a", "b"); ("b", "a"); ("c", "d") ];
  reject "dup edge before a later self-loop" "duplicate edge \"a\"-\"b\""
    [ ("a", "b"); ("a", "b"); ("c", "c"); ("d", "e") ]

let test_of_parents () =
  let t = LT.of_parents ~labels:[| "r"; "x"; "y" |] [| -1; 0; 1 |] in
  check_int "n" 3 (LT.n_vertices t);
  check "r-x" true (LT.adjacent t (v t "r") (v t "x"));
  check "x-y" true (LT.adjacent t (v t "x") (v t "y"));
  check "r-y not adjacent" false (LT.adjacent t (v t "r") (v t "y"))

let test_of_parents_rejects_two_roots () =
  check "two roots" true
    (try
       ignore (LT.of_parents ~labels:[| "a"; "b" |] [| -1; -1 |]);
       false
     with LT.Invalid_tree _ -> true)

let test_equal () =
  check "equal" true (LT.equal (fig3 ()) (fig3 ()));
  check "not equal" false (LT.equal (fig3 ()) (Generate.path 8))

(* --- rooted views --- *)

let test_rooted_parents () =
  let t = fig3 () in
  let r = Rooted.make t in
  check_int "root" (v t "v1") (Rooted.root r);
  check "root has no parent" true (Rooted.parent r (v t "v1") = None);
  check "parent of v8" true (Rooted.parent r (v t "v8") = Some (v t "v4"));
  check_int "depth v8" 3 (Rooted.depth r (v t "v8"));
  check_int "depth v1" 0 (Rooted.depth r (v t "v1"))

let test_rooted_children_order () =
  let t = fig3 () in
  let r = Rooted.make t in
  let kids = List.map (LT.label t) (Rooted.children r (v t "v2")) in
  Alcotest.(check (list string)) "children of v2" [ "v3"; "v4"; "v5" ] kids

let test_is_ancestor () =
  let t = fig3 () in
  let r = Rooted.make t in
  check "v2 anc v8" true (Rooted.is_ancestor r (v t "v2") (v t "v8"));
  check "reflexive" true (Rooted.is_ancestor r (v t "v3") (v t "v3"));
  check "v3 not anc v8" false (Rooted.is_ancestor r (v t "v3") (v t "v8"));
  check "child not anc of parent" false (Rooted.is_ancestor r (v t "v8") (v t "v4"))

let test_subtree_vertices () =
  let t = fig3 () in
  let r = Rooted.make t in
  let sub = List.map (LT.label t) (Rooted.subtree_vertices r (v t "v3")) in
  Alcotest.(check (list string)) "subtree v3" [ "v3"; "v6"; "v7" ] sub;
  let sub1 = Rooted.subtree_vertices r (v t "v1") in
  check_int "whole tree" 8 (List.length sub1)

let test_path_to_root () =
  let t = fig3 () in
  let r = Rooted.make t in
  let p = List.map (LT.label t) (Rooted.path_to_root r (v t "v8")) in
  Alcotest.(check (list string)) "path" [ "v1"; "v2"; "v4"; "v8" ] p

let test_reroot () =
  let t = fig3 () in
  let r = Rooted.make ~root:(v t "v6") t in
  check_int "root" (v t "v6") (Rooted.root r);
  check_int "depth of v1" 3 (Rooted.depth r (v t "v1"))

let test_deep_path_no_stack_overflow () =
  let t = Generate.path 200_000 in
  let r = Rooted.make t in
  check_int "depth of far end" 199_999 (Rooted.depth r 199_999);
  let tour = Euler_tour.compute r in
  check_int "tour length" (2 * 200_000 - 1) (Euler_tour.length tour)

(* --- paths and distances --- *)

let test_path_between () =
  let t = fig3 () in
  let r = Rooted.make t in
  let p = Paths.between r (v t "v6") (v t "v8") in
  let labels = Array.to_list (Array.map (LT.label t) p) in
  Alcotest.(check (list string)) "v6..v8" [ "v6"; "v3"; "v2"; "v4"; "v8" ] labels

let test_path_between_ancestor () =
  let t = fig3 () in
  let r = Rooted.make t in
  let p = Paths.between r (v t "v1") (v t "v8") in
  let labels = Array.to_list (Array.map (LT.label t) p) in
  Alcotest.(check (list string)) "v1..v8" [ "v1"; "v2"; "v4"; "v8" ] labels;
  let q = Paths.between r (v t "v8") (v t "v1") in
  Alcotest.(check (list string)) "reversed"
    [ "v8"; "v4"; "v2"; "v1" ]
    (Array.to_list (Array.map (LT.label t) q))

let test_path_single () =
  let t = fig3 () in
  let r = Rooted.make t in
  let p = Paths.between r (v t "v5") (v t "v5") in
  check_int "singleton path" 1 (Array.length p)

let test_distance () =
  let t = fig3 () in
  let r = Rooted.make t in
  check_int "d(v6,v8)" 4 (Paths.distance r (v t "v6") (v t "v8"));
  check_int "d(v1,v1)" 0 (Paths.distance r (v t "v1") (v t "v1"));
  check_int "d(v6,v7)" 2 (Paths.distance r (v t "v6") (v t "v7"))

let test_is_path () =
  let t = fig3 () in
  let r = Rooted.make t in
  check "real path" true (Paths.is_path t (Paths.between r (v t "v6") (v t "v5")));
  check "not adjacent" false (Paths.is_path t [| v t "v1"; v t "v3" |]);
  check "repeat" false (Paths.is_path t [| v t "v1"; v t "v2"; v t "v1" |]);
  check "empty" false (Paths.is_path t [||])

let test_orient () =
  let t = fig3 () in
  let r = Rooted.make t in
  let p = Paths.between r (v t "v8") (v t "v6") in
  let o = Paths.orient t p in
  Alcotest.(check string) "starts at lower label" "v6" (LT.label t o.(0))

let test_extend_and_index () =
  let t = fig3 () in
  let r = Rooted.make t in
  let p = Paths.between r (v t "v1") (v t "v4") in
  let p' = Paths.extend p (v t "v8") in
  check "extended is path" true (Paths.is_path t p');
  check "mem" true (Paths.mem p' (v t "v8"));
  check "index_of" true (Paths.index_of p' (v t "v8") = Some 3);
  check "index_of missing" true (Paths.index_of p (v t "v7") = None)

(* --- metrics --- *)

let test_diameter_path () =
  check_int "path diameter" 9 (Metrics.diameter (Generate.path 10))

let test_diameter_star () =
  check_int "star diameter" 2 (Metrics.diameter (Generate.star 10))

let test_diameter_singleton () =
  check_int "singleton" 0 (Metrics.diameter (LT.singleton "x"))

let test_diameter_fig3 () =
  check_int "fig3 diameter" 4 (Metrics.diameter (fig3 ()))

let test_longest_path () =
  let t = fig3 () in
  let p = Metrics.longest_path t in
  check_int "length" 5 (Array.length p);
  check "is path" true (Paths.is_path t p)

let test_center_path_even () =
  let t = Generate.path 6 in
  Alcotest.(check (list int)) "two centers" [ 2; 3 ] (Metrics.center t)

let test_center_path_odd () =
  let t = Generate.path 7 in
  Alcotest.(check (list int)) "one center" [ 3 ] (Metrics.center t)

let test_center_star () =
  Alcotest.(check (list int)) "star center" [ 0 ] (Metrics.center (Generate.star 9))

let test_radius () =
  check_int "path radius" 3 (Metrics.radius (Generate.path 7));
  check_int "star radius" 1 (Metrics.radius (Generate.star 9))

let test_eccentricity () =
  let t = fig3 () in
  check_int "ecc v1" 3 (Metrics.eccentricity t (v t "v1"));
  check_int "ecc v6" 4 (Metrics.eccentricity t (v t "v6"));
  check_int "ecc v2" 2 (Metrics.eccentricity t (v t "v2"))

(* --- generated corpus --- *)

(* Every generator family at sizes 1, 2, 3, 17, 999, 1000, 1001 and 10001
   where the family has a tree of that size (labels widen from "v999" to
   "v1000" at 1001 vertices), and seeded random trees up to 300 vertices.
   Each tree contributes its edge list, both schedules, its Euler tour and
   its preorder, so any change to construction, traversal or the round
   counts moves the one md5 below. *)
let corpus () =
  let sized s =
    let when_ cond name f = if cond then [ (name, f) ] else [] in
    let spider k =
      if k < 1 || (s - 1) mod k <> 0 then []
      else
        [
          ( Printf.sprintf "spider:%d:%d" ((s - 1) / k) k,
            fun () -> Generate.spider ~legs:((s - 1) / k) ~leg_length:k );
        ]
    in
    let diameter d =
      when_
        (d >= 1 && d <= s - 1 && (s <= d + 1 || d >= 2))
        (Printf.sprintf "diameter:%d:%d:%d" s d s)
        (fun () -> Generate.random_of_diameter (Rng.create s) ~n:s ~diameter:d)
    in
    List.concat
      [
        [
          (Printf.sprintf "path:%d" s, fun () -> Generate.path s);
          (Printf.sprintf "star:%d" s, fun () -> Generate.star s);
          ( Printf.sprintf "caterpillar:%d:0" s,
            fun () -> Generate.caterpillar ~spine:s ~legs:0 );
          ( Printf.sprintf "broom:%d:0" s,
            fun () -> Generate.broom ~handle:s ~bristles:0 );
          ( Printf.sprintf "broom:1:%d" (s - 1),
            fun () -> Generate.broom ~handle:1 ~bristles:(s - 1) );
          ( Printf.sprintf "broom:%d:%d" ((s + 1) / 2) (s / 2),
            fun () -> Generate.broom ~handle:((s + 1) / 2) ~bristles:(s / 2) );
          (Printf.sprintf "random:%d:%d" s s, fun () -> Generate.random (Rng.create s) s);
        ];
        when_ (s mod 2 = 0)
          (Printf.sprintf "caterpillar:%d:1" (s / 2))
          (fun () -> Generate.caterpillar ~spine:(s / 2) ~legs:1);
        when_ (s mod 3 = 0)
          (Printf.sprintf "caterpillar:%d:2" (s / 3))
          (fun () -> Generate.caterpillar ~spine:(s / 3) ~legs:2);
        spider 1;
        spider 2;
        spider 4;
        spider (s - 1);
        (if s = 1 then [ ("balanced:2:0", fun () -> Generate.balanced ~arity:2 ~depth:0) ]
         else
           [
             ( Printf.sprintf "balanced:%d:1" (s - 1),
               fun () -> Generate.balanced ~arity:(s - 1) ~depth:1 );
           ]);
        diameter (s - 1);
        diameter (max 2 (s / 3));
      ]
  in
  let deep =
    [
      ("balanced:2:9", fun () -> Generate.balanced ~arity:2 ~depth:9);
      ("balanced:3:6", fun () -> Generate.balanced ~arity:3 ~depth:6);
      ("balanced:10:3", fun () -> Generate.balanced ~arity:10 ~depth:3);
    ]
  in
  let seeded =
    List.concat_map
      (fun seed ->
        let n = 15 * seed in
        let d = 2 + (seed * 7 mod (n - 2)) in
        [
          ( Printf.sprintf "random:%d:%d" n seed,
            fun () -> Generate.random (Rng.create seed) n );
          ( Printf.sprintf "diameter:%d:%d:%d" n d seed,
            fun () -> Generate.random_of_diameter (Rng.create seed) ~n ~diameter:d );
        ])
      (List.init 20 (fun i -> i + 1))
  in
  List.concat_map sized [ 1; 2; 3; 17; 999; 1000; 1001; 10001 ] @ deep @ seeded

let fingerprint tree =
  let r = Rooted.make tree in
  let b = Buffer.create 4096 in
  Buffer.add_string b (Tree_io.to_edge_list tree);
  Printf.bprintf b "rounds %d %d\ntour" (Aat_treeaa.Tree_aa.rounds ~tree)
    (Aat_treeaa.Paths_finder.rounds ~tree);
  Array.iter (Printf.bprintf b " %d") (Euler_tour.tour (Euler_tour.compute r));
  Buffer.add_string b "\npreorder";
  Array.iter (Printf.bprintf b " %d") (Rooted.preorder r);
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_generated_corpus () =
  let b = Buffer.create 8192 in
  List.iter
    (fun (name, generate) -> Printf.bprintf b "%s %s\n" name (fingerprint (generate ())))
    (corpus ());
  Alcotest.(check string) "corpus md5" "018a6726cdcca442d84c77a456957505"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* --- the once-computed diameter --- *)

(* The two-BFS diameter each caller ran before trees computed theirs at
   construction, kept verbatim as the oracle. *)
module Two_bfs = struct
  let farthest t src =
    let dist = Paths.bfs_distances t src in
    let best = ref src in
    Array.iteri (fun v d -> if d > dist.(!best) then best := v) dist;
    (!best, dist.(!best))

  let diameter t =
    let a, _ = farthest t (LT.root t) in
    let _, d = farthest t a in
    d
end

(* A random recursive tree under shuffled labels, so vertex ids (label
   order) and construction order differ. *)
let random_parents rng n =
  let labels = Array.init n (Printf.sprintf "x%03d") in
  for i = n - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let l = labels.(i) in
    labels.(i) <- labels.(j);
    labels.(j) <- l
  done;
  LT.of_parents ~labels (Array.init n (fun i -> if i = 0 then -1 else Rng.int rng i))

let test_diameter_matches_two_bfs () =
  List.iter
    (fun (name, generate) ->
      let tree = generate () in
      check_int name (Two_bfs.diameter tree) (Metrics.diameter tree))
    (corpus ());
  let rng = Rng.create 21 in
  for _ = 1 to 3000 do
    let n = 1 + Rng.int rng 80 in
    let tree =
      if Rng.bool rng then random_parents rng n else Generate.random rng n
    in
    check_int (Format.asprintf "%a" LT.pp tree) (Two_bfs.diameter tree)
      (Metrics.diameter tree)
  done

(* Two builds of one tree, one of which has been asked its diameter. *)
let test_equal_after_diameter () =
  let edges = [ ("c", "a"); ("a", "b"); ("b", "d"); ("e", "b") ] in
  let a = LT.of_labeled_edges edges and b = LT.of_labeled_edges (List.rev edges) in
  check_int "diameter" 3 (Metrics.diameter a);
  check "LT.equal" true (LT.equal a b);
  check "=" true (a = b);
  check "compare" true (compare a b = 0)

(* --- qcheck properties --- *)

let tree_gen_of_size size =
  QCheck2.Gen.(
    map2
      (fun seed n ->
        let rng = Rng.create seed in
        Generate.random rng (max 1 n))
      (int_bound 1_000_000) (int_bound size))

let arb_tree = tree_gen_of_size 40

let prop_distance_symmetric =
  QCheck2.Test.make ~name:"distance symmetric" ~count:200 arb_tree (fun t ->
      let r = Rooted.make t in
      let n = LT.n_vertices t in
      let ok = ref true in
      for u = 0 to n - 1 do
        for w = u to min (n - 1) (u + 5) do
          if Paths.distance r u w <> Paths.distance r w u then ok := false
        done
      done;
      !ok)

let prop_path_length_matches_distance =
  QCheck2.Test.make ~name:"path length = distance + 1" ~count:200 arb_tree
    (fun t ->
      let r = Rooted.make t in
      let n = LT.n_vertices t in
      let ok = ref true in
      for u = 0 to min (n - 1) 10 do
        for w = 0 to n - 1 do
          let p = Paths.between r u w in
          if Array.length p <> Paths.distance r u w + 1 then ok := false;
          if not (Paths.is_path t p) then ok := false;
          if p.(0) <> u || p.(Array.length p - 1) <> w then ok := false
        done
      done;
      !ok)

let prop_bfs_consistent_with_rooted_distance =
  QCheck2.Test.make ~name:"bfs distances = rooted distances" ~count:100
    arb_tree (fun t ->
      let r = Rooted.make t in
      let n = LT.n_vertices t in
      let src = (n - 1) / 2 in
      let dist = Paths.bfs_distances t src in
      let ok = ref true in
      for u = 0 to n - 1 do
        if dist.(u) <> Paths.distance r src u then ok := false
      done;
      !ok)

let prop_triangle_equality_on_paths =
  (* In a tree, w on P(u,v) iff d(u,w) + d(w,v) = d(u,v). *)
  QCheck2.Test.make ~name:"path membership = metric equality" ~count:100
    arb_tree (fun t ->
      let r = Rooted.make t in
      let n = LT.n_vertices t in
      let u = 0 and w = n / 2 in
      let p = Paths.between r u w in
      let ok = ref true in
      for x = 0 to n - 1 do
        let on_path = Paths.mem p x in
        let metric =
          Paths.distance r u x + Paths.distance r x w = Paths.distance r u w
        in
        if on_path <> metric then ok := false
      done;
      !ok)

let prop_diameter_is_max_eccentricity =
  QCheck2.Test.make ~name:"diameter = max eccentricity" ~count:60
    (tree_gen_of_size 25) (fun t ->
      let eccs = Metrics.all_eccentricities t in
      Metrics.diameter t = Array.fold_left max 0 eccs)

let prop_center_minimizes_eccentricity =
  QCheck2.Test.make ~name:"center = argmin eccentricity" ~count:60
    (tree_gen_of_size 25) (fun t ->
      let eccs = Metrics.all_eccentricities t in
      let m = Array.fold_left min max_int eccs in
      let argmins =
        List.filter (fun v -> eccs.(v) = m) (LT.vertices t)
      in
      Metrics.center t = argmins)

(* A generator call drawn from every family, at sizes that cross the
   label-width change at 1001 vertices. *)
let family_call =
  QCheck2.Gen.(triple (int_bound 7) (int_range 1 1200) (int_bound 40))

let generate_call (k, a, b) =
  match k with
  | 0 -> Generate.path a
  | 1 -> Generate.star a
  | 2 -> Generate.caterpillar ~spine:(1 + (a / 10)) ~legs:(b mod 5)
  | 3 -> Generate.spider ~legs:(b mod 12) ~leg_length:(1 + (a / 20))
  | 4 -> Generate.balanced ~arity:(1 + (b mod 4)) ~depth:(a mod 5)
  | 5 -> Generate.broom ~handle:(1 + (a / 2)) ~bristles:b
  | 6 -> Generate.random (Rng.create b) a
  | _ ->
      let n = max 3 a in
      Generate.random_of_diameter (Rng.create b) ~n ~diameter:(2 + (b mod (n - 2)))

let relabel t =
  LT.of_labeled_edges ~isolated:[ LT.label t 0 ]
    (List.map (fun (u, w) -> (LT.label t u, LT.label t w)) (LT.edges t))

let prop_generators_match_labeled =
  QCheck2.Test.make ~name:"generators = of_labeled_edges over their edges"
    ~count:150 ~print:QCheck2.Print.(triple int int int) family_call
    (fun call ->
      let t = generate_call call in
      LT.equal t (relabel t))

(* Lookups against a linear scan, on every label and on absent ones
   ("v0000" is a label from 1001 vertices on). *)
let lookups_match_scan t probes =
  let scan l = List.find_opt (fun v -> LT.label t v = l) (LT.vertices t) in
  List.for_all
    (fun l ->
      let found =
        match LT.vertex_of_label t l with v -> Some v | exception Not_found -> None
      in
      found = scan l && LT.mem_label t l = (scan l <> None))
    (List.map (LT.label t) (LT.vertices t) @ probes)

let absent_probes = [ ""; "v"; "v00"; "v0000"; "zz" ]

let prop_lookup_generated =
  QCheck2.Test.make ~name:"label lookup = linear scan (generated)" ~count:60
    ~print:QCheck2.Print.(triple int int int) family_call (fun call ->
      lookups_match_scan (generate_call call) absent_probes)

(* Arbitrary labels: short strings over a three-letter alphabet, the empty
   string included, on a random tree over however many are distinct. *)
let prop_lookup_arbitrary =
  QCheck2.Test.make ~name:"label lookup = linear scan (arbitrary labels)"
    ~count:100
    QCheck2.Gen.(
      pair (list_size (int_range 1 60) (string_size ~gen:(char_range 'a' 'c') (int_bound 3)))
        (list_size (int_bound 10) (string_size ~gen:(char_range 'a' 'd') (int_bound 4))))
    (fun (labels, probes) ->
      let labels = Array.of_list (List.sort_uniq String.compare labels) in
      let n = Array.length labels in
      let t =
        if n = 1 then LT.singleton labels.(0)
        else
          let seq = Array.init (n - 2) (fun i -> (i * 7) mod n) in
          LT.of_labeled_edges
            (List.map (fun (u, w) -> (labels.(u), labels.(w))) (Prufer.decode seq))
      in
      lookups_match_scan t (probes @ absent_probes))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "tree"
    [
      ( "construction",
        [
          Alcotest.test_case "singleton" `Quick test_singleton;
          Alcotest.test_case "vertices sorted by label" `Quick
            test_vertices_sorted_by_label;
          Alcotest.test_case "neighbors sorted" `Quick test_neighbors_sorted;
          Alcotest.test_case "reject cycle" `Quick test_reject_cycle;
          Alcotest.test_case "reject disconnected" `Quick
            test_reject_disconnected;
          Alcotest.test_case "reject self-loop" `Quick test_reject_self_loop;
          Alcotest.test_case "reject duplicate edge" `Quick
            test_reject_duplicate_edge;
          Alcotest.test_case "of_parents" `Quick test_of_parents;
          Alcotest.test_case "of_parents two roots" `Quick
            test_of_parents_rejects_two_roots;
          Alcotest.test_case "equal" `Quick test_equal;
        ] );
      ( "rooted",
        [
          Alcotest.test_case "parents and depths" `Quick test_rooted_parents;
          Alcotest.test_case "children in label order" `Quick
            test_rooted_children_order;
          Alcotest.test_case "is_ancestor" `Quick test_is_ancestor;
          Alcotest.test_case "subtree_vertices" `Quick test_subtree_vertices;
          Alcotest.test_case "path_to_root" `Quick test_path_to_root;
          Alcotest.test_case "reroot" `Quick test_reroot;
          Alcotest.test_case "200k-vertex path, no overflow" `Slow
            test_deep_path_no_stack_overflow;
        ] );
      ( "paths",
        [
          Alcotest.test_case "between" `Quick test_path_between;
          Alcotest.test_case "between ancestor" `Quick
            test_path_between_ancestor;
          Alcotest.test_case "single-vertex path" `Quick test_path_single;
          Alcotest.test_case "distance" `Quick test_distance;
          Alcotest.test_case "is_path" `Quick test_is_path;
          Alcotest.test_case "orient" `Quick test_orient;
          Alcotest.test_case "extend and index" `Quick test_extend_and_index;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "diameter path" `Quick test_diameter_path;
          Alcotest.test_case "diameter star" `Quick test_diameter_star;
          Alcotest.test_case "diameter singleton" `Quick
            test_diameter_singleton;
          Alcotest.test_case "diameter fig3" `Quick test_diameter_fig3;
          Alcotest.test_case "diameter = two-BFS oracle" `Quick
            test_diameter_matches_two_bfs;
          Alcotest.test_case "equal trees stay = after diameter" `Quick
            test_equal_after_diameter;
          Alcotest.test_case "longest path" `Quick test_longest_path;
          Alcotest.test_case "center path even" `Quick test_center_path_even;
          Alcotest.test_case "center path odd" `Quick test_center_path_odd;
          Alcotest.test_case "center star" `Quick test_center_star;
          Alcotest.test_case "radius" `Quick test_radius;
          Alcotest.test_case "eccentricity" `Quick test_eccentricity;
        ] );
      ( "goldens",
        [ Alcotest.test_case "generated corpus" `Quick test_generated_corpus ] );
      qsuite "properties"
        [
          prop_distance_symmetric;
          prop_path_length_matches_distance;
          prop_bfs_consistent_with_rooted_distance;
          prop_triangle_equality_on_paths;
          prop_diameter_is_max_eccentricity;
          prop_center_minimizes_eccentricity;
          prop_generators_match_labeled;
          prop_lookup_generated;
          prop_lookup_arbitrary;
        ];
    ]

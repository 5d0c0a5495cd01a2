(* Tests for generators, Prüfer codec, RNG determinism, and tree I/O. *)

open Aat_tree
module LT = Labeled_tree
module Rng = Aat_util.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- rng --- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check "same stream" true (Rng.int64 a = Rng.int64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  check "different first draw" true (Rng.int64 a <> Rng.int64 b)

let test_rng_int_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 13 in
    check "in range" true (x >= 0 && x < 13)
  done

let test_rng_float_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Rng.float rng 2.5 in
    check "in range" true (x >= 0. && x < 2.5)
  done

let test_rng_split_independent_of_parent_draws () =
  let a = Rng.create 9 in
  let child = Rng.split a in
  let first_child_draw = Rng.int64 (Rng.copy child) in
  (* consuming more of the parent does not change the child's stream *)
  ignore (Rng.int64 a);
  check "child unchanged" true (Rng.int64 child = first_child_draw)

let test_rng_sample_without_replacement () =
  let rng = Rng.create 3 in
  for _ = 1 to 100 do
    let s = Rng.sample_without_replacement rng 5 10 in
    check_int "size" 5 (List.length s);
    check "sorted distinct" true (List.sort_uniq compare s = s);
    check "in range" true (List.for_all (fun x -> x >= 0 && x < 10) s)
  done;
  check_int "k = n" 10 (List.length (Rng.sample_without_replacement rng 10 10));
  check_int "k = 0" 0 (List.length (Rng.sample_without_replacement rng 0 10))

let test_rng_shuffle_is_permutation () =
  let rng = Rng.create 11 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check "permutation" true (sorted = Array.init 50 Fun.id)

(* --- generators --- *)

let test_path_shape () =
  let t = Generate.path 5 in
  check_int "n" 5 (LT.n_vertices t);
  check_int "diameter" 4 (Metrics.diameter t);
  check_int "leaves" 2
    (List.length (List.filter (LT.is_leaf t) (LT.vertices t)))

let test_star_shape () =
  let t = Generate.star 7 in
  check_int "n" 7 (LT.n_vertices t);
  check_int "center degree" 6 (LT.degree t 0);
  check_int "diameter" 2 (Metrics.diameter t)

let test_balanced_shape () =
  let t = Generate.balanced ~arity:2 ~depth:3 in
  check_int "n" 15 (LT.n_vertices t);
  check_int "diameter" 6 (Metrics.diameter t)

let test_caterpillar_shape () =
  let t = Generate.caterpillar ~spine:5 ~legs:2 in
  check_int "n" 15 (LT.n_vertices t);
  (* spine of 5 has diameter 4; pendant legs on the ends add 2 *)
  check_int "diameter" 6 (Metrics.diameter t)

let test_spider_shape () =
  let t = Generate.spider ~legs:4 ~leg_length:3 in
  check_int "n" 13 (LT.n_vertices t);
  check_int "diameter" 6 (Metrics.diameter t);
  check_int "center degree" 4 (LT.degree t 0)

let test_broom_shape () =
  let t = Generate.broom ~handle:4 ~bristles:3 in
  check_int "n" 7 (LT.n_vertices t);
  check_int "diameter" 4 (Metrics.diameter t);
  check_int "branch degree" 4 (LT.degree t 3)

let test_random_is_tree_and_deterministic () =
  let t1 = Generate.random (Rng.create 5) 40 in
  let t2 = Generate.random (Rng.create 5) 40 in
  check "deterministic" true (LT.equal t1 t2);
  check_int "n" 40 (LT.n_vertices t1)

let test_random_of_diameter () =
  List.iter
    (fun (n, d) ->
      let t = Generate.random_of_diameter (Rng.create 1) ~n ~diameter:d in
      check_int "n" n (LT.n_vertices t);
      check_int "diameter" d (Metrics.diameter t))
    [ (10, 9); (10, 2); (30, 5); (100, 40); (5, 4); (2, 1) ]

(* --- the --gen spec grammar --- *)

module Codec = Aat_util.Codec

let gen s = Result.map Generate.of_spec (Codec.parse Generate.spec s)

let test_gen_spec_grammar () =
  let n_of s =
    match gen s with
    | Ok t -> LT.n_vertices t
    | Error e -> Alcotest.failf "%S: %s" s e
  in
  List.iter
    (fun (s, n) -> check_int s n (n_of s))
    [
      ("path:5", 5); ("star:4", 4); ("caterpillar:3:2", 9); ("spider:3:2", 7);
      ("balanced:2:2", 7); ("broom:3:2", 5); ("random:6:1", 6);
      ("diameter:8:4:1", 8); ("path: 5 ", 5);
    ];
  check "random:N:SEED is Generate.random" true
    (Result.map Tree_io.to_edge_list (gen "random:9:3")
    = Ok (Tree_io.to_edge_list (Generate.random (Rng.create 3) 9)));
  check "canonical form prints back" true
    (Result.map (Codec.print Generate.spec)
       (Codec.parse Generate.spec "diameter:8:4:1")
    = Ok "diameter:8:4:1");
  List.iter
    (fun s ->
      check ("reject " ^ s) true (Result.is_error (Codec.parse Generate.spec s)))
    [ ""; "path"; "path:"; "path:abc"; "path:1:2"; "bogus:3"; "random:5";
      "diameter:5:9:x"; "caterpillar:3" ];
  (* well-formed, but outside the family's range: the generator refuses *)
  List.iter
    (fun s ->
      check ("out of range " ^ s) true
        (match gen s with exception Invalid_argument _ -> true | _ -> false))
    [ "path:-3"; "path:0"; "diameter:5:9:1" ]

(* --- prüfer --- *)

let test_prufer_decode_known () =
  (* sequence [3,3,3,4] on 6 vertices: classic example *)
  let edges = Prufer.decode [| 3; 3; 3; 4 |] in
  check_int "edge count" 5 (List.length edges);
  let t =
    LT.of_labeled_edges
      (List.map (fun (u, v) -> (string_of_int u, string_of_int v)) edges)
  in
  check_int "n" 6 (LT.n_vertices t)

let test_prufer_roundtrip () =
  let rng = Rng.create 17 in
  for _ = 1 to 200 do
    let n = 3 + Rng.int rng 20 in
    let seq = Array.init (n - 2) (fun _ -> Rng.int rng n) in
    let edges = Prufer.decode seq in
    let seq' = Prufer.encode ~n edges in
    check "roundtrip" true (seq = seq')
  done

let test_prufer_count () =
  check_int "n=1" 1 (Prufer.count ~n:1);
  check_int "n=2" 1 (Prufer.count ~n:2);
  check_int "n=3" 3 (Prufer.count ~n:3);
  check_int "n=4" 16 (Prufer.count ~n:4);
  check_int "n=5" 125 (Prufer.count ~n:5)

let test_prufer_enumerate_all_distinct_trees () =
  for n = 1 to 5 do
    let seen = Hashtbl.create 200 in
    Prufer.enumerate ~n
    |> Seq.iter (fun edges ->
           let key = List.sort compare (List.map (fun (u, v) -> (min u v, max u v)) edges) in
           if Hashtbl.mem seen key then Alcotest.failf "duplicate tree at n=%d" n;
           Hashtbl.replace seen key ());
    check_int "cayley count" (Prufer.count ~n) (Hashtbl.length seen)
  done

let test_prufer_enumerate_yields_trees () =
  Prufer.enumerate ~n:5
  |> Seq.iter (fun edges ->
         let labels = Generate.labels_of_size 5 in
         ignore
           (LT.of_labeled_edges
              (List.map (fun (u, v) -> (labels.(u), labels.(v))) edges)))

(* --- io --- *)

let test_edge_list_roundtrip () =
  let t = Generate.random (Rng.create 23) 25 in
  let s = Tree_io.to_edge_list t in
  let t' = Tree_io.of_edge_list s in
  check "roundtrip" true (LT.equal t t')

let test_edge_list_singleton_roundtrip () =
  let t = LT.singleton "lonely" in
  check "roundtrip" true (LT.equal t (Tree_io.of_edge_list (Tree_io.to_edge_list t)))

let test_edge_list_comments_and_blanks () =
  let t = Tree_io.of_edge_list "# a comment\n\n a b \nb c # trailing\n" in
  check_int "n" 3 (LT.n_vertices t)

let test_edge_list_malformed () =
  check "malformed" true
    (try
       ignore (Tree_io.of_edge_list "a b c\n");
       false
     with LT.Invalid_tree _ -> true)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_dot_output () =
  let t = Generate.path 3 in
  let dot = Tree_io.to_dot ~highlight:[ 0 ] t in
  check "mentions edge" true (contains ~needle:"\"v000\" -- \"v001\"" dot);
  check "highlight" true (contains ~needle:"fillcolor" dot);
  check "graph block" true (contains ~needle:"graph tree {" dot)

let test_ascii_art () =
  let t = Generate.path 3 in
  let art = Tree_io.ascii_art t in
  Alcotest.(check string) "indented" "v000\n  v001\n    v002\n" art

let () =
  Alcotest.run "generate"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "split independence" `Quick
            test_rng_split_independent_of_parent_draws;
          Alcotest.test_case "sample without replacement" `Quick
            test_rng_sample_without_replacement;
          Alcotest.test_case "shuffle is permutation" `Quick
            test_rng_shuffle_is_permutation;
        ] );
      ( "families",
        [
          Alcotest.test_case "path" `Quick test_path_shape;
          Alcotest.test_case "star" `Quick test_star_shape;
          Alcotest.test_case "balanced" `Quick test_balanced_shape;
          Alcotest.test_case "caterpillar" `Quick test_caterpillar_shape;
          Alcotest.test_case "spider" `Quick test_spider_shape;
          Alcotest.test_case "broom" `Quick test_broom_shape;
          Alcotest.test_case "random deterministic" `Quick
            test_random_is_tree_and_deterministic;
          Alcotest.test_case "random_of_diameter" `Quick
            test_random_of_diameter;
          Alcotest.test_case "--gen spec grammar" `Quick test_gen_spec_grammar;
        ] );
      ( "prufer",
        [
          Alcotest.test_case "decode known" `Quick test_prufer_decode_known;
          Alcotest.test_case "roundtrip" `Quick test_prufer_roundtrip;
          Alcotest.test_case "cayley counts" `Quick test_prufer_count;
          Alcotest.test_case "enumerate distinct" `Quick
            test_prufer_enumerate_all_distinct_trees;
          Alcotest.test_case "enumerate yields trees" `Quick
            test_prufer_enumerate_yields_trees;
        ] );
      ( "io",
        [
          Alcotest.test_case "edge list roundtrip" `Quick
            test_edge_list_roundtrip;
          Alcotest.test_case "singleton roundtrip" `Quick
            test_edge_list_singleton_roundtrip;
          Alcotest.test_case "comments and blanks" `Quick
            test_edge_list_comments_and_blanks;
          Alcotest.test_case "malformed" `Quick test_edge_list_malformed;
          Alcotest.test_case "dot output" `Quick test_dot_output;
          Alcotest.test_case "ascii art" `Quick test_ascii_art;
        ] );
    ]

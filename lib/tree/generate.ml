module LT = Labeled_tree

(* "v" and [i] zero-padded to [width] digits, as [Printf "v%0*d"] would. *)
let label_of_int ~width i =
  let b = Bytes.make (width + 1) 'v' and d = ref i in
  for pos = width downto 1 do
    Bytes.set b pos (Char.chr (48 + (!d mod 10)));
    d := !d / 10
  done;
  Bytes.unsafe_to_string b

let labels_of_size n =
  if n < 1 then invalid_arg "Generate: need at least one vertex";
  let width = max 3 (String.length (string_of_int (n - 1))) in
  Array.init n (label_of_int ~width)

let of_int_edges n edges = LT.of_int_edges ~labels:(labels_of_size n) edges

let path n = of_int_edges n (List.init (max 0 (n - 1)) (fun i -> (i, i + 1)))

let star n = of_int_edges n (List.init (max 0 (n - 1)) (fun i -> (0, i + 1)))

let balanced ~arity ~depth =
  if arity < 1 || depth < 0 then invalid_arg "Generate.balanced";
  (* Number the vertices level by level; child j of vertex i is
     [i * arity + j + 1] as in an array-embedded heap. *)
  let rec size d = if d = 0 then 1 else 1 + (arity * size (d - 1)) in
  let n = size depth in
  let edges = ref [] in
  let rec emit v d =
    if d < depth then
      for j = 0 to arity - 1 do
        let c = (v * arity) + j + 1 in
        edges := (v, c) :: !edges;
        emit c (d + 1)
      done
  in
  emit 0 0;
  of_int_edges n !edges

let caterpillar ~spine ~legs =
  if spine < 1 || legs < 0 then invalid_arg "Generate.caterpillar";
  let n = spine * (1 + legs) in
  let edges = ref [] in
  for i = 0 to spine - 2 do
    edges := (i, i + 1) :: !edges
  done;
  let next = ref spine in
  for i = 0 to spine - 1 do
    for _ = 1 to legs do
      edges := (i, !next) :: !edges;
      incr next
    done
  done;
  of_int_edges n !edges

let spider ~legs ~leg_length =
  if legs < 0 || leg_length < 1 then invalid_arg "Generate.spider";
  let n = 1 + (legs * leg_length) in
  let edges = ref [] in
  let next = ref 1 in
  for _ = 1 to legs do
    let first = !next in
    edges := (0, first) :: !edges;
    incr next;
    for _ = 2 to leg_length do
      edges := (!next - 1, !next) :: !edges;
      incr next
    done
  done;
  of_int_edges n !edges

let broom ~handle ~bristles =
  if handle < 1 || bristles < 0 then invalid_arg "Generate.broom";
  let n = handle + bristles in
  let edges = ref [] in
  for i = 0 to handle - 2 do
    edges := (i, i + 1) :: !edges
  done;
  for j = 0 to bristles - 1 do
    edges := (handle - 1, handle + j) :: !edges
  done;
  of_int_edges n !edges

let random rng n =
  if n < 1 then invalid_arg "Generate.random";
  if n <= 2 then path n
  else begin
    let seq = Array.init (n - 2) (fun _ -> Aat_util.Rng.int rng n) in
    of_int_edges n (Prufer.decode seq)
  end

let random_of_diameter rng ~n ~diameter =
  if diameter < 1 || diameter > n - 1 then invalid_arg "Generate.random_of_diameter";
  if n > diameter + 1 && diameter < 2 then
    invalid_arg "Generate.random_of_diameter: cannot pad a diameter-1 tree";
  (* Backbone 0..diameter; each extra vertex attaches to a vertex whose
     eccentricity headroom allows it: attaching v at backbone position p or
     to a previously attached vertex of depth k keeps the diameter iff the
     new vertex's distance to both backbone ends stays <= diameter. We track
     each vertex's distance to both ends. *)
  let backbone = diameter + 1 in
  let dist_a = Array.make n 0 and dist_b = Array.make n 0 in
  let edges = ref [] in
  for i = 0 to backbone - 2 do
    edges := (i, i + 1) :: !edges
  done;
  for i = 0 to backbone - 1 do
    dist_a.(i) <- i;
    dist_b.(i) <- diameter - i
  done;
  let eligible = ref [] in
  for i = 0 to backbone - 1 do
    if dist_a.(i) + 1 <= diameter && dist_b.(i) + 1 <= diameter then
      eligible := i :: !eligible
  done;
  let eligible = ref (Array.of_list !eligible) in
  for v = backbone to n - 1 do
    if Array.length !eligible = 0 then
      invalid_arg "Generate.random_of_diameter: no room to attach";
    let host = Aat_util.Rng.pick rng !eligible in
    edges := (host, v) :: !edges;
    dist_a.(v) <- dist_a.(host) + 1;
    dist_b.(v) <- dist_b.(host) + 1;
    if dist_a.(v) + 1 <= diameter && dist_b.(v) + 1 <= diameter then
      eligible := Array.append !eligible [| v |]
  done;
  of_int_edges n !edges

(* The --gen grammar, one row per family: name, arity, generator call. *)
type spec = string * int list

let families =
  [
    ("path", 1, fun a -> path a.(0));
    ("star", 1, fun a -> star a.(0));
    ("caterpillar", 2, fun a -> caterpillar ~spine:a.(0) ~legs:a.(1));
    ("spider", 2, fun a -> spider ~legs:a.(0) ~leg_length:a.(1));
    ("balanced", 2, fun a -> balanced ~arity:a.(0) ~depth:a.(1));
    ("broom", 2, fun a -> broom ~handle:a.(0) ~bristles:a.(1));
    ("random", 2, fun a -> random (Aat_util.Rng.create a.(1)) a.(0));
    ( "diameter",
      3,
      fun a ->
        random_of_diameter (Aat_util.Rng.create a.(2)) ~n:a.(0) ~diameter:a.(1)
    );
  ]

let spec =
  let module C = Aat_util.Codec in
  let case (name, arity, _) =
    C.case name
      (C.conv
         (fun a ->
           if List.length a = arity then Ok a
           else Error (Printf.sprintf "expected %d integers" arity))
         Fun.id (C.list ':' C.int))
      (fun a -> (name, a))
      (fun (n, a) -> if n = name then Some a else None)
  in
  C.cases "tree spec" (List.map case families)

let of_spec (name, args) =
  let _, _, generate = List.find (fun (n, _, _) -> n = name) families in
  generate (Array.of_list args)

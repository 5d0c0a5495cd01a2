type vertex = int

type t = { labels : string array; adj : vertex list array; diameter : int }

exception Invalid_tree of string

let invalid fmt = Format.kasprintf (fun s -> raise (Invalid_tree s)) fmt

(* Position of [l] in the strictly increasing [labels], or -1. *)
let rank labels l =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) / 2 in
      let c = String.compare labels.(mid) l in
      if c = 0 then mid else if c < 0 then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length labels)

let n_vertices t = Array.length t.labels

let label t v = t.labels.(v)

let vertex_of_label t l =
  match rank t.labels l with -1 -> raise Not_found | v -> v

let mem_label t l = rank t.labels l >= 0

let neighbors t v = t.adj.(v)

let degree t v = List.length t.adj.(v)

let is_leaf t v = degree t v <= 1

let root _ = 0

let diameter t = t.diameter

let vertices t = List.init (n_vertices t) Fun.id

let fold_vertices f t init =
  let acc = ref init in
  for v = 0 to n_vertices t - 1 do
    acc := f v !acc
  done;
  !acc

let adjacent t u v = List.mem v t.adj.(u)

let edges t =
  fold_vertices
    (fun u acc ->
      List.fold_left (fun acc v -> if u < v then (u, v) :: acc else acc) acc t.adj.(u))
    t []
  |> List.sort compare

(* Reached only when some edge is a self-loop or a repeat: reports the first
   such edge in input order. *)
let reject_bad_edge labels edges =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (u, v) ->
      if u = v then invalid "self-loop at %S" labels.(u);
      if Hashtbl.mem seen (min u v, max u v) then
        invalid "duplicate edge %S-%S" labels.(u) labels.(v);
      Hashtbl.add seen (min u v, max u v) ())
    edges

let of_int_edges ~labels edges =
  let n = Array.length labels in
  if n = 0 then invalid "empty vertex set";
  for i = 1 to n - 1 do
    let c = String.compare labels.(i - 1) labels.(i) in
    if c = 0 then invalid "duplicate labels"
    else if c > 0 then invalid "labels are not in increasing order"
  done;
  let m = List.length edges in
  if m <> n - 1 then
    invalid "a tree on %d vertices needs %d edges, got %d" n (n - 1) m;
  let unsorted = Array.make n [] in
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid "edge endpoint out of range: %d-%d" u v;
      unsorted.(u) <- v :: unsorted.(u);
      unsorted.(v) <- u :: unsorted.(v))
    edges;
  (* Pushing each v, from the highest down, onto its neighbours' lists
     sorts every list. A repeated edge, or a self-loop (u lists itself
     twice), pushes the same v twice in a row. *)
  let adj = Array.make n [] and bad = ref false in
  let rec push v = function
    | [] -> ()
    | u :: rest ->
        (match adj.(u) with w :: _ when w = v -> bad := true | _ -> ());
        adj.(u) <- v :: adj.(u);
        push v rest
  in
  for v = n - 1 downto 0 do
    push v unsorted.(v)
  done;
  if !bad then reject_bad_edge labels edges;
  (* BFS from vertex 0, recording each vertex's parent (-1 while unseen).
     With n - 1 edges and no loops or repeats, connected means acyclic. *)
  let queue = Array.make n 0 and parent = Array.make n (-1) and reached = ref 1 in
  let rec visit u = function
    | [] -> ()
    | v :: rest ->
        if parent.(v) < 0 then (parent.(v) <- u; queue.(!reached) <- v; incr reached);
        visit u rest
  in
  parent.(0) <- 0;
  let head = ref 0 in
  while !head < !reached do
    let u = queue.(!head) in
    visit u adj.(u);
    incr head
  done;
  if !reached <> n then invalid "graph is disconnected (%d of %d reachable)" !reached n;
  (* The diameter, from subtree heights in reverse BFS order: a vertex's
     children all come after it, so its height is final when it is
     reached, and the longest path through its parent joins it to the
     tallest child merged there before it. *)
  let height = Array.make n 0 and diameter = ref 0 in
  for i = n - 1 downto 1 do
    let v = queue.(i) in
    let p = parent.(v) and h = height.(v) + 1 in
    diameter := max !diameter (height.(p) + h);
    if h > height.(p) then height.(p) <- h
  done;
  { labels = Array.copy labels; adj; diameter = !diameter }

let of_labeled_edges ?(isolated = []) edges =
  let labels =
    List.concat_map (fun (a, b) -> [ a; b ]) edges @ isolated
    |> List.sort_uniq String.compare |> Array.of_list
  in
  let vertex = rank labels in
  of_int_edges ~labels (List.map (fun (a, b) -> (vertex a, vertex b)) edges)

let singleton l = of_int_edges ~labels:[| l |] []

let of_parents ~labels parent =
  let n = Array.length labels in
  if Array.length parent <> n then invalid "of_parents: length mismatch";
  let roots = Array.fold_left (fun k p -> if p = -1 then k + 1 else k) 0 parent in
  if roots <> 1 then
    invalid "of_parents: expected exactly one root (-1), got %d" roots;
  let sorted = Array.copy labels in
  Array.sort String.compare sorted;
  let vertex i = rank sorted labels.(i) in
  let edges = ref [] in
  Array.iteri
    (fun i p ->
      if p <> -1 then begin
        if p < 0 || p >= n then invalid "of_parents: parent %d out of range" p;
        edges := (vertex i, vertex p) :: !edges
      end)
    parent;
  of_int_edges ~labels:sorted !edges

let equal a b =
  Array.length a.labels = Array.length b.labels
  && a.labels = b.labels
  && a.adj = b.adj

let pp fmt t =
  let pp_edge fmt (u, v) =
    Format.fprintf fmt "%s-%s" t.labels.(u) t.labels.(v)
  in
  match edges t with
  | [] -> Format.fprintf fmt "tree{%s}" t.labels.(0)
  | es ->
      Format.fprintf fmt "tree{%a}"
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "; ")
           pp_edge)
        es

module LT = Labeled_tree

type t = {
  rooted : Rooted.t;
  tour : LT.vertex array;
  depth : int array; (* depth.(i) = depth of tour.(i) *)
  first : int array; (* per vertex *)
  last : int array; (* per vertex *)
  occ : int list array; (* per vertex, increasing *)
}

let compute rooted =
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
  (* Iterative DFS mirroring Rooted's traversal: record on entry, and record
     the parent again each time a child's subtree completes. A vertex's
     children are its neighbours one level deeper, in label order; [rest.(v)]
     is the part of [v]'s neighbour list not yet looked at. *)
  let stack = Array.make n 0 and rest = Array.make n [] and top = ref 0 in
  let push v =
    record v;
    stack.(!top) <- v;
    incr top;
    rest.(v) <- LT.neighbors tree v
  in
  push (Rooted.root rooted);
  while !top > 0 do
    let v = stack.(!top - 1) in
    match rest.(v) with
    | [] ->
        decr top;
        if !top > 0 then record stack.(!top - 1)
    | u :: tl ->
        rest.(v) <- tl;
        if Rooted.depth rooted u > Rooted.depth rooted v then push u
  done;
  assert (!pos = len);
  let first = Array.make n (-1) and last = Array.make n (-1) in
  let occ = Array.make n [] in
  for i = len - 1 downto 0 do
    let v = tour.(i) in
    if last.(v) = -1 then last.(v) <- i;
    first.(v) <- i;
    occ.(v) <- i :: occ.(v)
  done;
  { rooted; tour; depth; first; last; occ }

let tour t = Array.copy t.tour

let length t = Array.length t.tour

let vertex_at t i = t.tour.(i)

let depth_at t i = t.depth.(i)

let occurrences t v = t.occ.(v)

let first_occurrence t v = t.first.(v)

let last_occurrence t v = t.last.(v)

let rooted t = t.rooted

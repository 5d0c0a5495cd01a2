module LT = Labeled_tree

(* Farthest vertex from [src]; ties broken toward the smaller vertex id
   (i.e. the lower label) so results are deterministic. *)
let farthest t src =
  let dist = Paths.bfs_distances t src in
  let best = ref src in
  Array.iteri (fun v d -> if d > dist.(!best) then best := v) dist;
  (!best, dist.(!best))

let diameter_endpoints t =
  let a, _ = farthest t (LT.root t) in
  let b, _ = farthest t a in
  if a <= b then (a, b) else (b, a)

let diameter = LT.diameter

let longest_path t =
  let a, b = diameter_endpoints t in
  let r = Rooted.make t in
  Paths.orient t (Paths.between r a b)

let eccentricity t v =
  let dist = Paths.bfs_distances t v in
  Array.fold_left max 0 dist

let all_eccentricities t =
  Array.init (LT.n_vertices t) (fun v -> eccentricity t v)

let radius t = (diameter t + 1) / 2

let center t =
  (* Peel leaves layer by layer; the last non-empty layer (1 or 2 vertices)
     is the center. *)
  let n = LT.n_vertices t in
  if n = 1 then [ 0 ]
  else begin
    let deg = Array.init n (fun v -> LT.degree t v) in
    let removed = Array.make n false in
    let layer = ref [] in
    for v = 0 to n - 1 do
      if deg.(v) <= 1 then layer := v :: !layer
    done;
    let remaining = ref n in
    let current = ref (List.rev !layer) in
    while !remaining > 2 do
      let next = ref [] in
      List.iter
        (fun v ->
          removed.(v) <- true;
          decr remaining;
          List.iter
            (fun u ->
              if not removed.(u) then begin
                deg.(u) <- deg.(u) - 1;
                if deg.(u) = 1 then next := u :: !next
              end)
            (LT.neighbors t v))
        !current;
      current := List.rev !next
    done;
    List.filter (fun v -> not removed.(v)) (LT.vertices t)
  end

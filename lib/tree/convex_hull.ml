module LT = Labeled_tree

type t = {
  mask : bool array;
  members : LT.vertex list;
  generators : LT.vertex list;
}

(* Root the tree at some s0 ∈ S; then v ∈ ⟨S⟩ iff v's subtree contains an
   element of S: such a v lies on P(u, s0) for any S-element u below it, and
   conversely every vertex of a path between S-elements has one of them in
   its subtree. Any s0 will do, so a view rooted in S is used as it is.
   Subtree counts are accumulated bottom-up over the preorder sequence. *)
let compute rooted s =
  match s with
  | [] -> invalid_arg "Convex_hull.compute: empty generator set"
  | s0 :: _ ->
      let tree = Rooted.tree rooted in
      let n = LT.n_vertices tree in
      let anchored =
        if List.mem (Rooted.root rooted) s then rooted else Rooted.make ~root:s0 tree
      in
      let count = Array.make n 0 in
      List.iter (fun v -> count.(v) <- count.(v) + 1) s;
      let pre = Rooted.preorder anchored in
      for i = n - 1 downto 1 do
        let v = pre.(i) in
        match Rooted.parent anchored v with
        | Some p -> count.(p) <- count.(p) + count.(v)
        | None -> ()
      done;
      let mask = Array.map (fun c -> c > 0) count in
      let members = ref [] in
      for v = n - 1 downto 0 do
        if mask.(v) then members := v :: !members
      done;
      { mask; members = !members; generators = List.sort_uniq compare s }

let mem t v = t.mask.(v)

let vertices t = t.members

let size t = List.length t.members

let generators t = t.generators

let subset a b = List.for_all (fun v -> b.mask.(v)) a.members

let on_some_pair_path rooted s w =
  List.exists
    (fun u ->
      List.exists
        (fun v ->
          Paths.distance rooted u w + Paths.distance rooted w v
          = Paths.distance rooted u v)
        s)
    s

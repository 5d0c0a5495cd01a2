open Aat_tree
open Aat_realaa

type state = Labeled_tree.vertex Bdh.state

let canonical_order path_tree =
  let n = Labeled_tree.n_vertices path_tree in
  if Labeled_tree.fold_vertices
       (fun v bad -> bad || Labeled_tree.degree path_tree v > 2)
       path_tree false
  then invalid_arg "Path_aa: input space is not a path";
  if n = 1 then [| 0 |]
  else begin
    let p = Metrics.longest_path path_tree in
    if Array.length p <> n then invalid_arg "Path_aa: input space is not a path";
    Paths.orient path_tree p
  end

let rounds ~path =
  Rounds.bdh_rounds ~range:(float_of_int (Metrics.diameter path)) ~eps:1.

let protocol ~path ~inputs ~t =
  let order = canonical_order path in
  let position = Array.make (Array.length order) 0 in
  Array.iteri (fun idx v -> position.(v) <- idx) order;
  Bdh.on_index ~name:"path-aa" ~length:(Array.length order)
    ~position:(fun self -> position.(inputs self))
    ~at:(Array.get order) ~t ()

let observe = Bdh.observe

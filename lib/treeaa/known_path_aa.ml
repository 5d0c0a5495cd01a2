open Aat_tree
open Aat_realaa

type state = Labeled_tree.vertex Bdh.state

let rounds ~path =
  Rounds.bdh_rounds ~range:(float_of_int (Array.length path - 1)) ~eps:1.

let protocol ~tree ~path ~inputs ~t =
  if not (Paths.is_path tree path) then
    invalid_arg "Known_path_aa: not a path of the tree";
  let rooted = Rooted.make tree in
  Bdh.on_index ~name:"known-path-aa" ~length:(Array.length path)
    ~position:(fun self -> Projection.onto_path_index rooted path (inputs self))
    ~at:(Array.get path) ~t ()

let observe = Bdh.observe

open Aat_tree
open Aat_realaa

type state = Bdh.state

(* |L| - 1 = 2·|V(T)| - 2 (Lemma 2): the schedule needs no tour. *)
let rounds ~tree =
  let range = (2 * Labeled_tree.n_vertices tree) - 2 in
  Rounds.bdh_rounds ~range:(float_of_int range) ~eps:1.

let protocol ~rooted ~inputs ~t =
  let tour = Euler_tour.compute rooted in
  let len = Euler_tour.length tour in
  let iterations =
    Rounds.bdh_iterations ~range:(float_of_int (len - 1)) ~eps:1.
  in
  let real_inputs self =
    float_of_int (Euler_tour.first_occurrence tour (inputs self))
  in
  let to_path (r : Bdh.result) =
    let c = Closest_int.closest_int r.value in
    let c = max 0 (min (len - 1) c) in
    let target = Euler_tour.vertex_at tour c in
    (* P(v_root, L_c): root-to-vertex order. *)
    Array.of_list (Rooted.path_to_root rooted target)
  in
  let base = Bdh.protocol ~inputs:real_inputs ~t ~iterations () in
  { (Aat_engine.Protocol.map_output to_path base) with name = "paths-finder" }

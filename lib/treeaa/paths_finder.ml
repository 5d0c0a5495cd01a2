open Aat_tree
open Aat_realaa

type state = Paths.path Bdh.state

(* |L| - 1 = 2·|V(T)| - 2 (Lemma 2): the schedule needs no tour. *)
let rounds ~tree =
  let range = (2 * Labeled_tree.n_vertices tree) - 2 in
  Rounds.bdh_rounds ~range:(float_of_int range) ~eps:1.

let protocol ~rooted ~inputs ~t =
  let tour = Euler_tour.compute rooted in
  Bdh.on_index ~name:"paths-finder" ~length:(Euler_tour.length tour)
    ~position:(fun self -> Euler_tour.first_occurrence tour (inputs self))
    ~at:(fun c ->
      (* P(v_root, L_c): root-to-vertex order. *)
      Array.of_list (Rooted.path_to_root rooted (Euler_tour.vertex_at tour c)))
    ~t ()

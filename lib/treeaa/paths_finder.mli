(** PathsFinder (Section 6): approximate agreement on a root-anchored path
    that intersects the honest inputs' convex hull.

    Each party computes the Euler-tour list [L = ListConstruction(T,
    v_root)] locally (identical everywhere), joins RealAA(1) with
    [min L(v_IN)] — the first occurrence of its input vertex — and returns
    the path from the root to [L_closestInt(j)].

    Lemma 4 guarantees: (1) every returned path intersects the honest
    inputs' hull (via Lemma 3 — the LCA of the extreme honest indices lies
    on every such root path); and (2) the returned paths are identical up
    to one extra edge, because the returned endpoints are 1-close vertices
    on consecutive tour positions. The fixed schedule is
    [R_PathsFinder = Rounds.bdh_rounds ~range:(|L| - 1) ~eps:1.] with
    [|L| - 1 = 2·|V(T)| - 2 <= 2·|V(T)|], matching the paper's
    [R_RealAA(2·|V(T)|, 1)] bound. *)

open Aat_tree
open Aat_engine
open Aat_gradecast

type state

val protocol :
  rooted:Rooted.t ->
  inputs:(Types.party_id -> Labeled_tree.vertex) ->
  t:int ->
  (state, float Gradecast.Multi.msg, Paths.path) Protocol.t
(** The tour is built from [rooted], the view TreeAA roots at [v_root].
    Output paths run from its root (index 0) to the agreed vertex, the
    orientation Section 7 numbers them in. *)

val rounds : tree:Labeled_tree.t -> int
(** Exact number of rounds of the fixed schedule (may be 0 for trees with
    [|V(T)| <= 1]). It reads only [|V(T)|]: [|L| = 2·|V(T)| - 1] for every
    tree (Lemma 2), so no tour is built. *)

(** Warm-up: AA when the input space is a labeled path (Section 4).

    The parties number the path's vertices [(v_1, ..., v_k)] from the
    endpoint with the lexicographically lower label, join RealAA(1) with
    their vertex's position, and output the vertex at [closestInt] of the
    real result. Remark 1 gives Validity, Remark 2 gives 1-Agreement, and
    Theorem 3 gives [O(log D(P) / log log D(P))] rounds. *)

open Aat_tree
open Aat_engine
open Aat_gradecast

type state

val protocol :
  path:Labeled_tree.t ->
  inputs:(Types.party_id -> Labeled_tree.vertex) ->
  t:int ->
  (state, float Gradecast.Multi.msg, Labeled_tree.vertex) Protocol.t
(** [path] must be a path graph (every vertex of degree <= 2); raises
    [Invalid_argument] otherwise. *)

val rounds : path:Labeled_tree.t -> int
(** The exact fixed schedule: [Rounds.bdh_rounds ~range:(D(P)) ~eps:1.]. *)

val canonical_order : Labeled_tree.t -> Paths.path
(** The paper's [(v_1, ..., v_k)] numbering: the path's vertices from the
    lower-labeled endpoint. *)

val observe : state -> float option
(** The party's current RealAA value (its position on the path), for
    [Sync_engine.run ~observe] convergence snapshots. *)

(** Stepping stone: AA on a tree when a path intersecting the honest
    inputs' convex hull is publicly known (Section 5).

    Every party projects its input vertex onto the known path [P]
    ([Projection]); Lemma 1 puts all honest projections inside
    [V(P) ∩ ⟨honest inputs⟩], so running the Section-4 machinery on the
    projections' positions yields 1-close, valid vertices of [P]. *)

open Aat_tree
open Aat_engine
open Aat_gradecast

type state

val protocol :
  tree:Labeled_tree.t ->
  path:Paths.path ->
  inputs:(Types.party_id -> Labeled_tree.vertex) ->
  t:int ->
  (state, float Gradecast.Multi.msg, Labeled_tree.vertex) Protocol.t
(** [path] is a path of [tree] (checked), oriented as given — callers that
    want the paper's lexicographic orientation pass
    [Paths.orient tree path]. The fixed schedule is
    [Rounds.bdh_rounds ~range:(|path| - 1) ~eps:1.]. *)

val rounds : path:Paths.path -> int

val observe : state -> float option
(** The party's current RealAA value (its projection's position on the
    known path), for [Sync_engine.run ~observe] snapshots. *)

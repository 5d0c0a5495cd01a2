(** Lifting single-protocol adversaries to two-phase compositions.

    TreeAA is [Protocol.sequential] of two RealAA-based phases whose wire
    type is [('m1, 'm2) Composed.msg]. {!phased} runs one adversary against
    phase one and another against phase two, translating views and letters
    across the phase boundary — e.g. the RealAA {!Spoiler} can attack both
    the PathsFinder agreement and the projection agreement. *)

open Aat_engine

val phased :
  name:string ->
  barrier:int ->
  first:'m1 Adversary.t ->
  second:'m2 Adversary.t ->
  ('m1, 'm2) Composed.msg Adversary.t
(** [barrier] is the composition's [rounds_of_first]. The corruption set is
    [first]'s (both phases attack with the same corrupted parties, as the
    model requires — corruption is permanent). [second] sees rounds
    renumbered from 1 and only phase-two traffic. The composite reads
    history iff either phase does, and each phase's view carries history
    only if that phase declares [reads_history]. *)

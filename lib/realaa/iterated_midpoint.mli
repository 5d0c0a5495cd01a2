(** The classic iteration-based AA outline ([12]; also the per-iteration
    shape of [33]) — the baselines RealAA is measured against.

    Two variants:

    - {!naive}: one round per iteration. Everyone broadcasts its value,
      trims [t] from each side of what it received, and moves to the
      midpoint. Synchronous, [t < n/3]; the honest spread at least halves
      per iteration, so [⌈log2(D/ε)⌉] iterations suffice — the classic
      [O(log (D/ε))]-round protocol.

    - {!with_gradecast}: three rounds per iteration; values are distributed
      by multi-gradecast so honest parties' multisets agree on every common
      entry (this mirrors the reliable-broadcast distribution of the
      asynchronous protocols [1, 33]). Same halving rate. This variant
      exists because the tree baseline (Nowak–Rybicki style) needs the
      consistent-multiset property, and to quantify gradecast's 3× round
      overhead in the benchmarks.

    Neither variant blacklists equivocators across iterations — the whole
    point of the comparison with {!Bdh}: a Byzantine party here can slow
    convergence in {e every} iteration, pinning the factor at 1/2, whereas
    RealAA's detection forces the [t^R/(R^R (n-2t)^R)] factor of Lemma 5. *)

open Aat_engine
open Aat_gradecast

type result = { value : float; trajectory : float list }

type naive_state

type gc_state

val naive :
  inputs:(Types.party_id -> float) ->
  t:int ->
  iterations:int ->
  (naive_state, float, result) Protocol.t

val with_gradecast :
  inputs:(Types.party_id -> float) ->
  t:int ->
  iterations:int ->
  (gc_state, float Gradecast.Multi.msg, result) Protocol.t

val naive_simple :
  inputs:(Types.party_id -> float) ->
  t:int ->
  iterations:int ->
  (naive_state, float, float) Protocol.t

val observe_gradecast : gc_state -> float option
(** The party's current value — convergence snapshots for telemetry. *)

val run_naive :
  ?seed:int ->
  ?telemetry:Aat_telemetry.Telemetry.Sink.t ->
  inputs:float array ->
  t:int ->
  iterations:int ->
  adversary:float Adversary.t ->
  unit ->
  (result, float) Sync_engine.report
(** Unified Runner signature over {!naive}: [inputs.(i)] is party [i]'s
    input, [max_rounds] pinned to the [iterations]-round schedule. *)

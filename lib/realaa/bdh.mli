(** RealAA — the gradecast-based approximate agreement protocol of Ben-Or,
    Dolev & Hoch ([6], full version [7]), the building block of TreeAA.

    Each iteration (3 rounds, Remark 3) every party gradecasts its current
    value ({!Gradecast.Multi}). A party then

    - {b blacklists forever} every leader whose gradecast came back with
      grade ≤ 1, dropping all its future messages. An inclusion
      inconsistency (value used by one honest party, dropped by another)
      needs a 1/0 grade split, which by gradecast soundness means every
      honest party saw grade ≤ 1 — so the leader is convicted everywhere at
      once and can never cause an inconsistency again. This is the paper's
      "each Byzantine party causes inconsistencies at most once" mechanism
      that lets RealAA beat the classic halving outline;
    - collects the values of all leaders graded ≥ 1 this iteration,
      discards the [t] lowest and [t] highest, and moves to the arithmetic
      mean of what remains (the "average" step of Section 4 — averaging,
      not min-max midpointing, is what caps one planted value's pull at
      [range/(n-2t)]).

    Lemma 5: after [R] iterations the honest spread is at most
    [D · t^R / (R^R (n - 2t)^R)]; Lemma 6: values never leave the honest
    input range. With the fixed schedule [Rounds.bdh_iterations] this
    yields AA per Theorem 3.

    The protocol here runs the fixed schedule (all honest parties decide in
    the same round), which is what TreeAA's round barrier requires. *)

open Aat_engine
open Aat_gradecast

type result = {
  value : float;  (** the AA output *)
  trajectory : float list;
      (** the party's value after each iteration, oldest first (initial
          input excluded) — instrumentation for the convergence
          experiments *)
  blacklisted : Types.party_id list;  (** convicted equivocators *)
}

type state

type averaging = Mean | Midpoint

(** Ablation switches. The faithful protocol is {!faithful}; turning any
    knob off reproduces a design variant whose failure mode the ablation
    experiments (A1-A3 in the bench harness) demonstrate:

    - [blacklist = false]: equivocators are never remembered — each
      Byzantine party can cause an inclusion split in {e every} iteration,
      pinning convergence at the classic outline's rate and breaking the
      Theorem 3 schedule;
    - [adaptive_trim = false]: always trim the full [t] — the averaging
      window shrinks as parties are blacklisted and single planted values
      regain leverage, breaking the Lemma 5 factor;
    - [averaging = Midpoint]: min-max midpoint instead of the mean — one
      inclusion split moves the result by half the window regardless of
      [n], again breaking Lemma 5. *)
type knobs = { blacklist : bool; adaptive_trim : bool; averaging : averaging }

val faithful : knobs

val observe : state -> float option
(** The party's current value — pass as [Sync_engine.run ~observe] to record
    per-round honest-value snapshots (convergence curves) in telemetry. *)

val protocol :
  ?share:float Gradecast.Multi.share ->
  ?knobs:knobs ->
  inputs:(Types.party_id -> float) ->
  t:int ->
  iterations:int ->
  unit ->
  (state, float Gradecast.Multi.msg, result) Protocol.t
(** [iterations] is normally [Rounds.bdh_iterations ~range ~eps] for the
    public input-range bound; the protocol terminates after exactly
    [3 * iterations] rounds. [knobs] defaults to {!faithful}. Every party
    runs its gradecasts on [share], by default one made for this protocol
    value; TreeAA passes one to the phase-two protocol each party builds. *)

val simple :
  inputs:(Types.party_id -> float) ->
  t:int ->
  iterations:int ->
  (state, float Gradecast.Multi.msg, float) Protocol.t
(** {!protocol} projected to just the output value. *)

val run :
  ?seed:int ->
  ?telemetry:Aat_telemetry.Telemetry.Sink.t ->
  ?knobs:knobs ->
  inputs:float array ->
  t:int ->
  iterations:int ->
  adversary:float Gradecast.Multi.msg Adversary.t ->
  unit ->
  (result, float Gradecast.Multi.msg) Sync_engine.report
(** Convenience wrapper implementing the unified Runner signature
    ([~seed ?telemetry ~adversary] + protocol config, like
    [Tree_aa.run]): [inputs.(i)] is party [i]'s input,
    [n = Array.length inputs], [max_rounds] pinned to the fixed
    [3 * iterations] schedule, {!observe} installed for telemetered
    convergence snapshots. *)

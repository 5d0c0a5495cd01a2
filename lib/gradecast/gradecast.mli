(** Gradecast — the value-distribution mechanism of RealAA ([6], [7]).

    Gradecast is broadcast with a confidence grade. A leader distributes a
    value; every party outputs a [(value, grade)] pair with grade ∈ {0,1,2}
    such that, for [t < n/3] Byzantine parties:

    - {b validity}: if the leader is honest, every honest party outputs the
      leader's value with grade 2;
    - {b soundness}: if an honest party outputs grade 2 for value [v], every
      honest party outputs [v] with grade ≥ 1;
    - {b agreement on blame}: if an honest party outputs grade ≤ 1, every
      honest party outputs grade ≤ 1 — so grade ≤ 1 from one honest party's
      view convicts the leader of misbehaving {e for everyone} after one
      more exchange; RealAA uses grade < 2 as evidence to blacklist the
      leader forever (the "every Byzantine party causes inconsistencies at
      most once" mechanism the paper highlights).

    The protocol is the classic 3-round echo/vote scheme: round 1 the
    leader sends; round 2 everyone echoes; round 3 everyone votes for a
    value echoed by ≥ n - t parties; a party grades 2 on ≥ n - t votes, 1 on
    ≥ t + 1 votes, 0 otherwise.

    {!Multi} runs [n] simultaneous instances — every party a leader of its
    own — in the same 3 rounds; that is one RealAA iteration's distribution
    step. *)

open Aat_engine

type grade = G0 | G1 | G2

val grade_to_int : grade -> int

type 'v result = { value : 'v option; grade : grade }
(** [value] is [None] iff [grade = G0]. *)

module Multi : sig
  (** Composable [n]-leader gradecast: 3 rounds, each party the leader of
      instance [i] for its own id [i]. Embed these functions into a larger
      protocol's state machine (RealAA calls one [Multi] per iteration). *)

  (** The wire format is deliberately public: Byzantine strategies in
      [Aat_adversary] forge these constructors, which is exactly what a
      real Byzantine party can do. *)
  type 'v msg =
    | Value of 'v  (** round 1: the leader's value for its own instance *)
    | Echo of 'v option array  (** round 2: per-leader echo vector *)
    | Vote of 'v option array  (** round 3: per-leader vote vector *)

  type 'v state

  type 'v share
  (** Shared by the parties of one run: the all-[None] row every empty
      table slot points at, and the last round-3 vote and grades with the
      [t] and row pointers they came from. A party whose table holds the
      very same row in every slot, at the same [t], takes them instead of
      counting again, so round 3 counts once per table when honest parties
      hold the same rows by reference. It relies on the rule for every
      stored row, now across parties too: a row, vote or results array
      handed over is never mutated afterwards, by anyone. *)

  val share : unit -> 'v share
  (** A fresh share; a protocol value makes one for all its parties. *)

  val rounds : int
  (** = 3 *)

  val start :
    share:'v share -> n:int -> t:int -> self:Types.party_id -> own:'v -> 'v state
  (** Begin an instance batch where this party gradecasts [own]. *)

  val next : 'v state -> own:'v -> 'v state
  (** Begin the next batch on the same share, [n], [t] and party. *)

  val send : round:int -> 'v state -> 'v msg Protocol.outbox
  (** [round] is 1-, 2- or 3- relative to the batch start. Every round is
      a broadcast: one [To_all] message. *)

  val receive : round:int -> inbox:'v msg Inbox.t -> 'v state -> 'v state

  val results : 'v state -> 'v result array
  (** Per-leader outcomes, in a fresh array (the state's may be shared
      with other parties); only meaningful after round 3's [receive].
      Raises [Invalid_argument] before that. *)
end

(** Single-leader gradecast as a standalone {!Protocol.t}, used by the test
    suite to validate the gradecast properties in isolation. Every party
    inputs a value but only [leader]'s instance is reported. *)
val protocol :
  leader:Types.party_id ->
  inputs:(Types.party_id -> 'v) ->
  t:int ->
  ('v Multi.state, 'v Multi.msg, 'v result) Protocol.t

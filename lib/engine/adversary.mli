(** The Byzantine adversary — an alias of the runtime-layer
    {!Aat_runtime.Adversary}, re-exported so strategy code keeps its
    historical [Aat_engine.Adversary] spelling.

    The interface is engine-agnostic: the same record drives the
    synchronous engine directly and the asynchronous engine via
    [Aat_async.Async_engine.adversary] (which adds only a scheduler). See
    {!Aat_runtime.Adversary} for the full contract, including how the view
    fields read under each engine. *)

type 'msg view = 'msg Aat_runtime.Adversary.view = {
  round : Types.round;
  n : int;
  t : int;
  corrupted : bool array;  (** current corruption set, length [n] *)
  honest_outbox : 'msg Types.letter list;
      (** what honest parties are sending this round (rushing power) *)
  history : 'msg Types.letter list list;
      (** delivered traffic of past rounds, most recent first; [[]]
          unless the strategy declares [reads_history] *)
  rng : Aat_util.Rng.t;  (** adversary's private randomness *)
}

type 'msg t = 'msg Aat_runtime.Adversary.t = {
  name : string;
  passive : bool;
      (** Observably inert: never corrupts, never sends, never reads its
          view — lets engines skip view materialisation. Only
          {!passive} sets this. *)
  reads_history : bool;
      (** Reads [view.history] — engines retain delivered letters for the
          view only then. Set by the strategy's own constructor:
          [Strategies.puppeteer], and [Compose.phased] as the OR of its
          phases. *)
  initial_corruptions : n:int -> t:int -> Aat_util.Rng.t -> Types.party_id list;
      (** Corrupted set at round 1; may be empty for a purely adaptive
          strategy. Lists longer than [t] are truncated by the engine. *)
  corrupt_more : 'msg view -> Types.party_id list;
      (** Additional corruptions for this round, requested after seeing the
          honest outbox (adaptivity). Budget-capped by the engine. *)
  deliver : 'msg view -> 'msg Types.letter list;
      (** The corrupted parties' messages for this round. Letters whose
          [src] is not corrupted are dropped (and logged) — authenticated
          channels make them impossible. *)
}

val passive : string -> 'msg t
(** No corruptions at all: the fault-free baseline case. *)

val static :
  name:string ->
  pick:(n:int -> t:int -> Aat_util.Rng.t -> Types.party_id list) ->
  deliver:('msg view -> 'msg Types.letter list) ->
  'msg t
(** Static adversary: fixed corruption set, no adaptive corruptions. It
    does not declare [reads_history], so [deliver] sees [history = []]. *)

val corrupted_parties : 'msg view -> Types.party_id list

val honest_parties : 'msg view -> Types.party_id list

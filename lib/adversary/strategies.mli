(** Protocol-agnostic Byzantine strategies.

    These work against any protocol because they either send nothing or
    replay/mutate the honest algorithm itself. Protocol-specific attacks
    (equivocation inside gradecast) live in {!Spoiler} and {!Wedge}.

    They are also engine-agnostic: every strategy here is an
    [Aat_runtime.Adversary.t], the interface shared by the synchronous and
    asynchronous engines, so it can be handed to [Sync_engine.run] directly
    or lifted to the asynchronous engine unchanged via
    [Async_engine.with_scheduler]. *)

open Aat_engine

val silent : victims:Types.party_id list -> 'msg Adversary.t
(** Corrupted from the start, never send anything — fail-stop at round 0. *)

val random_silent : count:int -> 'msg Adversary.t
(** [count] victims chosen by the adversary RNG at startup, then silent. *)

val crash : at_round:Types.round -> victims:Types.party_id list -> 'msg Adversary.t
(** Parties behave honestly (they are simply not corrupted yet) and are
    adaptively corrupted at the start of round [at_round], from which point
    they send nothing — a mid-protocol crash, exercising the adaptive
    adversary of the model. Their round-[at_round] messages are already
    retracted by the engine.

    Raises [Invalid_argument] if [at_round < 1]. An [at_round] beyond
    [Aat_runtime.Defaults.max_rounds ~n] is clamped to that horizon — the
    crash fires at the last default round rather than silently never
    firing — and the trigger is [>=], so a strategy evaluated past its
    target round still crashes its victims exactly once. *)

val puppeteer :
  name:string ->
  protocol:('s, 'msg, 'o) Protocol.t ->
  victims:Types.party_id list ->
  twist:
    (round:Types.round ->
    src:Types.party_id ->
    dst:Types.party_id ->
    'msg ->
    'msg option) ->
  'msg Adversary.t
(** Runs a private copy of [protocol] for each victim (fed with the real
    traffic it receives) and sends its messages through [twist], which may
    rewrite a message per recipient ([Some m']) or drop it ([None]).
    [twist ... m = Some m] for all arguments is an honest-but-corrupted
    party; per-[dst] rewriting is equivocation; systematic [None] toward a
    subset is selective omission. The victims' copies are caught up from
    [view.history], so the strategy declares [reads_history]; it is the
    only one in this library that does. *)

val omit_towards :
  name:string ->
  protocol:('s, 'msg, 'o) Protocol.t ->
  victims:Types.party_id list ->
  blocked:Types.party_id list ->
  'msg Adversary.t
(** {!puppeteer} specialisation: honest behaviour except that nothing is
    ever sent to [blocked] recipients. *)

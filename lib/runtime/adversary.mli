(** The Byzantine adversary — one interface for both engines.

    The adversary of the paper is adaptive (it may corrupt parties at any
    point, up to [t] in total), computationally unbounded, and — in the
    strongest synchronous reading — {e rushing}: in every round it sees the
    messages honest parties are about to send before choosing what the
    corrupted parties send. This interface gives a strategy exactly those
    powers and nothing more:

    - it observes the current round's honest outbox (rushing) and, if it
      declares [reads_history], the full delivered-traffic history,
    - it may request additional corruptions at any point (the engine
      enforces the budget [t]),
    - it emits arbitrary messages {e from corrupted senders only}
      (authenticated channels: the engine rejects forged honest senders).

    It cannot read honest parties' private state — everything it could
    legitimately infer is a function of the traffic, which it has.

    {b Both engines consume this type.} Under the synchronous engine the
    view is per round: [round] is the round number, [honest_outbox] is the
    rushing power (listed only when a strategy forces it), [history]
    groups delivered letters round by round. Under
    the asynchronous engine ({!Aat_async.Async_engine}) the view is per
    delivery event: [round] is the event counter, [honest_outbox] is empty
    (there is no round barrier to rush), and [history] holds one singleton
    list per past delivery. A strategy written against this interface —
    everything in [lib/adversary] — therefore runs against either engine
    unchanged; the async engine adds only a scheduler on top. *)

type 'msg view = {
  round : Types.round;
      (** synchronous: round number; asynchronous: delivery-event number *)
  n : int;
  t : int;
  corrupted : bool array;  (** current corruption set, length [n] *)
  honest_outbox : 'msg Types.letter list Lazy.t;
      (** what honest parties are sending this round (rushing power), in
          send order; always [[]] under the asynchronous engine. The
          synchronous engine lists the letters only when a strategy forces
          this, so a strategy that never reads it costs no letter records.
          It is valid only during its round: forcing it for the first
          time in a later round (from a stashed view) raises
          [Invalid_argument]. *)
  history : 'msg Types.letter list list;
      (** delivered traffic, most recent first — grouped per round
          (synchronous) or one singleton per delivery event (asynchronous).
          Always [[]] unless the strategy declares [reads_history]. *)
  rng : Aat_util.Rng.t;  (** adversary's private randomness *)
}

type 'msg t = {
  name : string;
  passive : bool;
      (** Declares the strategy observably inert: it never corrupts and
          never sends, {e and does not read its view}. Only the
          asynchronous engine reads it, to skip building a view per
          delivery event; the synchronous engine runs every adversary
          the same way. Only {!passive} sets this; a
          passive-by-construction custom strategy that still inspects its
          view must leave it [false]. *)
  reads_history : bool;
      (** Declares that the strategy reads [view.history]. Engines keep
          delivered letters for the view only then: a strategy declaring
          [false] sees [history = []] in every view, and the run retains
          no traffic on its behalf. Like [passive], it is the strategy
          constructor's own declaration — [Strategies.puppeteer] sets it,
          [Compose.phased] takes the OR of its two phases, everything else
          leaves it [false]. *)
  initial_corruptions : n:int -> t:int -> Aat_util.Rng.t -> Types.party_id list;
      (** Corrupted set at the start of the run; may be empty for a purely
          adaptive strategy. Lists longer than [t] are truncated by the
          engine. *)
  corrupt_more : 'msg view -> Types.party_id list;
      (** Additional corruptions, requested after seeing the view
          (adaptivity). Budget-capped by the engine. *)
  deliver : 'msg view -> 'msg Types.letter list;
      (** The corrupted parties' messages. Letters whose [src] is not
          corrupted are dropped (and logged) — authenticated channels make
          them impossible. *)
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

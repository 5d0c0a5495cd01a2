(** Event-driven asynchronous execution engine.

    The paper's related work contrasts the synchronous model with the
    asynchronous one — "messages get delivered eventually" — where the
    prior-art tree protocol of Nowak & Rybicki [33] lives. This engine
    models it: there are no rounds, only delivery events; a scheduler
    (chosen by the adversary) decides which in-flight message is delivered
    next, subject to {e eventual delivery}, which the engine enforces with
    a patience bound — a message deferred for [patience] consecutive events
    is delivered regardless of the scheduler's wishes.

    Honest parties are {e reactors}: an initialization burst of messages,
    then a pure handler invoked per delivered message, producing follow-up
    messages; [output] signals the party's decision — the reactor keeps
    reacting afterwards (deciding is not halting in the asynchronous model;
    a decided party's echoes may be needed for others' liveness) and the
    run ends once every honest party has decided. There is no clock, so
    protocols cannot count rounds — exactly the constraint that forces the
    iteration/witness structure of asynchronous AA.

    The engine shares the [lib/runtime] substrate with the synchronous one:
    the {b adversary} is the same engine-agnostic
    {!Aat_runtime.Adversary.t} (corruption policy + message injector) plus
    this model's one extra power, the {!scheduler}; forgery screening and
    accounting run through the shared {!Aat_runtime.Mailbox}; and {!run}
    returns the unified {!Aat_runtime.Report.t} ([engine = "async"], all
    "round" fields counted in delivery events). The adversary's view at
    each event has [round] = event number, an empty [honest_outbox] (no
    round barrier to rush) and, for a strategy that declares
    [reads_history], [history] = one singleton list per past delivery
    ([[]] otherwise) — so every strategy in [lib/adversary] runs here
    unchanged, wrapped by {!with_scheduler}.

    An in-flight letter costs no record: the {!Pending} pool keeps
    sender, recipient, body and enqueue stamp in flat arrays, and a
    [Types.letter] is built at delivery only for the two readers of
    delivered traffic, a strategy that declares [reads_history] and
    [~record_trace]. *)

open Aat_engine

type ('state, 'msg, 'out) reactor = {
  name : string;
  init : self:Types.party_id -> n:int -> 'state * (Types.party_id * 'msg) list;
  on_message :
    self:Types.party_id ->
    'msg Types.envelope ->
    'state ->
    'state * (Types.party_id * 'msg) list;
  output : 'state -> 'out option;
}

val to_all : n:int -> 'msg -> (Types.party_id * 'msg) list ->
  (Types.party_id * 'msg) list
(** [to_all ~n m rest] sends [m] to every party [0 .. n - 1], in that
    order, ahead of [rest]: a reactor's broadcast, with one shared
    message and no intermediate list. *)

(** Scheduling strategies, all subject to the patience bound. In-flight
    letters sit in a {!Pending} pool whose slot order is not send order
    (a delivery moves the last slot into the freed one), and the
    strategies pick slots:
    - [Fifo]: the smallest enqueue stamp (a [Delay] fault pushes a
      letter's stamp into the future), leftmost slot on ties;
    - [Lifo]: the last slot;
    - [Random_order]: a uniformly random slot, drawn from the run's RNG;
    - [Laggards ps]: starve letters from or to a party in [ps] as long
      as patience allows — the first slot touching none of them, else a
      random slot. *)
type scheduler =
  | Fifo
  | Lifo
  | Random_order
  | Laggards of Types.party_id list

type 'msg adversary = {
  core : 'msg Adversary.t;
      (** corruption policy + injector, shared with the synchronous
          engine; injected letters claiming honest senders are dropped
          and counted (authenticated channels) *)
  scheduler : scheduler;
      (** the asynchronous model's extra adversarial power: delivery
          order *)
}

val passive : ?scheduler:scheduler -> string -> 'msg adversary
(** No corruptions, no injections; [scheduler] defaults to [Fifo]. *)

val with_scheduler : ?scheduler:scheduler -> 'msg Adversary.t -> 'msg adversary
(** Run any synchronous-world strategy under this engine ([scheduler]
    defaults to [Fifo]) — the adapter behind "every [lib/adversary]
    strategy runs against either engine". *)

type ('out, 'msg) report = ('out, 'msg) Aat_runtime.Report.t

exception Exceeded_max_events of string

val run_outcome :
  n:int ->
  t:int ->
  ?max_events:int ->
  ?patience:int ->
  ?seed:int ->
  ?record_trace:bool ->
  ?telemetry:Aat_telemetry.Telemetry.Sink.t ->
  ?telemetry_stride:int ->
  ?observe:('s -> float option) ->
  ?fault_filter:Aat_runtime.Mailbox.fault_filter ->
  ?crash_faults:(Types.party_id * Types.round) list ->
  ?watchdogs:'s Aat_runtime.Watchdog.t list ->
  reactor:('s, 'm, 'o) reactor ->
  adversary:'m adversary ->
  unit ->
  ('o, 'm) Aat_runtime.Outcome.t
(** The structured-outcome entry point: identical execution to {!run},
    but event-budget exhaustion {e and} deadlock (empty pool with honest
    parties undecided) return [Liveness_timeout] carrying the partial
    report instead of raising. Reactor/adversary exceptions still escape;
    the campaign [Runner] folds those into [Engine_error].

    [fault_filter] is consulted once per letter at enqueue time: [Drop]
    omits it, [Duplicate] enqueues it twice, [Delay d] backdates its
    enqueue time [d] events into the future — clamped below the patience
    bound, so the fairness override still forces eventual delivery.
    [crash_faults] force-crash each listed party at the given delivery
    event (before the adversary's move, outside its budget; [at <= 0]
    means the party never initializes). [watchdogs] run after every
    delivery on the undecided honest states. All three default to inert,
    making the run — and report — identical to the pre-fault engine. *)

val run :
  n:int ->
  t:int ->
  ?max_events:int ->
  ?patience:int ->
  ?seed:int ->
  ?record_trace:bool ->
  ?telemetry:Aat_telemetry.Telemetry.Sink.t ->
  ?telemetry_stride:int ->
  ?observe:('s -> float option) ->
  ?fault_filter:Aat_runtime.Mailbox.fault_filter ->
  ?crash_faults:(Types.party_id * Types.round) list ->
  ?watchdogs:'s Aat_runtime.Watchdog.t list ->
  reactor:('s, 'm, 'o) reactor ->
  adversary:'m adversary ->
  unit ->
  ('o, 'm) report
(** Runs until every honest party has an output. [patience] (default
    {!Aat_runtime.Defaults.patience}, 8·n²) bounds deferral; [max_events]
    (default {!Aat_runtime.Defaults.max_events}) bounds the run. Raises
    {!Exceeded_max_events} if honest parties are still undecided — a
    liveness failure of the protocol under test.

    There are no rounds in this model, so [telemetry] (default null sink —
    zero cost) aggregates delivery events into chunks of [telemetry_stride]
    (default {!Aat_runtime.Defaults.telemetry_stride}) events; each chunk
    emits one event whose [round] is the 1-based chunk index. [observe]
    samples undecided honest reactors' states at each chunk boundary for
    the convergence snapshot. *)

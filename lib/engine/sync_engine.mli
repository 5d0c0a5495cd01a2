(** The lock-step synchronous execution engine.

    One call to {!run} plays out a complete execution of an honest protocol
    against an adversary. Every round runs the same steps, in this order,
    whatever the adversary (a fault-free run is one whose adversary sends
    nothing):

    + the fault plan's crashes for the round land;
    + the round begins in the shared {!Aat_runtime.Mailbox}
      ({!Aat_runtime.Mailbox.begin_round}), so every inbox handed out
      earlier is stale from here on;
    + every live honest party computes its round-[r] outbox ([send]);
    + the adversary, having seen them (rushing), may adaptively corrupt more
      parties — a party corrupted in round [r] has its round-[r] honest
      messages retracted — and submits the corrupted parties' messages,
      which are screened for forged senders;
    + the engine posts the adversary's letters, then the honest outboxes in
      send order: each party receives at most one message per sender
      (authenticated channels), adversary letters resolved
      last-submitted-wins;
    + every live honest party folds its inbox ([receive]) and is frozen as
      terminated once [output] returns [Some].

    The run ends when all honest parties have terminated, or fails after
    [max_rounds] (a protocol-under-test violating Termination is a test
    failure, not a hang).

    The engine is a thin round-barrier loop over the [lib/runtime]
    substrate — transport, corruption bookkeeping and reporting are shared
    with the asynchronous engine, and {!run} returns the unified
    {!Aat_runtime.Report.t} ([engine = "sync"], all times in round
    numbers). *)

type ('out, 'msg) report = ('out, 'msg) Aat_runtime.Report.t

exception Exceeded_max_rounds of string

val run_outcome :
  n:int ->
  t:int ->
  ?max_rounds:int ->
  ?seed:int ->
  ?record_trace:bool ->
  ?telemetry:Aat_telemetry.Telemetry.Sink.t ->
  ?observe:('s -> float option) ->
  ?fault_filter:Aat_runtime.Mailbox.fault_filter ->
  ?crash_faults:(Types.party_id * Types.round) list ->
  ?watchdogs:'s Aat_runtime.Watchdog.t list ->
  protocol:('s, 'm, 'o) Protocol.t ->
  adversary:'m Adversary.t ->
  unit ->
  ('o, 'm) Aat_runtime.Outcome.t
(** The structured-outcome entry point: identical execution to {!run}, but
    round-budget exhaustion returns
    [Liveness_timeout {report; undecided; reason}] (the partial report
    covers the parties that did decide, with full message and fault
    accounting) instead of raising. Protocol/adversary exceptions still
    escape — folding those into [Engine_error] is the campaign
    [Runner]'s job, so direct callers keep their stack traces.

    [fault_filter] (compiled from a fault plan by [Aat_faults.Inject])
    is installed into the run's mailbox and consulted on every posted
    letter; [Duplicate]/[Delay] decisions have no synchronous meaning
    and deliver normally. [crash_faults] force-crashes each listed party
    at the start of its round, before any send and without consuming the
    corruption budget: the party is silent from that round on, and a
    crash at round [r <= 0] means it never runs. [watchdogs] are checked
    after every round's receives on the post-receive states (including
    parties deciding that round); each records at most one violation
    into the report (see {!Aat_runtime.Watchdog.running}). All three
    default to inert, in which case the execution — and the report,
    field for field — is identical to the pre-fault engine. *)

val run :
  n:int ->
  t:int ->
  ?max_rounds:int ->
  ?seed:int ->
  ?record_trace:bool ->
  ?telemetry:Aat_telemetry.Telemetry.Sink.t ->
  ?observe:('s -> float option) ->
  ?fault_filter:Aat_runtime.Mailbox.fault_filter ->
  ?crash_faults:(Types.party_id * Types.round) list ->
  ?watchdogs:'s Aat_runtime.Watchdog.t list ->
  protocol:('s, 'm, 'o) Protocol.t ->
  adversary:'m Adversary.t ->
  unit ->
  ('o, 'm) report
(** [max_rounds] defaults to {!Aat_runtime.Defaults.max_rounds} ([4n + 64]);
    pass the protocol's round bound to assert sharp termination. [seed]
    (default 0) feeds the adversary's RNG; honest protocols are
    deterministic. Raises {!Exceeded_max_rounds} when some honest party is
    still undecided after [max_rounds] — the raising veneer over
    {!run_outcome} for callers that treat a liveness failure as a test
    failure.

    [telemetry] (default {!Aat_telemetry.Telemetry.Sink.null}) receives one
    structured event per round — message/byte counts, corruptions, probe
    data — without affecting the execution in any way; with the null sink no
    telemetry work is done at all. [observe], if given, samples each live
    party's post-receive state once per telemetered round into the event's
    honest-value snapshot (the convergence curve's raw data); it is only
    called on telemetered runs. *)

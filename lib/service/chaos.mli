(** Deterministic wire-fault injection for the campaign service.

    The in-protocol fault layer ([lib/faults]) attacks the simulated
    {e Mailbox}; this module gives the service's own delivery layer the
    same adversarial treatment: it wraps every frame write between the
    coordinator and its worker processes and — driven by seeded
    SplitMix64 streams — corrupts, tears, drops, duplicates or stalls
    frames on the wire. {!Wire.Reader}'s checksummed framing detects
    the damage; {!Service}'s retry/requeue/respawn machinery must then
    recover, which is exactly what the chaos drills assert (see
    [docs/ROBUSTNESS.md]).

    {b Plan grammar} (clauses joined with [+] or [;]; ["none"] or the
    empty string is the empty plan; of two clauses of one kind the first
    wins; lexical rules as in {!Aat_util.Codec}):
    {v
    corrupt-frame:P      flip one byte of the frame with probability P
    torn-write:P         write only a strict prefix of the frame
    drop-frame:P         write nothing
    dup-frame:P          additionally write a second, intact copy
    stall:P:SECONDS      sleep SECONDS before the write
    seed:N               the plan's SplitMix64 seed (default 0)
    v}

    {b Determinism}: every endpoint (coordinator side and worker side of
    each socketpair) owns five independent streams, one per fault kind,
    seeded from [(seed, role, slot, incarnation)]; each kind draws once
    per frame whether or not it fires. A given endpoint therefore sees
    the same fault schedule whatever the total worker count, and a
    respawned worker (next incarnation) sees a fresh schedule rather
    than deterministically re-dying on the same frame. *)

type t = {
  corrupt_frame : float;
  torn_write : float;
  drop_frame : float;
  dup_frame : float;
  stall_prob : float;
  stall_seconds : float;
  seed : int;
}

val none : t
(** The empty plan: {!apply} degenerates to a plain write. *)

val is_none : t -> bool
(** Ignores [seed]: a plan with no active fault kinds is empty. *)

val parse : string -> (t, string) result
(** Parse the plan grammar above. Probabilities must lie in [[0,1]],
    the stall duration must be non-negative. *)

val to_string : t -> string
(** Inverse of {!parse} up to float rendering and clause order. *)

type role = Coordinator | Worker

type state
(** One endpoint's seeded fault streams. *)

val endpoint :
  ?sleep:(float -> unit) -> t -> role:role -> slot:int -> incarnation:int -> state
(** The streams for one side of one worker's socketpair. [incarnation]
    is the worker slot's respawn count. [sleep] (default [Unix.sleepf])
    is how a [stall] waits — injectable for tests. *)

val apply : state -> Bytes.t -> write:(Bytes.t -> unit) -> unit
(** [apply st frame ~write] pushes one encoded frame through the fault
    plan: [write] is called with the (possibly mangled) bytes to put on
    the wire — zero times for a drop, twice for a duplicate. Every
    fault stream advances exactly once per call, fired or not. *)

(** Cumulative injected-fault counters for one endpoint — the raw
    material of the [chaos_faults_injected_total{kind}] metric series.
    A fault is counted when it {e fires}, whether or not the mangled
    frame survives the receiver's checksum. Because the schedule is
    deterministic, these counts are a pure function of (plan, role,
    slot, incarnation, frames written). *)
type counts = {
  mutable corrupted : int;
  mutable torn : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable stalled : int;
}

val counts : state -> counts
(** The live counter record (not a copy). *)

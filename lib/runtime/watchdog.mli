(** Runtime invariant watchdogs.

    A watchdog is a named per-round monitor over the run's observable
    state after each round (sync) or delivery event (async): the current
    honest party states and the corruption set. It does not see the
    traffic — every invariant in the catalog is a property of states, and
    handing a watchdog the delivered letters would make the engines build
    and keep a letter record per delivery on every watched run. Engines
    run every installed watchdog after each delivery step;
    a check returning [Some detail] records a {!violation} into the
    report and retires that watchdog for the rest of the run (first
    violation wins — the diagnostic names the earliest round at which the
    invariant broke). Violations never throw.

    The type and the retire policy ({!running}) live here, in the
    runtime substrate, so both engines share them without depending on
    protocol layers.
    The concrete catalog (hull containment, spread non-expansion, grade
    consistency, corruption budget) lives in [Aat_faults.Watchdog]. *)

type violation = {
  watchdog : string;  (** name of the watchdog that fired *)
  round : Types.round;
      (** round (sync) or delivery event (async) of first violation *)
  detail : string;  (** human-readable witness: parties, values *)
}

type 's t
(** A monitor over runs with honest state ['s]. A watchdog may close over
    mutable state (e.g. the previous round's spread); build a fresh value
    per run. *)

val make :
  name:string ->
  (round:Types.round ->
  states:(Types.party_id * 's) list ->
  corrupted:Party_set.t ->
  string option) ->
  's t
(** [states] holds every party still honest at this step paired with its
    protocol state — under the synchronous engine including parties that
    decided {e this} round (their final state is observable exactly
    once), under the asynchronous engine the currently-undecided ones.
    [corrupted] is the engine's {e live} corruption set (a
    {!Party_set.t}, O(1) membership) — read it during the check; do not
    retain it across rounds, it mutates as further parties fall. *)

val name : 's t -> string

val check :
  's t ->
  round:Types.round ->
  states:(Types.party_id * 's) list ->
  corrupted:Party_set.t ->
  string option

(** {1 One run's watchdogs}

    The retire policy above, in one place for both engines. *)

type 's running
(** The watchdogs installed on one run, each armed until it fires. *)

val start : 's t list -> 's running

val armed : 's running -> bool
(** Whether some watchdog is still armed. An engine tests this before it
    builds a step's [states], so a run without watchdogs allocates
    nothing for them. *)

val step :
  's running ->
  round:Types.round ->
  states:(Types.party_id * 's) list ->
  corrupted:Party_set.t ->
  unit
(** Check every armed watchdog against this step; each that returns a
    violation has it recorded and is retired. *)

val violations : 's running -> violation list
(** The recorded violations, in firing order. *)

val pp_violation : Format.formatter -> violation -> unit

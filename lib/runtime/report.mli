(** The unified run report: both [Sync_engine.run] and [Async_engine.run]
    return this one type, so verdict checkers, telemetry consumers, the
    bench harness and the CLI are written once against one shape.

    Time is engine-relative: under the synchronous engine "round" means
    lock-step round number; under the asynchronous one it means
    delivery-event number (the only logical clock that model has). The
    [engine] tag ("sync" / "async") records which reading applies.

    Conventions shared by both engines:

    - [outputs] / [termination_rounds] cover exactly the finally-honest
      parties, ascending; a party deciding at initialization (zero
      communication) terminates at round [0];
    - [corruption_rounds] pairs each corrupted party with the time it fell,
      [0] meaning initially corrupted. Validity is judged against the
      inputs of {e initially}-honest parties ({!initially_corrupted}): a
      party corrupted mid-run exposes its input to the adversary, but its
      input was honest when contributed;
    - [honest_messages] counts honest submissions to the network and
      [adversary_messages] counts adversary letters that survived forgery
      screening — both {e before} per-pair dedup, so a Byzantine
      double-send is two adversary messages even though one letter
      delivers;
    - [trace] (opt-in via [~record_trace]) groups delivered letters
      per round (synchronous) or one singleton list per delivery event
      (asynchronous), oldest first. *)

type fault_stats = {
  dropped : int;  (** letters dropped by omission/partition/recovery faults *)
  duplicated : int;  (** letters enqueued twice (async engine only) *)
  delayed : int;  (** letters deferred within the patience bound (async) *)
  crashed : int;  (** parties force-crashed by the fault plan *)
}
(** Accounting of injected (non-Byzantine) faults. All zeros — compare
    with {!no_faults} — on a run without a fault plan. *)

val no_faults : fault_stats

val faults_active : fault_stats -> bool
(** Whether any counter is non-zero. *)

val pp_fault_stats : Format.formatter -> fault_stats -> unit

type ('out, 'msg) t = {
  engine : string;  (** ["sync"] or ["async"] *)
  n : int;
  t : int;  (** the corruption budget the run was configured with *)
  outputs : (Types.party_id * 'out) list;
      (** finally-honest parties' decisions, ascending by party *)
  termination_rounds : (Types.party_id * Types.round) list;
      (** when each finally-honest party decided: the round at the end of
          which it decided (sync) or the delivery event at which it did
          (async); [0] for a party that decided at initialization *)
  rounds_used : int;
      (** rounds (sync) or delivery events (async) consumed by the run *)
  corrupted : Types.party_id list;  (** final corruption set, ascending *)
  corruption_rounds : (Types.party_id * Types.round) list;
      (** when each corrupted party fell (round or delivery event); [0] =
          initially corrupted. Needed to state Validity correctly under
          the adaptive adversary: a party corrupted at [r >= 1]
          contributed its input while honest, so the provable hull
          (Lemmas 5–6) is over the inputs of {e initially}-honest
          parties, while Termination and Agreement quantify over
          {e finally}-honest parties. *)
  honest_messages : int;  (** total letters sent by honest parties *)
  adversary_messages : int;
      (** total adversary letters that survived forgery screening *)
  rejected_forgeries : int;
      (** adversary letters dropped for claiming an honest sender *)
  trace : 'msg Types.letter list list;
      (** delivered letters, oldest group first: one list per round
          (sync) or one singleton per delivery event (async); [[]] unless
          [~record_trace:true] *)
  fault_stats : fault_stats;
      (** injected-fault accounting; {!no_faults} on a benign run *)
  watchdog_violations : Watchdog.violation list;
      (** first violation per installed watchdog, in order of firing;
          [[]] when no watchdogs were installed or none fired *)
}

val output_of : ('out, 'msg) t -> Types.party_id -> 'out
(** Raises [Not_found] if the party is corrupted (it has no output). *)

val honest_outputs : ('out, 'msg) t -> 'out list

val initially_corrupted : ('out, 'msg) t -> Types.party_id list
(** The parties corrupted before round 1 — the set whose inputs validity
    judgments must exclude. *)

val honest_inputs : inputs:'a array -> (_, _) t -> 'a list
(** [honest_inputs ~inputs report] — the inputs of the {e initially}-honest
    parties, in party order: the hull Validity is judged against. A party
    corrupted adaptively mid-run contributed its input while honest, so its
    input stays in. [inputs.(i)] is party [i]'s input; implemented with a
    bitset over the corruption records, O(n + |corrupted|). *)

val finally_honest : ('out, 'msg) t -> int
(** [n] minus the number of (ever-)corrupted parties. *)

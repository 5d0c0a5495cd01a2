(** Bracha's asynchronous reliable broadcast, [t < n/3].

    The distribution mechanism underneath the asynchronous AA protocols
    ([1, 33]): a sender INITs its value; parties ECHO the first INIT they
    see; a party sends READY on [n - t] matching ECHOs (or [t + 1] matching
    READYs — the amplification step), and {e delivers} on [2t + 1] matching
    READYs.

    Guarantees for [t < n/3]:
    - {b validity}: an honest sender's value is eventually delivered by all
      honest parties;
    - {b agreement}: no two honest parties deliver different values for the
      same instance;
    - {b totality}: if any honest party delivers, every honest party
      eventually delivers (the same value).

    {b Vote counting.} Votes are counted per (sender, value): a repeated
    ECHO (or READY) of one value from one sender counts once, but a
    sender that ECHOes [v] and then [v'] in the same instance counts once
    toward each. Agreement survives this, because what keeps two values
    apart is not the Byzantine votes but the honest ones: two ECHO
    quorums of [n - t] share at least [n - 2t > t] parties, so they share
    an honest party, and an honest party ECHOes only once per instance.
    So at most one value ever gathers an ECHO quorum. An honest party
    READYs a value only on an ECHO quorum for it or on [t + 1] READYs
    for it, one of them honest, so every honest READY names that
    value.

    {!Instances} is the composable multi-instance core used by the AA
    reactors (instances are keyed by [(origin, tag)], where the AA layer
    uses the iteration number as tag); {!reactor} wraps a single instance
    for direct testing. Every message either returns goes to all [n]
    parties, so both return the one message and leave the fan-out to the
    caller. *)

open Aat_engine

type key = { origin : Types.party_id; tag : int }

type 'v msg =
  | Init of key * 'v
  | Echo of key * 'v
  | Ready of key * 'v

module Instances : sig
  type 'v t
  (** Mutable bookkeeping for any number of concurrent instances: an
      instance table keyed by [(origin, tag)] and, per instance and
      value, a bitset of the senders that ECHOed it and one of those that
      READYed it. *)

  val create : n:int -> t:int -> 'v t

  val broadcast : self:Types.party_id -> tag:int -> 'v -> 'v msg
  (** The INIT that starts broadcasting one's own value under
      [(self, tag)]; send it to every party, oneself included. *)

  val handle :
    'v t -> sender:Types.party_id -> 'v msg -> 'v msg option * (key * 'v) option
  (** Process one message from [sender]; returns the message to send to
      every party, if any (this party's ECHO or READY), and the
      [(key, value)] this message made it deliver, if any. INITs not
      sent by their origin are ignored, and so are INITs after the first
      per instance; ECHOs and READYs count once per (sender, value), as
      described above. Raises [Invalid_argument] on an ECHO or READY
      from a sender outside [0, n): channels are authenticated, so no
      such sender exists in a run. *)
end

type 'v state

val reactor :
  sender:Types.party_id ->
  inputs:(Types.party_id -> 'v) ->
  t:int ->
  ('v state, 'v msg, 'v) Async_engine.reactor
(** Single-instance broadcast from [sender] (tag 0); every honest party's
    output is the delivered value. If the sender is corrupted and never
    INITs, no honest party decides — tests bound this with [max_events]. *)

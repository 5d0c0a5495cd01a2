(** Honest-party protocol logic as a pure state machine.

    A protocol is what one honest party runs: given its local state it emits
    this round's messages, then folds the round's inbox back into its state,
    and may at any point declare an output. The engine drives [n] copies in
    lock step. Purity (no shared mutable state between parties) is what
    makes executions reproducible and lets the adversary be maximally
    powerful without cheating. *)

type 'msg outbox =
  | To_all of 'msg
      (** the same message to every party [0 .. n - 1], itself included,
          in ascending recipient order — one value for the whole
          broadcast, however large [n] is *)
  | To of (Types.party_id * 'msg) list
      (** explicit [(recipient, message)] pairs, sent in list order *)

val outbox_to_list : n:int -> 'msg outbox -> (Types.party_id * 'msg) list
(** The pairs an outbox sends, in send order: for code that handles an
    outbox outside the engines (an adversary replaying a protocol, a
    test). *)

type ('state, 'msg, 'out) t = {
  name : string;
  init : self:Types.party_id -> n:int -> 'state;
      (** Fresh state; the party's input is baked in by the caller (see
          e.g. [Realaa.Bdh.protocol], which closes over an input array). *)
  send : round:Types.round -> self:Types.party_id -> 'state -> 'msg outbox;
      (** Messages to hand to the network this round, in {!outbox} order.
          Authenticated channels carry one letter per (sender, recipient)
          pair a round. When a [To] list names a recipient more than once,
          every letter counts as sent and the recipient gets the first of
          them: the first the fault filter lets through on the synchronous
          engine, the first listed under [Aat_async.Round_sim]. *)
  receive :
    round:Types.round -> self:Types.party_id -> inbox:'msg Inbox.t ->
    'state -> 'state;
      (** Fold the round's inbox into the state. The inbox holds at most
          one letter per sender and is read in ascending sender order
          ({!Inbox.iter}, {!Inbox.fold}). It is a view into the transport,
          valid only during this round: keep what it says, not the inbox —
          reading it in a later round raises [Invalid_argument]. *)
  output : 'state -> 'out option;
      (** [Some o] once the party has decided. The engine freezes the party
          (it stops sending and receiving) the first time this returns
          [Some] — matching "produces an output and terminates". Protocols
          that must keep echoing after deciding delay their output
          instead. *)
}

val map_output : ('a -> 'b) -> ('s, 'm, 'a) t -> ('s, 'm, 'b) t

val sequential :
  name:string ->
  first:('s1, 'm1, 'o1) t ->
  rounds_of_first:int ->
  second:('o1 -> ('s2, 'm2, 'o2) t) ->
  ( ('s1, 'o1, 's2, ('s2, 'm2, 'o2) t) Composed.state,
    ('m1, 'm2) Composed.msg,
    'o2 )
  t
(** [sequential ~first ~rounds_of_first ~second] runs [first], waits until
    round [rounds_of_first] ends (even for parties that decided earlier —
    the synchronisation barrier of TreeAA line 4), then runs [second] seeded
    with [first]'s output. Each party calls [second] once, at the barrier,
    and keeps the protocol it returns in its state. Rounds of [second] are
    numbered from 1 in its own frame. Each send wraps its outbox in one [M1]/[M2] box per message
    (one per broadcast), and each phase reads its own letters through a
    view of the inbox that drops the other phase's. Raises [Failure] at
    the barrier if [first] has not decided. *)

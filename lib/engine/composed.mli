(** State and message unions for {!Protocol.sequential} — a two-phase
    protocol composition with a round barrier between the phases (TreeAA's
    line 4).

    At the barrier each party derives its phase-two protocol once from its
    phase-one output and keeps it in [Phase2], next to the phase-two
    state; the type parameter ['p2] is that protocol's type. Messages are
    tagged so each phase only ever sees its own traffic (a Byzantine party
    sending phase-2 messages during phase 1, or vice versa, is filtered
    out by the composition). *)

type ('s1, 'o1, 's2, 'p2) phase =
  | Phase1 of 's1
  | Bridged of 'o1
      (** phase one decided; waiting for the round barrier so all honest
          parties enter phase two simultaneously *)
  | Phase2 of 'p2 * 's2
      (** the phase-two protocol derived at the barrier, and its state *)

type ('s1, 'o1, 's2, 'p2) state = { n : int; phase : ('s1, 'o1, 's2, 'p2) phase }

type ('m1, 'm2) msg = M1 of 'm1 | M2 of 'm2

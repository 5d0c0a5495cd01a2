(* Support types for Protocol.sequential: the state and message unions of a
   two-phase composition. Kept in their own module so Protocol's interface
   can name them. *)

type ('s1, 'o1, 's2, 'p2) phase =
  | Phase1 of 's1
  | Bridged of 'o1 (* first phase decided, waiting for the round barrier *)
  | Phase2 of 'p2 * 's2 (* the phase-two protocol, derived at the barrier *)

type ('s1, 'o1, 's2, 'p2) state = { n : int; phase : ('s1, 'o1, 's2, 'p2) phase }

type ('m1, 'm2) msg = M1 of 'm1 | M2 of 'm2

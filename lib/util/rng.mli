(** Deterministic, splittable pseudo-random number generator.

    All randomized components of the simulator (tree generators, adversary
    strategies, fuzzing) draw from an explicit [Rng.t] so that every
    experiment is reproducible from a single integer seed. The generator is
    SplitMix64 (Steele, Lea & Flood 2014): tiny state, good statistical
    quality, and cheap {!split} for deriving independent streams. *)

type t

val create : int -> t
(** [create seed] is a fresh generator determined entirely by [seed]. *)

val split : t -> t
(** [split rng] derives a new generator whose stream is independent of the
    subsequent outputs of [rng]. Both generators advance [rng]'s state, so
    splitting is itself deterministic. *)

val copy : t -> t
(** [copy rng] duplicates the current state; the copy replays the same
    stream as [rng] would from this point. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int rng bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val float : t -> float -> float
(** [float rng bound] is uniform in [\[0, bound)]. Requires [bound > 0.]. *)

val bool : t -> bool

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val sample_without_replacement : t -> int -> int -> int list
(** [sample_without_replacement rng k n] is a sorted list of [k] distinct
    integers drawn uniformly from [\[0, n)]. Requires [0 <= k <= n]. *)

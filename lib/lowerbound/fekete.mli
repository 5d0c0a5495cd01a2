(** Fekete's lower bound on synchronous AA, adapted to trees (Section 3).

    Theorem 1 (Fekete [19], Theorem 15): any deterministic [R]-round
    protocol with Validity and Termination has an execution where two
    honest outputs are at least

    {v K(R, D) = D * sup{ t_1*...*t_R : sum t_i <= t } / (n + t)^R v}

    apart. Corollary 1 transfers this to trees verbatim (replace [a, b] by
    the endpoints of a longest path, so [D = D(T)]); Theorem 2 turns it
    into the round lower bound

    {v R = Omega( log D / (log log D + log ((n+t)/t)) ). v}

    Everything here is exact arithmetic in log-space: the quantities
    overflow floats for interesting parameters ([s = (n+t)^R / prod t_i]
    reaches 10^40 quickly). *)

val optimal_partition : t:int -> r:int -> int list
(** The balanced partition of [t] into [r] parts maximising the product
    (parts of size [⌊t/r⌋] and [⌈t/r⌉]; fewer than [r] parts when [t < r],
    since zero-parts only shrink the product). Requires [t >= 0, r >= 1].
    Empty iff [t = 0]. *)

val log2_product : int list -> float
(** [log2] of the product of the parts ([0.] for the empty partition, whose
    product is the empty product 1 — but see {!k_bound}, which treats
    [t = 0] as "no lower bound"). *)

val log2_k : n:int -> t:int -> r:int -> d:float -> float
(** [log2 (K(r, d))] with the optimal partition. [t = 0] yields
    [neg_infinity] (no Byzantine parties — Fekete's construction needs at
    least one). *)

val k_bound : n:int -> t:int -> r:int -> d:float -> float
(** [K(r, d)] itself; may underflow to [0.] for large [r] — use {!log2_k}
    for comparisons. *)

val chain_length : n:int -> t:int -> r:int -> float
(** [log2] of the view-chain length [s = (n+t)^r / prod t_i] for the
    optimal partition — the number of indistinguishability steps the proof
    walks through. *)

val min_rounds : n:int -> t:int -> d:float -> eps:float -> int
(** The smallest [R] with [K(R, d) <= eps] — every deterministic protocol
    achieving [eps]-agreement needs at least this many rounds. [0] when
    [t = 0] or [d <= eps]. *)

val theorem2_closed_form : n:int -> t:int -> d:float -> float
(** The closed form [log2 d / (log2 log2 d + log2 ((n+t)/t))] of Theorem 2
    (a lower-bound estimate of {!min_rounds}; clamped to 0 for degenerate
    parameters). *)

(** Round and iteration budgets for the AA protocols.

    These are the closed forms the experiments compare measured executions
    against. Throughout, [delta = range /. eps] is the ratio between the
    public bound on the honest input spread and the target agreement.
    Every function raises [Invalid_argument] unless [range] is finite and
    [>= 0] and [eps] is finite and [> 0]. *)

val bdh_iterations : range:float -> eps:float -> int
(** Smallest [R >= 0] with [R^R >= range/eps] — enough iterations for
    RealAA: Lemma 5 bounds the final spread by [range * t^R / (R^R (n-2t)^R)
    <= range / R^R] for [t < n/3]. [0] when [range <= eps]. *)

val bdh_rounds : range:float -> eps:float -> int
(** [3 * bdh_iterations] — each RealAA iteration is one 3-round multi-
    gradecast (Remark 3). This is the fixed schedule [R_RealAA(range, eps)]
    that TreeAA's barrier uses. *)

val paper_round_bound : range:float -> eps:float -> int
(** Theorem 3's closed form [⌈7·log2(delta) / log2 log2 (delta)⌉], with the
    denominator clamped to 1 for tiny [delta] (the theorem assumes delta
    large enough that its log-log is positive). Our schedule
    {!bdh_rounds} is asymptotically equal and never larger for
    [delta >= 2]. *)

val halving_iterations : range:float -> eps:float -> int
(** [⌈log2 delta⌉] — iterations of the classic midpoint outline whose
    per-iteration convergence factor is 1/2 ([12, 33]). *)

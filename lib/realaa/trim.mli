(** Multiset trimming — the "safe area" computation on ℝ.

    Discarding the [t] lowest and [t] highest of a received multiset leaves
    only values inside the honest range (at most [t] received values are
    Byzantine, so anything surviving both cuts is bracketed by honest
    values on both sides). All AA protocols here compute their new value
    from the trimmed multiset. *)

val trimmed : t:int -> float list -> float list
(** [trimmed ~t values] sorts and removes the [t] smallest and [t] largest
    entries; empty if [List.length values <= 2 * t]. *)

val midpoint : float list -> float option
(** [(min + max) / 2] of a non-empty list. *)

val trimmed_midpoint : t:int -> float list -> float option
(** [midpoint (trimmed ~t values)] — [None] when too few values survive
    (cannot happen for [n > 3t] honest executions). The classic outline's
    step: guarantees the 1/2 factor but no better. *)

val mean : float list -> float option
(** Arithmetic mean of a non-empty list. *)

val trimmed_mean : t:int -> float list -> float option
(** [mean (trimmed ~t values)] — RealAA's iteration step (Section 4: "the
    average of the values remaining after discarding"). Averaging is what
    makes a single inconsistent value move the result by only
    [O(range / (n - 2t))], the per-iteration factor of Lemma 5; the
    min-max midpoint would lose a full half of the range to one planted
    value. *)

val trimmed_mean_array : t:int -> float array -> float option
(** [trimmed_mean ~t (Array.to_list values)], bit for bit, without boxing
    a float: sorts [values] in place under [Float.compare], stably, and
    sums the window left to right from [0.]. *)

val range : float list -> (float * float) option
(** [(min, max)] of a non-empty list. *)

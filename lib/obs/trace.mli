(** Parsed telemetry traces: the read side of {!Aat_telemetry.Telemetry.Jsonl},
    plus the analyses behind [treeaa trace].

    A trace holds exactly what a JSONL telemetry sink wrote — the
    ["start"] header, the per-round ["round"] events, the ["stop"]
    summary — parsed back into the same {!Aat_telemetry.Telemetry}
    records the engines emitted, so every in-memory analysis applies to
    on-disk traces unchanged. Flight-recorder container lines
    (["run-record"], ["outcome"]) and unknown line types are skipped;
    unknown format-version {e majors} are rejected. *)

type t = {
  meta : Aat_telemetry.Telemetry.run_meta option;
  events : Aat_telemetry.Telemetry.event list;  (** chronological *)
  summary : Aat_telemetry.Telemetry.summary option;
}

val empty : t

val of_stats : Aat_telemetry.Telemetry.Stats.t -> t
(** The trace a {!Aat_telemetry.Telemetry.Stats} sink accumulated. *)

val of_lines : string list -> (t, string) result
(** Parse JSONL lines (error messages carry 1-based line numbers). *)

val of_string : string -> (t, string) result
(** {!of_lines} on newline-split input; blank lines are skipped. *)

val load : string -> (t, string) result
(** Read and parse a trace (or record) file. *)

(** {1 Divergence detection}

    The replay layer's comparison primitive: the first place two traces
    of the same run disagree. Event fields the parser does not know,
    such as a ["profile"] timing object on a round line, are skipped on
    parse and never participate. *)

type divergence = {
  round : int;  (** [0] for a header mismatch *)
  field : string;
      (** the event field, ["meta.*"], ["summary.*"], or ["rounds"] when
          one trace has more events than the other *)
  expected : string;  (** rendered JSON of the expected value *)
  actual : string;
}

val compare_events :
  expected:Aat_telemetry.Telemetry.event list ->
  actual:Aat_telemetry.Telemetry.event list ->
  divergence option
(** First divergent (round, field), walking both lists in lockstep. *)

val diff : expected:t -> actual:t -> divergence option
(** Meta, then events, then summary. A side missing its header or
    summary pins nothing (partial traces stay comparable). *)

val pp_divergence : Format.formatter -> divergence -> unit

(** {1 Analyses} *)

val convergence : t -> (int * float) list
(** (round, honest-value spread) per snapshotted round — the convergence
    curve. [convergence (of_stats st)] gives it for an in-memory run. *)

val send_totals : t -> int array
(** Letters submitted per party over the whole run. *)

(** {1 Blame localization}

    [treeaa trace blame]: the earliest round at which the run
    demonstrably went wrong, and which parties to suspect. *)

type blame = {
  round : int;
  kind : string;  (** ["watchdog"] or ["spread-expansion"] *)
  detail : string;
  suspects : int list;
      (** parties corrupted by that round; if none are recorded, the
          round's busiest sender *)
}

val blame : ?violations:Aat_runtime.Watchdog.violation list -> t -> blame option
(** The earliest watchdog violation wins; otherwise the first round whose
    snapshot spread exceeds the previous round's — the spread
    non-expansion invariant every protocol here promises. [None]: nothing
    in the trace localizes a failure. *)

val pp_blame : Format.formatter -> blame -> unit

(** Dependency-free metric snapshots for the service stack.

    A {!Snapshot.t} is a sorted list of named, optionally labeled
    {e counters}, {e gauges} and fixed-bucket {e histograms}. Every
    series a status file carries is built as one: the operational
    series with {!Snapshot.series} and {!Snapshot.of_list}, the
    deterministic [campaign_*] series with {!campaign}, and views from
    several processes combined with {!Snapshot.merge}.

    {1 Determinism contract}

    A snapshot is a {e deterministic} value: series are sorted by name
    then labels, and every number renders through the {!Aat_telemetry.Jsonx}
    integer rule, so equal snapshots render byte-identical
    {!Snapshot.to_json} output. Counters that sum integers stay exact
    (no float rounding below 2{^53}), in any order of summation.
    Metrics {e derived from timing} (lag gauges, rates) are outside the
    contract — same precedent as the [~profile] block of a flight
    record. *)

(** {1 Snapshots} *)

module Snapshot : sig
  type value =
    | Counter of float
    | Gauge of float
    | Histogram of {
        bounds : float list;  (** finite upper bounds, ascending *)
        counts : int list;  (** per-bucket counts, same length, plus *)
        overflow : int;  (** the implicit [+Inf] bucket *)
        sum : float;
        count : int;
      }

  type series = { name : string; labels : (string * string) list; value : value }

  type t = series list
  (** Always sorted by [name] then [labels]; labels sorted by key. *)

  val series : ?labels:(string * string) list -> string -> value -> series
  (** Build one series with its labels normalized (sorted by key) — for
      callers assembling a snapshot from external counters. *)

  val of_list : series list -> t
  (** Sorts; merges duplicate (name, labels) keys as {!merge} does. *)

  val merge : t -> t -> t
  (** Pointwise union: counters sum, gauges take the max, histograms
      with equal bounds sum pointwise (on a bounds mismatch the left
      series wins — callers keep bucket layouts consistent). *)

  val equal : t -> t -> bool

  val to_json : t -> Aat_telemetry.Jsonx.t
  (** [{"type":"metrics-snapshot";"format_version":1;"series":[...]}] —
      deterministic bytes via {!Aat_telemetry.Jsonx.to_string}. *)

  val of_json : Aat_telemetry.Jsonx.t -> (t, string) result

  val to_prometheus : t -> string
  (** Prometheus text exposition: [# TYPE] lines, labeled samples,
      histogram [_bucket]/[_sum]/[_count] with cumulative [le] buckets
      ending at [+Inf]. *)
end

(** {1 Campaign series} *)

val campaign : (Aat_telemetry.Jsonx.t, string) result list -> Snapshot.t
(** The deterministic [campaign_*] series of a set of campaign cells.
    Each payload is one cell's result — the [Campaign.json_of_outcome]
    object, or [Error _] for a task that failed to instantiate — and
    contributes its own series: counters of 1 (cells, grade, status,
    instantiation errors) or of its own totals (rounds, honest and
    adversary messages, injected faults by kind, watchdog violations),
    one observation of the [campaign_rounds_used] histogram (buckets
    1, 2, 4, …, 256, then [+Inf]) and its spread as the
    [campaign_spread_max] gauge. {!Snapshot.of_list} sums the counters
    and histograms and keeps the largest spread, so the snapshot is a
    function of the cell set: the same for any worker count, arrival
    order or split, with [Snapshot.merge (campaign a) (campaign b)]
    equal to [campaign (a @ b)]. *)

val write_atomic : path:string -> string -> unit
(** Write [path] atomically: temp file in the same directory, then
    rename — a concurrent reader sees the old or the new contents,
    never a torn file. *)

(** Cross-process span tracing in Chrome trace-event form.

    A {!t} collects duration spans ([ph:"B"]/[ph:"E"]), instants and
    process metadata as Chrome trace-event objects — the JSON format
    chrome://tracing and Perfetto open directly. Like
    {!Aat_telemetry.Telemetry.Sink.null}, {!null} makes every operation
    a no-op.

    Spans carry an id and an optional parent id in their [args], both
    plain integers, so a parent id can travel over the service wire: the
    coordinator opens a shard span, ships its id in the shard message,
    and the worker's cell spans name it as parent. Workers {!drain}
    their completed events and piggyback them on heartbeat frames; the
    coordinator {!import}s them into its own collector, and the [pid]
    field (set at {!create}) keeps the two processes' ids distinct in
    the viewer.

    Timestamps come from the clock passed to {!create} — the service
    uses {!Aat_service.Clock.now}, i.e. [CLOCK_MONOTONIC], which is
    system-wide on Linux so coordinator and worker timestamps share an
    axis. Span timing is outside the determinism contract (the same
    precedent as [~profile]). *)

type t

val null : t
val is_null : t -> bool

val create : ?pid:int -> clock:(unit -> float) -> unit -> t
(** [clock] returns seconds (monotonic); [pid] defaults to [0] and
    becomes the trace events' [pid] field. *)

type span
(** An open span handle; inert when minted from {!null}. *)

val id : span -> int
(** Unique within the collector's process; [0] for the null span. *)

val enter :
  t ->
  ?tid:int ->
  ?parent:int ->
  ?cat:string ->
  ?args:(string * Aat_telemetry.Jsonx.t) list ->
  string ->
  span
(** Begin a span now. [tid] (default 0) is the trace-viewer row;
    [parent] is another span's {!id} (possibly from another process). *)

val close : t -> span -> unit
(** End the span now. Emission is atomic: the [B] and [E] events are
    appended together at close time, so drained output always balances.
    Closing twice, or closing a null span, is a no-op. *)

val complete :
  t ->
  ?tid:int ->
  ?parent:int ->
  ?cat:string ->
  ?args:(string * Aat_telemetry.Jsonx.t) list ->
  name:string ->
  start:float ->
  stop:float ->
  unit ->
  int
(** A span with explicit clock-seconds endpoints — for sub-intervals
    reconstructed after the fact (e.g. the stage_profile setup/rounds/
    checks breakdown of a cell). Returns the span's {!id} ([0] under
    {!null}) so sub-spans can name it as parent. *)

val instant :
  t ->
  ?tid:int ->
  ?args:(string * Aat_telemetry.Jsonx.t) list ->
  string ->
  unit
(** A point event ([ph:"i"]) — kills, quarantines, requeues. *)

val process_name : t -> string -> unit
(** Emit the [process_name] metadata event for this collector's pid. *)

val drain : t -> Aat_telemetry.Jsonx.t list
(** Completed events accumulated since the last drain, in emission
    order; the collector forgets them. Still-open spans are withheld
    until closed. *)

val import : t -> Aat_telemetry.Jsonx.t list -> unit
(** Append events drained by another collector (arrived over the
    wire), preserving their order. Malformed entries are dropped. *)

val close_all : t -> unit
(** Close every span still open, oldest last — guarantees a balanced
    trace at shutdown. *)

val to_json : t -> Aat_telemetry.Jsonx.t
(** [{"traceEvents":[...]}] with events sorted by timestamp (emission
    order on ties), including events already drained — {!to_json} is a
    view of everything the collector ever saw, so the periodic trace
    file is cumulative. *)

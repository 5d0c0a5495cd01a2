(** The experiment-table harness: every table of EXPERIMENTS.md as a
    named group, plus the BENCH_<NAME>.json codec and the drift checker
    behind [treeaa bench check].

    [bench/main.exe] is a thin front end over this library: it picks
    groups from {!tables}, runs them under {!run_captured}, and writes
    {!render_group} bytes to [BENCH_<NAME>.json]. The committed
    BENCH_*.json files at the repo root are regenerated exactly that way
    (every captured column is deterministic), and {!check_files}
    closes the loop — it regenerates each committed file in memory,
    with table printing suppressed, and byte-compares. CI's drift gates
    run [treeaa bench check BENCH_*.json] on top of it.

    The parallel groups fan over the deterministic campaign {!Pool} (or
    the multi-process service with [distributed:true]); neither the
    worker count nor the distribution mode changes a single digit of
    any table — that determinism contract is what makes byte-equality
    a meaningful gate. *)

type table = string * string list * string list list
(** One captured table: title, header, rows — in print order. *)

val print_table : title:string -> header:string list -> string list list -> unit
(** Render a table to stdout (suppressed inside {!check_files}) and,
    when capturing, record it. *)

val tables : workers:int -> distributed:bool -> (string * (unit -> unit)) list
(** Every table group, keyed by the name used in [--table NAME] and in
    the BENCH file's ["table"] field. [workers] fans the parallel
    groups over that many Pool domains; [distributed] routes the
    campaign-backed groups (E-CHAOS) through the multi-process
    service instead. *)

val run_captured : capture:bool -> (unit -> unit) -> table list
(** Run one table group; with [capture] also record every table it
    prints and return them in print order (otherwise [[]]). *)

val render_group : name:string -> table list -> string
(** The exact BENCH_<name>.json file bytes for a captured group: stable
    field order, tables in print order, and a trailing newline. *)

type drift = {
  path : string;
  table : string option;  (** the file's ["table"] field, if it parses *)
  verdict : [ `Match | `Drift of string | `Error of string ];
      (** [`Drift] carries a human-readable byte-level summary;
          [`Error] an unreadable / unparseable / unknown-table cause *)
}

val check_files : ?distributed:bool -> workers:int -> string list -> drift list
(** Regenerate each committed BENCH file's group in memory (quietly)
    and byte-compare against the file — one result per path, in input
    order. A [`Match] everywhere certifies the committed tables are
    reproducible on this machine at this commit. *)

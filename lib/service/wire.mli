(** Checksummed, length-prefixed JSON framing for the campaign service
    wire.

    Every message between the coordinator and a worker process is one
    {e frame}: a 4-byte non-ASCII magic, a 4-byte big-endian payload
    length, a 4-byte big-endian CRC32 (IEEE 802.3) of the payload, then
    the payload — one rendered {!Aat_telemetry.Jsonx} object. The
    framing layer is deliberately dumb: it moves byte strings,
    {!Service} owns the message vocabulary (see [docs/CAMPAIGN.md] and
    [docs/ROBUSTNESS.md]).

    The magic and checksum exist because the delivery layer is not
    trusted (see [Service.Chaos]): a torn, corrupted, duplicated or
    garbage frame must surface as a {e typed} {!Reader.error} — never an
    exception, and never a [Jsonx] parse crash on half a message. The
    magic bytes are outside the ASCII range, so a resynchronization scan
    can never mistake JSON payload text for a frame boundary. *)

val encode : string -> Bytes.t
(** [encode payload] is the complete frame: magic, length, CRC32,
    payload. A payload is at most 64 MiB: a longer one raises
    [Invalid_argument] — a local caller bug, not a wire condition — and
    a length field beyond it is read as corruption
    ({!Reader.Oversized_frame}), not as a real message. *)

val write_all : Unix.file_descr -> Bytes.t -> int -> int -> unit
(** Write [len] bytes at [off], retrying on partial writes and [EINTR].
    The raw sink {!encode}d frames — and the chaos injector's mangled
    ones — go through. *)

val write_frame : Unix.file_descr -> string -> unit
(** [encode] + [write_all] in one step — one complete frame. Raises
    [Unix.Unix_error (EPIPE, _, _)] if the peer is gone — callers treat
    that as peer death, never as fatal. *)

(** Incremental frame reassembly over one descriptor. *)
module Reader : sig
  (** What corrupted input looks like, one value per detection. After
      any error the reader has already resynchronized on the next frame
      boundary: subsequent intact frames are still recovered. *)
  type error =
    | Garbage of int
        (** bytes skipped before a frame boundary (torn frame tails,
            noise, foreign writers) *)
    | Oversized_frame of int
        (** a length field outside [[0, 64 MiB]] — a corrupted
            header *)
    | Checksum_mismatch of { expected : int32; received : int32 }
        (** the payload does not hash to the header's CRC32 — a
            corrupted or torn frame *)

  val error_to_string : error -> string

  type t

  val create : Unix.file_descr -> t
  val fd : t -> Unix.file_descr

  (** Cumulative per-endpoint counters since {!create} — the raw
      material of the [wire_*] metric series (docs/OBSERVABILITY.md).
      Counts are bumped as events are produced, so they also accrue
      through {!feed} in tests. [resyncs] counts every resynchronization
      scan (one per typed error). *)
  type stats = {
    mutable frames : int;  (** intact payloads delivered *)
    mutable bytes : int;  (** raw bytes fed, framed or not *)
    mutable garbage_events : int;
    mutable garbage_bytes : int;
    mutable crc_mismatches : int;
    mutable oversized : int;
    mutable resyncs : int;
  }

  val stats : t -> stats
  (** The live counter record (not a copy). *)

  type event =
    | Frames of (string, error) result list
        (** complete payloads and detected corruptions, in arrival
            order *)
    | Eof  (** the peer closed the connection (or died) *)

  val poll : t -> event
  (** One [Unix.read] (blocking if the descriptor is; call after select
      to avoid blocking), then every frame completed by the new bytes —
      possibly none, when a large frame is still partial. Corruption
      never raises; it is returned as [Error] entries. *)

  val feed : t -> string -> (string, error) result list
  (** Push bytes into the reassembly buffer directly, bypassing the
      descriptor — what {!poll} does with each read, exposed for fuzz
      tests. *)
end

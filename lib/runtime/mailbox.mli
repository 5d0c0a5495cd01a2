(** The transport core shared by both engines.

    One mailbox per run holds the three pieces of network mechanics that
    used to be duplicated across the engines:

    - {b authenticated-channel screening}: adversary letters claiming an
      honest (or out-of-range) sender are dropped, counted and logged —
      forgeries are impossible in the model, so the engine enforces it;
      letters to out-of-range recipients vanish silently (sending into the
      void is pointless, not forbidden);
    - {b per-pair delivery dedup} (synchronous rounds only): at most one
      letter per [(src, dst)] pair per round, first posted wins;
    - {b accounting}: cumulative honest / adversarial message counts and
      rejected-forgery counts, reported identically by both engines in the
      unified {!Report.t}.

    The asynchronous engine uses only screening and accounting — its
    delivery is the scheduler's business; the synchronous engine also runs
    its per-round delivery ([begin_round] / [post] / [inbox]) through the
    mailbox.

    Internally the per-round state is flat: an n×n seen bitmatrix plus
    one payload row per recipient, both preallocated and reused across
    rounds, so a round of all-pairs traffic costs O(1) per letter and no
    per-read sorting or copying — an [inbox] view walks the recipient's
    bit row, which is sorted by construction. *)

type 'msg t

val create : n:int -> 'msg t

(** {1 Fault injection (both engines)} *)

type fault_decision =
  | Deliver  (** pass through untouched *)
  | Drop  (** the letter vanishes (omission / partition / crash window) *)
  | Duplicate
      (** enqueue the letter twice — async engine only; the synchronous
          per-pair dedup makes duplication a no-op there *)
  | Delay of int
      (** defer delivery by this many scheduler steps — async engine
          only, clamped to the patience bound so eventual delivery is
          preserved *)

type fault_filter =
  round:Types.round -> src:Types.party_id -> dst:Types.party_id ->
  fault_decision
(** A compiled fault plan: a pure-looking (internally seeded) decision
    function over a letter's routing metadata. Decisions never inspect
    payloads, so one filter serves any message type. Compiled from a
    [Fault_plan.t] by [Aat_faults.Inject.filter] with a dedicated
    SplitMix64 stream split from the run seed — the decision sequence is
    a function of the run seed alone, keeping campaigns bit-identical
    for any [--workers]. *)

val set_fault_filter : 'msg t -> fault_filter -> unit
(** Install the filter. The synchronous engine then applies it inside
    {!post}; the asynchronous engine consults {!decide} at enqueue
    time. *)

val decide :
  'msg t -> round:Types.round -> src:Types.party_id -> dst:Types.party_id ->
  fault_decision
(** Ask the installed filter about a letter from [src] to [dst] (always
    [Deliver] when none is installed) and bump the matching fault
    counter. *)

val fault_stats : 'msg t -> crashed:int -> Report.fault_stats
(** Cumulative injected-fault counters, with the engine-supplied crash
    count folded in. *)

(** {1 Screening and accounting (both engines)} *)

val screen :
  'msg t ->
  adversary:string ->
  corrupted:Party_set.t ->
  'msg Types.letter list ->
  'msg Types.letter list
(** Filter adversary-submitted letters: keep those from corrupted in-range
    senders to in-range recipients; count (and log, tagged with the
    adversary's [name]) each honest-sender forgery; silently drop
    out-of-range recipients. *)

val note_honest : 'msg t -> int -> unit
(** Count honest message submissions (pre-dedup: what was handed to the
    network, not what survived delivery). *)

val note_adversary : 'msg t -> int -> unit
(** Count adversarial messages accepted by [screen] (again pre-dedup). *)

val honest_messages : 'msg t -> int

val adversary_messages : 'msg t -> int

val rejected_forgeries : 'msg t -> int

(** {1 Per-round delivery (synchronous engine)} *)

val begin_round : round:Types.round -> 'msg t -> unit
(** Start round [round]: reset the round-local delivery state (dedup
    table, inboxes, delivered list) and stamp the following posts with
    [round] for the fault filter. Every inbox handed out before this call
    is stale from here on. Accounting is cumulative and survives. *)

val post : 'msg t -> 'msg Types.letter -> unit
(** Deliver a letter unless the fault filter drops it or the [(src, dst)]
    pair already delivered this round — first posted wins. The fault
    decision is taken {e before} dedup (each submission crosses the
    faulty network independently), so a dropped first submission leaves
    the pair's slot open for a later one. Raises [Invalid_argument] when
    [src] or [dst] falls outside [0, n): honest senders are validated by
    the engine and adversarial ones by {!screen}, so an out-of-range id
    reaching the transport is a harness bug, not traffic. *)

val post_direct :
  'msg t -> src:Types.party_id -> dst:Types.party_id -> 'msg -> unit
(** Exactly {!post} without the letter record: the synchronous engine
    posts honest outboxes component by component, and a letter value is
    only materialized if delivered-letter tracking is on. *)

val post_last_wins : 'msg t -> 'msg Types.letter list -> unit
(** Post a submission batch so that the {e last} submitted letter per pair
    wins (reverse, then first-posted-wins): the rule for adversary batches,
    where a Byzantine double-send resolves to the adversary's final
    choice. *)

val inbox : 'msg t -> Types.party_id -> 'msg Inbox.t
(** The recipient's inbox for this round, read in ascending sender order
    (senders are unique after dedup, so this order is total). A view, not
    a copy: each read walks the recipient's seen-bit row and payload row
    in O(n/8 + k) and allocates nothing per letter. It is valid until the
    next {!begin_round}; reading it after that raises [Invalid_argument].
    Out-of-range recipients have empty inboxes. *)

val delivered : 'msg t -> 'msg Types.letter list
(** All letters delivered this round, most recently posted first — the
    shape stored in adversary history and traces. Empty when
    delivered-letter tracking is off. *)

val delivered_count : 'msg t -> int
(** Letters delivered this round; O(1), maintained at post time whether
    or not tracking is on — the telemetry counter without the list. *)

val set_delivered_tracking : 'msg t -> bool -> unit
(** Default on. Engines switch tracking off when nothing will read the
    per-round delivered {e list} (an adversary that does not declare
    [reads_history], no trace recording): at n = 10^4 the list alone is
    ~10^8 live letters a round, and no reader means no reason to build
    it. {!delivered_count} keeps counting either way. *)

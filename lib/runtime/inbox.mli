(** One round's deliveries to one party, read in place.

    An inbox holds at most one letter per sender and is always read in
    ascending sender order. It is a view, not a copy: the synchronous
    engine's inboxes ({!Mailbox.inbox}) walk the transport's own seen-bit
    row and payload row, and are valid only during the round they were
    handed out in — reading one later raises [Invalid_argument]. A
    protocol keeps what it needs from its inbox, never the inbox.

    Views compose without copying: {!filter} and {!make} wrap a view in
    another one, so a layer that drops or unwraps letters (a blacklist, a
    phase tag) allocates once per read, not once per letter. *)

type 'msg t

val make : ((Types.party_id -> 'msg -> unit) -> unit) -> 'msg t
(** [make iter] is the view whose letters are those [iter f] passes to
    [f]. [iter] must pass them in ascending sender order, at most one
    per sender. *)

val empty : 'msg t

val of_list : 'msg Types.envelope list -> 'msg t
(** A view over explicit envelopes, for callers that build an inbox
    outside the engine (tests, an adversary replaying a protocol). The
    list must be sorted by sender, one envelope per sender. Never stale. *)

val iter : (Types.party_id -> 'msg -> unit) -> 'msg t -> unit
(** [iter f inbox] calls [f sender payload] for each letter, senders
    ascending. *)

val fold : ('acc -> Types.party_id -> 'msg -> 'acc) -> 'acc -> 'msg t -> 'acc
(** Left fold in ascending sender order. *)

val filter : (Types.party_id -> bool) -> 'msg t -> 'msg t
(** The letters whose sender satisfies the predicate. *)

val to_list : 'msg t -> 'msg Types.envelope list
(** A fresh envelope list, sorted by sender: the inverse of {!of_list}. *)

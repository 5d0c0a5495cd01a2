(** The asynchronous engine's pool of in-flight letters.

    A slot holds one letter as four parallel entries — sender, recipient,
    body and key — so an in-flight letter costs no record of its own. The
    key is the event stamp the scheduler orders by: the enqueue event, or
    a later one for a letter a [Delay] fault holds back, so keys arrive
    out of order.

    Slots are dense, [0 .. length - 1]. {!remove} is a swap-remove: the
    last slot moves into the freed one, so slot order is not enqueue
    order and callers must not rely on it beyond what the scheduler
    reads. {!oldest_slot} answers in O(1) from an argmin tree over the
    keys; see the implementation for its update rule. *)

type 'msg t

val create : unit -> 'msg t

val length : 'msg t -> int

val is_empty : 'msg t -> bool

val add : 'msg t -> src:int -> dst:int -> key:int -> 'msg -> unit
(** Append a letter in slot [length]. *)

val remove : 'msg t -> int -> unit
(** Free slot [i] by moving the last slot into it. *)

val oldest_slot : 'msg t -> int
(** The leftmost slot holding the minimal key; meaningless when empty. *)

val src : 'msg t -> int -> int

val dst : 'msg t -> int -> int

val body : 'msg t -> int -> 'msg

val key : 'msg t -> int -> int

(** Shared vocabulary of both execution engines.

    The model is the paper's (Section 2): [n] parties [p_0 .. p_{n-1}] in a
    fully connected network of authenticated channels, and an adversary
    corrupting at most [t] parties. The synchronous engine adds lock-step
    rounds; the asynchronous engine replaces them with delivery events, but
    messages, envelopes and party identities are the same in both. *)

type party_id = int
(** Party identifier in [\[0, n)]. The paper's [p_i] is our [i - 1]. *)

type round = int
(** Round counter, starting at 1 for the first communication round. The
    asynchronous engine reuses it as the delivery-event counter (its only
    notion of logical time). *)

type 'msg envelope = { sender : party_id; payload : 'msg }
(** A delivered message. [sender] is stamped by the engine — channels are
    authenticated, so not even a Byzantine party can forge it. *)

type 'msg letter = { src : party_id; dst : party_id; body : 'msg }
(** An in-flight message: what a party (or the adversary, on behalf of a
    corrupted party) hands to the network for delivery. *)

(** A typed, heritable encoding of an adversary strategy — the search
    space of the synthesis harness ([lib/synth]).

    A genome composes and configures the hand-written primitives of this
    library ({!Strategies}, {!Spoiler}, {!Wedge}, {!Compose}) instead of
    inventing new attack mechanics: the search explores {e which} attack
    to mount, {e whom} to corrupt, {e when} to strike and — on the
    asynchronous engine — {e in what order} to deliver, while every
    concrete behaviour stays one of the audited strategies. Two attack
    slots cover TreeAA's two phases (single-phase protocols read only
    {!field-first}); the scheduler gene matters only under the
    asynchronous engine.

    Mutation and crossover draw from an explicit {!Aat_util.Rng.t}
    (SplitMix64), so whole search runs are reproducible from one seed.
    The string codec ({!to_string}/{!of_string}) is the wire format used
    by campaign spec serialization ([Spec_io]) and the [treeaa synth]
    CLI; it round-trips every genome. *)

open Aat_engine
open Aat_gradecast

(** Where in the id space the victims sit. {!Spoiler} corrupts the top
    ids, so [Top] victims collide with its set and [Bottom]/[Spread]
    victims hit the parties it relies on being honest. *)
type placement = Top | Bottom | Spread

type victims = { count : int; placement : placement }
(** [count] is clamped to the corruption budget [t] by construction:
    {!random}, {!mutate} and {!crossover} never emit [count > max 1 t],
    and {!valid} rejects such a genome outright. *)

type attack =
  | Passive  (** no corruptions — the fault-free baseline gene *)
  | Silent of victims  (** fail-stop from round 0 ({!Strategies.silent}) *)
  | Crash of { victims : victims; at_round : int }
      (** adaptive mid-run crash ({!Strategies.crash}) *)
  | Spoiler of { relentless : bool }
      (** the Lemma-5 convergence spoiler; [relentless] disables its burn
          bookkeeping ({!Spoiler.relentless_spoiler}) *)
  | Wedge  (** the [n <= 3t] equivocation attack ({!Wedge.gradecast_wedge}) *)

(** Delivery-order gene for the asynchronous engine; ignored by the
    synchronous runners. Mirrors [Runner.scheduler]. *)
type scheduler = Fifo | Lifo | Random_order

type t = { first : attack; second : attack; scheduler : scheduler }

val equal : t -> t -> bool

val generic : t -> bool
(** Both attack slots are protocol-agnostic ([Passive]/[Silent]/[Crash])
    — the precondition for wire-polymorphic compilation
    ({!compile_generic}) and hence for protocols that do not speak the
    gradecast wire (NR baseline, the asynchronous runners). *)

val valid : t:int -> max_round:int -> t -> bool
(** Victim counts within the corruption budget, crash rounds within
    [[1, max_round]]. *)

(** {1 Search operators}

    All three are deterministic functions of the [rng] argument and
    preserve {!valid} (and, when [generic_only] is set, {!generic}). *)

val random : ?generic_only:bool -> Aat_util.Rng.t -> t:int -> max_round:int -> t

val mutate :
  ?generic_only:bool -> Aat_util.Rng.t -> t:int -> max_round:int -> t -> t
(** Point mutation: re-roll or perturb one gene (an attack slot's kind,
    victim count, placement, crash round, spoiler twist, or the
    scheduler). *)

val crossover : Aat_util.Rng.t -> t -> t -> t
(** Uniform per-gene crossover of the two parents. *)

(** {1 Codec} *)

val to_string : t -> string
(** Compact wire form, e.g. [silent:2t+crash:1b@5+fifo]: the two attack
    slots and the scheduler joined by ['+']; victim sets are
    [<count><placement>] with placement [t]op/[b]ottom/[s]pread. *)

val of_string : string -> (t, string) result
(** Inverse of {!to_string}: [of_string (to_string g) = Ok g]. *)

val codec : t Aat_util.Codec.t
(** The grammar behind both, for grammars that embed a genome. *)

(** {1 Compilation}

    Victim id lists are resolved here, where [n] is known (campaign
    instantiation time). *)

val select_victims : n:int -> victims -> Types.party_id list
(** [Top]: the [count] highest ids; [Bottom]: the lowest; [Spread]:
    evenly spaced. [count] is clamped to [n]. *)

val compile_real :
  n:int -> t:int -> iterations:int -> t -> float Gradecast.Multi.msg Adversary.t
(** Single-phase protocols (RealAA, iterated midpoint, PathAA phase):
    compiles {!field-first}; {!field-second} and the scheduler are inert. *)

val compile_tree :
  n:int ->
  t:int ->
  barrier:int ->
  first_iterations:int ->
  second_iterations:int ->
  t ->
  (float Gradecast.Multi.msg, float Gradecast.Multi.msg) Composed.msg Adversary.t
(** Both slots phased across TreeAA's composition boundary via
    {!Compose.phased} — the genome analogue of the hand-written
    tree spoiler. *)

val compile_generic : n:int -> t -> 'msg Adversary.t option
(** Wire-polymorphic compilation of {!field-first}; [Some] exactly when
    that slot is protocol-agnostic. Serves any runner, including the
    asynchronous ones. *)

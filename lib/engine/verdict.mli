(** Checking the AA properties of Definition 1 on finished executions.

    The checkers take the honest parties' inputs and outputs of one run and
    decide Termination / Validity / ε-Agreement. Tree-valued runs are
    checked by [Aat_treeaa.Tree_verdict], which layers convex hulls on this
    module's shape. *)

type t = {
  termination : bool;  (** every honest party produced an output *)
  validity : bool;  (** outputs within the range/hull of honest inputs *)
  agreement : bool;  (** outputs pairwise within the agreement distance *)
}

val all_ok : t -> bool

val pp : Format.formatter -> t -> unit

val conj : t -> t -> t

(** {1 Grading under fault plans}

    A verdict says {e whether} the properties held; a grade says whether a
    failure is the protocol's fault. A run whose fault plan crashed more
    than [t] parties (so fewer than [n - t] live honest parties remain) —
    or lost letters a Byzantine adversary could not have lost — failed
    {e outside} the model the paper proves anything about: such failures
    are [Excused], not [Violated]. Campaigns aggregate the two
    separately, so a chaos grid distinguishes "the protocol broke" from
    "the environment broke the model". *)

type graded =
  | Passed  (** all three properties held *)
  | Violated of t  (** a genuine in-model failure: the carried verdict *)
  | Excused of { reason : string; verdict : t }
      (** failed, but outside the model's hypotheses *)

val grade : n:int -> t:int -> faulty:int -> ?excuse:string -> t -> graded
(** [faulty] is the run's total corrupted-or-crashed party count. A
    failed verdict is excused when [faulty > t], or when the caller
    supplies [?excuse] (e.g. "the fault plan drops letters, the model
    does not"). A verdict with all properties holding is [Passed]
    regardless. *)

val graded_label : graded -> string
(** ["passed"] / ["violated"] / ["excused"] — the campaign JSONL tags. *)

val real :
  eps:float -> n_honest:int -> honest_inputs:float list ->
  honest_outputs:float list -> t
(** Definition 1 on ℝ: outputs in [\[min inputs, max inputs\]] and pairwise
    within [eps]. [n_honest] is the number of parties that were honest at
    the end of the run; termination fails if fewer outputs were produced. *)

val real_of_report :
  eps:float ->
  inputs:(Types.party_id -> float) ->
  value:('o -> float) ->
  ('o, 'm) Aat_runtime.Report.t ->
  t
(** {!real} applied straight to a unified run report, from either engine:
    the Validity hull is over the inputs of {e initially}-honest parties
    and Termination quantifies over {e finally}-honest ones, per the
    conventions of {!Aat_runtime.Report}. [inputs] maps a party to its
    input; [value] extracts the agreed-upon real from a protocol output. *)

val spread : float list -> float
(** [max - min] of a non-empty list; 0. for []. The honest range the
    convergence experiments track. *)

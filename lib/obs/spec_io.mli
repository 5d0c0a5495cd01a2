(** JSON and CLI-string codecs for {!Aat_campaign.Campaign.Spec}.

    The flight recorder ({!Recorder}) embeds the full campaign spec in
    every run-record header, so the record alone re-instantiates the run;
    this module is the codec. The CLI's campaign flags parse through the
    same string grammar, so [treeaa campaign] and record files can never
    drift apart.

    [of_json (to_json s)] returns [Ok s] for every valid spec: the JSON
    encoding is structural, floats travel as JSON numbers (which
    {!Aat_telemetry.Jsonx.to_string} renders exactly), and a fixed fault
    plan is embedded in its compact [--fault-plan] string form. *)

module Spec = Aat_campaign.Campaign.Spec

(** {1 CLI string grammar}

    The grammars of the [treeaa campaign] flags — [SIZE] is [N] or
    [LO-HI]; see the CLI's [--help] for the full vocabularies. Each
    [*_to_string] prints what its [*_of_string] reads back; the lexical
    rules are {!Aat_util.Codec}'s. *)

val size_of_string : string -> (Spec.size, string) result
val size_to_string : Spec.size -> string
val tree_family_of_string : string -> (Spec.tree_family, string) result
val tree_family_to_string : Spec.tree_family -> string

val protocol_of_string :
  eps:float -> string -> (Spec.protocol, string) result
(** The inverse of {!Spec.protocol_label}. [eps] seeds the agreement
    distance of the real-valued protocols ([realaa],
    [iterated-midpoint]); ignored by the rest. *)

val adversary_of_string : string -> (Spec.adversary_family, string) result
val adversary_to_string : Spec.adversary_family -> string
val inputs_of_string : string -> (Spec.input_dist, string) result
val inputs_to_string : Spec.input_dist -> string

(** {1 JSON codec} *)

val to_json : Spec.t -> Aat_telemetry.Jsonx.t

val of_json : Aat_telemetry.Jsonx.t -> (Spec.t, string) result
(** Inverse of {!to_json}. [No_faults] and [watchdogs = false] are
    encoded by omission, so hand-written minimal spec objects parse. *)

val read_file : string -> (Spec.t, string) result
(** A spec file ([treeaa campaign --spec], [soak --spec]): one {!to_json}
    object. An unreadable file, non-JSON or a bad spec is an [Error]
    naming the path. *)

(** Text grammars declared once.

    A ['a t] declares a compact grammar — fault plans, wire-chaos plans,
    genomes, campaign flags, tree specs — and both {!parse} and {!print}
    follow from that one declaration. All grammars share its lexical
    rules: whitespace around a number is ignored, floats print with
    [%.12g], {!clauses} trims clauses and skips empty ones and reads
    ["none"] or the empty string as no clauses, and {!parse} never
    raises — malformed input is an [Error] saying what was expected. *)

type 'a t

val parse : 'a t -> string -> ('a, string) result

val print : 'a t -> 'a -> string
(** Raises only for a value that the declaration's tables do not cover:
    a bug in the declaration, not in input. *)

val int : int t
(** An OCaml integer literal such as [-5], [0x1F] or [1_000], printed
    with [%d]. *)

val float : float t
(** An OCaml float literal such as [0.25], [1e-3] or [inf], printed
    with [%.12g]. *)

val conv : ('a -> ('b, string) result) -> ('b -> 'a) -> 'a t -> 'b t
(** [conv check back c] parses with [c], then [check]s (and converts)
    the value; it prints [back v] with [c]. *)

val pair : char -> 'a t -> 'b t -> ('a * 'b) t
(** [A<sep>B], split at the first [sep]: [B] may contain [sep] itself. *)

val pair_opt : char -> 'a t -> 'b t -> ('a * 'b option) t
(** [A] or [A<sep>B], split like {!pair}. *)

val list : char -> 'a t -> 'a list t
(** Items split at every [sep]; each one, empty ones too, must parse. *)

val suffix : 'a t -> (string * 'b) list -> ('a * 'b) t
(** [A] directly followed by one of the table's names, as in [2t]. *)

val clauses : string -> 'a t -> 'a list t
(** [clauses seps c]: clauses separated by any character of [seps],
    printed joined by the first one; no clauses print as ["none"]. *)

(** {1 Vocabularies} *)

type 'a case

val const : string -> 'a -> 'a case
(** The whole input is the name; prints values equal ([compare]) to the
    given one. *)

val case : string -> 'b t -> ('b -> 'a) -> ('a -> 'b option) -> 'a case
(** [case name body inject project] reads [name:BODY] and prints the
    values [project] maps to [Some]. *)

val cases : string -> 'a case list -> 'a t
(** One name table; the string names the vocabulary in errors, which
    list its names. *)

(** {1 Settings} *)

type 'r field

val field :
  string -> 'b t -> ('r -> 'b option) -> ('r -> 'b -> 'r) -> 'r field
(** [field name body get set]: the clause [name:BODY] sets a field of
    the record; the field prints when [get] gives [Some]. *)

val fields : string -> string -> 'r -> 'r field list -> 'r t
(** [fields what seps init table]: {!clauses} that set fields of [init];
    of two clauses setting one field the first wins. Prints in table
    order. *)

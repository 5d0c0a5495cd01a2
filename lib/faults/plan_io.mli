(** The compact fault-plan grammar behind the [--fault-plan] CLI flags.

    One clause per fault, clauses joined with [;]:

    {v
    crash:P@R                party P silent forever from round R
    crash-recover:P@A-B      party P silent during rounds A..B inclusive
    omission:PROB            whole-network per-letter omission
    omission:PROB:party:P    ... scoped to letters touching P
    omission:PROB:pair:S>D   ... scoped to the directed channel S->D
    duplicate:PROB[:scope]   async engines only
    delay:PROB:BY[:scope]    async only: defer BY events (within patience)
    partition:B1|B2@A-B      blocks = comma-separated parties, e.g.
                             partition:0,1|2,3,4@2-6
    v}

    ["none"] (or the empty string) is the empty plan. [parse] and
    {!to_string} are mutual inverses up to float rendering; the lexical
    rules are {!Aat_util.Codec}'s. *)

val parse : string -> (Plan.t, string) result
(** Parse and {!Plan.validate} (without an [n] bound — the campaign
    re-validates against the drawn [n]). *)

val to_string : Plan.t -> string

val to_json : Plan.t -> Aat_telemetry.Jsonx.t
(** The plan in its compact string form, as a JSON string — the shape
    campaign JSONL headers embed. *)

val of_json : Aat_telemetry.Jsonx.t -> (Plan.t, string) result

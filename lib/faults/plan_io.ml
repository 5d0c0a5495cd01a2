module J = Aat_telemetry.Jsonx
module C = Aat_util.Codec

(* The compact plan grammar (see plan_io.mli), one fault per ';'-separated
   clause. A window splits at every '-': "0--0" is no window, although
   its second bound alone would read as -0 = 0. *)

let window =
  C.conv
    (function [ a; b ] -> Ok (a, b) | _ -> Error "expected FROM-TO")
    (fun (a, b) -> [ a; b ])
    (C.list '-' C.int)

let scope =
  C.cases "scope"
    [
      C.case "party" C.int
        (fun p -> Plan.Party p)
        (function Plan.Party p -> Some p | _ -> None);
      C.case "pair" (C.pair '>' C.int C.int)
        (fun (src, dst) -> Plan.Pair { src; dst })
        (function Plan.Pair { src; dst } -> Some (src, dst) | _ -> None);
    ]

(* [body] optionally followed by ":scope"; no scope is the whole network *)
let scoped body =
  C.conv
    (fun (x, s) -> Ok (x, Option.value s ~default:Plan.All))
    (fun (x, s) -> (x, if s = Plan.All then None else Some s))
    (C.pair_opt ':' body scope)

let fault =
  C.cases "fault"
    [
      C.case "crash" (C.pair '@' C.int C.int)
        (fun (party, at_round) -> Plan.Crash { party; at_round })
        (function
          | Plan.Crash { party; at_round } -> Some (party, at_round) | _ -> None);
      C.case "crash-recover" (C.pair '@' C.int window)
        (fun (party, (from_round, to_round)) ->
          Plan.Crash_recover { party; from_round; to_round })
        (function
          | Plan.Crash_recover { party; from_round; to_round } ->
              Some (party, (from_round, to_round))
          | _ -> None);
      C.case "omission" (scoped C.float)
        (fun (prob, scope) -> Plan.Omission { prob; scope })
        (function Plan.Omission { prob; scope } -> Some (prob, scope) | _ -> None);
      C.case "duplicate" (scoped C.float)
        (fun (prob, scope) -> Plan.Duplicate { prob; scope })
        (function
          | Plan.Duplicate { prob; scope } -> Some (prob, scope) | _ -> None);
      C.case "delay" (C.pair ':' C.float (scoped C.int))
        (fun (prob, (by, scope)) -> Plan.Delay { prob; scope; by })
        (function
          | Plan.Delay { prob; scope; by } -> Some (prob, (by, scope)) | _ -> None);
      C.case "partition" (C.pair '@' (C.list '|' (C.list ',' C.int)) window)
        (fun (blocks, (from_round, to_round)) ->
          Plan.Partition { blocks; from_round; to_round })
        (function
          | Plan.Partition { blocks; from_round; to_round } ->
              Some (blocks, (from_round, to_round))
          | _ -> None);
    ]

let codec =
  C.conv
    (fun plan -> Result.map (fun () -> plan) (Plan.validate plan))
    Fun.id
    (C.clauses ";" fault)

let parse = C.parse codec
let to_string = C.print codec
let to_json plan = J.Str (to_string plan)

let of_json = function
  | J.Str s -> parse s
  | J.Null -> Ok Plan.empty
  | _ -> Error "fault plan: expected a JSON string"

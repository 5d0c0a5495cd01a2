type violation = {
  watchdog : string;
  round : Types.round;
  detail : string;
}

type 's t = {
  name : string;
  check :
    round:Types.round ->
    states:(Types.party_id * 's) list ->
    corrupted:Party_set.t ->
    string option;
}

let make ~name check = { name; check }

let name wd = wd.name

let check wd ~round ~states ~corrupted = wd.check ~round ~states ~corrupted

type 's running = {
  mutable armed : 's t list;
  mutable fired_rev : violation list;
}

let start watchdogs = { armed = watchdogs; fired_rev = [] }

let armed r = r.armed <> []

let step r ~round ~states ~corrupted =
  r.armed <-
    List.filter
      (fun wd ->
        match wd.check ~round ~states ~corrupted with
        | None -> true
        | Some detail ->
            r.fired_rev <- { watchdog = wd.name; round; detail } :: r.fired_rev;
            false)
      r.armed

let violations r = List.rev r.fired_rev

let pp_violation fmt v =
  Format.fprintf fmt "[%s] round %d: %s" v.watchdog v.round v.detail

type 'msg t = (Types.party_id -> 'msg -> unit) -> unit

let make iter = iter

let empty _ = ()

let of_list envelopes f =
  List.iter (fun (e : _ Types.envelope) -> f e.sender e.payload) envelopes

let iter f inbox = inbox f

let fold f init inbox =
  let acc = ref init in
  inbox (fun sender m -> acc := f !acc sender m);
  !acc

let filter keep inbox f = inbox (fun sender m -> if keep sender then f sender m)

let to_list inbox =
  List.rev
    (fold (fun acc sender payload -> { Types.sender; payload } :: acc) [] inbox)

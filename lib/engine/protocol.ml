type 'msg outbox = To_all of 'msg | To of (Types.party_id * 'msg) list

let outbox_to_list ~n = function
  | To_all m -> List.init n (fun dst -> (dst, m))
  | To l -> l

let map_outbox f = function
  | To_all m -> To_all (f m)
  | To l -> To (List.map (fun (dst, m) -> (dst, f m)) l)

type ('state, 'msg, 'out) t = {
  name : string;
  init : self:Types.party_id -> n:int -> 'state;
  send : round:Types.round -> self:Types.party_id -> 'state -> 'msg outbox;
  receive :
    round:Types.round -> self:Types.party_id -> inbox:'msg Inbox.t ->
    'state -> 'state;
  output : 'state -> 'out option;
}

let map_output f p = { p with output = (fun s -> Option.map f (p.output s)) }

(* Each party derives its phase-two protocol once, at the barrier, and
   keeps it in [Phase2] with its state. *)
let sequential ~name ~first ~rounds_of_first ~second =
  if rounds_of_first < 1 then invalid_arg "Protocol.sequential: rounds_of_first < 1";
  let open Composed in
  let init ~self ~n = { n; phase = Phase1 (first.init ~self ~n) } in
  let send ~round ~self state =
    match state.phase with
    | Phase1 s -> map_outbox (fun m -> M1 m) (first.send ~round ~self s)
    | Bridged _ -> To []
    | Phase2 (p2, s2) ->
        map_outbox
          (fun m -> M2 m)
          (p2.send ~round:(round - rounds_of_first) ~self s2)
  in
  (* Each phase reads a view of the inbox holding its own letters,
     unwrapped: nothing is copied. *)
  let phase1 inbox =
    Inbox.make (fun f ->
        Inbox.iter (fun src -> function M1 m -> f src m | M2 _ -> ()) inbox)
  and phase2 inbox =
    Inbox.make (fun f ->
        Inbox.iter (fun src -> function M2 m -> f src m | M1 _ -> ()) inbox)
  in
  let receive ~round ~self ~inbox state =
    let cross_barrier phase =
      (* At the end of round [rounds_of_first] every honest party must have
         decided phase one (the protocol's round bound guarantees it); all
         parties then enter phase two simultaneously — TreeAA line 4. *)
      if round <> rounds_of_first then phase
      else
        match phase with
        | Bridged o1 ->
            Aat_telemetry.Telemetry.Probe.mark "phase2-entered";
            let p2 = second o1 in
            Phase2 (p2, p2.init ~self ~n:state.n)
        | Phase1 _ ->
            failwith
              (Printf.sprintf
                 "%s: phase one undecided at its round bound (round %d)" name
                 round)
        | Phase2 _ -> assert false
    in
    let phase =
      match state.phase with
      | Phase1 s ->
          let s' = first.receive ~round ~self ~inbox:(phase1 inbox) s in
          let next =
            match first.output s' with Some o1 -> Bridged o1 | None -> Phase1 s'
          in
          cross_barrier next
      | Bridged o1 -> cross_barrier (Bridged o1)
      | Phase2 (p2, s2) ->
          let s2' =
            p2.receive ~round:(round - rounds_of_first) ~self
              ~inbox:(phase2 inbox) s2
          in
          Phase2 (p2, s2')
    in
    { state with phase }
  in
  let output state =
    match state.phase with
    | Phase2 (p2, s2) -> p2.output s2
    | Phase1 _ | Bridged _ -> None
  in
  { name; init; send; receive; output }

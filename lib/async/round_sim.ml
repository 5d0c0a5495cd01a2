open Aat_engine

type 'm batch = { round : Types.round; payload : 'm option }

type 'm slot = {
  payloads : 'm option array;
  seen : bool array;
  mutable arrived : int;
}

type ('s, 'm, 'o) state = {
  n : int;
  mutable proto : 's option;
  mutable round : Types.round;
  mutable decided : ('o * Types.round) option;
  buffer : (Types.round, 'm slot) Hashtbl.t;
}

let reactor_of_protocol (type s m o) (protocol : (s, m, o) Protocol.t) :
    ((s, m, o) state, m batch, o * Types.round) Async_engine.reactor =
  (* One batch to every party every round, [None] payload meaning "nothing
     for you this round" — the keep-alives that carry the round structure
     through a roundless network. Per-recipient dedup matches the sync
     engine: the first letter submitted to a destination wins. *)
  let batches st ~self ~round =
    let per_dst = Array.make st.n None in
    (match st.proto with
    | None -> ()
    | Some s -> (
        match protocol.Protocol.send ~round ~self s with
        | Protocol.To_all body -> Array.fill per_dst 0 st.n (Some body)
        | Protocol.To letters ->
            List.iter
              (fun ((dst, body) : Types.party_id * m) ->
                if dst < 0 || dst >= st.n then
                  invalid_arg
                    (Printf.sprintf "%s: p%d sent to invalid party %d"
                       protocol.Protocol.name self dst)
                else if per_dst.(dst) = None then per_dst.(dst) <- Some body)
              letters));
    List.init st.n (fun dst -> (dst, { round; payload = per_dst.(dst) }))
  in
  let get_slot st r =
    match Hashtbl.find_opt st.buffer r with
    | Some slot -> slot
    | None ->
        let slot =
          {
            payloads = Array.make st.n None;
            seen = Array.make st.n false;
            arrived = 0;
          }
        in
        Hashtbl.add st.buffer r slot;
        slot
  in
  (* Process every round whose n batches have all arrived (deliveries may
     run ahead of the slowest sender by at most one round, but a non-FIFO
     scheduler can hand us round r+1 batches before round r completes). *)
  let rec drain st ~self acc =
    match Hashtbl.find_opt st.buffer st.round with
    | Some slot when slot.arrived = st.n ->
        let r = st.round in
        Hashtbl.remove st.buffer r;
        let inbox = ref [] in
        for q = st.n - 1 downto 0 do
          match slot.payloads.(q) with
          | Some body -> inbox := { Types.sender = q; payload = body } :: !inbox
          | None -> ()
        done;
        (match st.proto with
        | Some s ->
            let s' =
              protocol.Protocol.receive ~round:r ~self
                ~inbox:(Inbox.of_list !inbox) s
            in
            (match protocol.Protocol.output s' with
            | Some o ->
                st.decided <- Some (o, r);
                st.proto <- None
            | None -> st.proto <- Some s')
        | None -> ());
        st.round <- r + 1;
        drain st ~self (acc @ batches st ~self ~round:st.round)
    | _ -> acc
  in
  {
    Async_engine.name = protocol.Protocol.name ^ "@lockstep";
    init =
      (fun ~self ~n ->
        let s = protocol.Protocol.init ~self ~n in
        let st =
          { n; proto = Some s; round = 1; decided = None; buffer = Hashtbl.create 8 }
        in
        (* zero-communication decisions, as in the sync engine *)
        (match protocol.Protocol.output s with
        | Some o ->
            st.decided <- Some (o, 0);
            st.proto <- None
        | None -> ());
        (st, batches st ~self ~round:1));
    on_message =
      (fun ~self e st ->
        let b = e.Types.payload in
        let q = e.Types.sender in
        if b.round >= st.round && q >= 0 && q < st.n then begin
          let slot = get_slot st b.round in
          if not slot.seen.(q) then begin
            slot.seen.(q) <- true;
            slot.payloads.(q) <- b.payload;
            slot.arrived <- slot.arrived + 1
          end
        end;
        (st, drain st ~self []));
    output = (fun st -> st.decided);
  }

type ('s, 'm) sync_state = { rs : 's; outbox : (Types.party_id * 'm) list }

let protocol_of_reactor (type s m o)
    (reactor : (s, m, o) Async_engine.reactor) :
    ((s, m) sync_state, m, o) Protocol.t =
  {
    Protocol.name = reactor.Async_engine.name ^ "@rounds";
    init =
      (fun ~self ~n ->
        let rs, outbox = reactor.Async_engine.init ~self ~n in
        { rs; outbox });
    send = (fun ~round:_ ~self:_ st -> Protocol.To st.outbox);
    receive =
      (fun ~round:_ ~self ~inbox st ->
        let rs, outbox =
          Inbox.fold
            (fun (s, acc) sender payload ->
              let s', letters =
                reactor.Async_engine.on_message ~self
                  { Types.sender; payload } s
              in
              (s', acc @ letters))
            (st.rs, []) inbox
        in
        { rs; outbox });
    output = (fun st -> reactor.Async_engine.output st.rs);
  }

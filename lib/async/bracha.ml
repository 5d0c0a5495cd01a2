open Aat_engine

type key = { origin : Types.party_id; tag : int }

type 'v msg =
  | Init of key * 'v
  | Echo of key * 'v
  | Ready of key * 'v

module Instances = struct
  module Table = Hashtbl.Make (struct
    type t = key

    let equal a b = a.origin = b.origin && a.tag = b.tag

    let hash k = (k.origin * 65_599) + k.tag
  end)

  (* The votes one value has gathered in one instance: a bit per sender
     that ECHOed it and a bit per sender that READYed it, with the counts.
     An equivocating Byzantine sender can ECHO different values to
     different parties, so an instance keeps a tally per value — only one
     value can ever reach the n - t echo quorum, by quorum intersection. *)
  type 'v tally = {
    value : 'v;
    echo_voters : Bytes.t;
    mutable echoes : int;
    ready_voters : Bytes.t;
    mutable readies : int;
  }

  type 'v instance = {
    mutable echoed : bool; (* we sent our ECHO *)
    mutable readied : bool; (* we sent our READY *)
    mutable delivered : bool;
    mutable tallies : 'v tally list;
  }

  type 'v t = {
    n : int;
    thr : int; (* t *)
    table : 'v instance Table.t;
  }

  let create ~n ~t = { n; thr = t; table = Table.create 64 }

  let instance t key =
    try Table.find t.table key
    with Not_found ->
      let i =
        { echoed = false; readied = false; delivered = false; tallies = [] }
      in
      Table.replace t.table key i;
      i

  (* Values are told apart as a polymorphic hash table would: by
     [compare v v' = 0]. *)
  let rec tally t inst value = function
    | tl :: rest ->
        if tl.value == value || compare tl.value value = 0 then tl
        else tally t inst value rest
    | [] ->
        let bytes = (t.n + 7) lsr 3 in
        let tl =
          {
            value;
            echo_voters = Bytes.make bytes '\000';
            echoes = 0;
            ready_voters = Bytes.make bytes '\000';
            readies = 0;
          }
        in
        inst.tallies <- tl :: inst.tallies;
        tl

  (* Set [sender]'s bit; true if it was not set yet. *)
  let vote t voters sender =
    if sender < 0 || sender >= t.n then
      invalid_arg "Bracha.Instances.handle: sender out of range";
    let byte = sender lsr 3 and mask = 1 lsl (sender land 7) in
    let c = Char.code (Bytes.get voters byte) in
    if c land mask <> 0 then false
    else begin
      Bytes.set voters byte (Char.unsafe_chr (c lor mask));
      true
    end

  let broadcast ~self ~tag value = Init ({ origin = self; tag }, value)

  (* a static constant: the common no-op reply allocates nothing *)
  let nothing = (None, None)

  (* READY once either quorum is met; deliver on 2t+1 READYs *)
  let progress t key inst tl value =
    let ready =
      if
        (not inst.readied)
        && (tl.echoes >= t.n - t.thr || tl.readies >= t.thr + 1)
      then begin
        inst.readied <- true;
        Some (Ready (key, value))
      end
      else None
    in
    let delivered =
      if (not inst.delivered) && tl.readies >= (2 * t.thr) + 1 then begin
        inst.delivered <- true;
        Some (key, value)
      end
      else None
    in
    match (ready, delivered) with
    | None, None -> nothing
    | _ -> (ready, delivered)

  let handle t ~sender = function
    | Init (key, value) ->
        (* authenticated channels: only the origin itself can INIT *)
        if sender <> key.origin then nothing
        else
          let inst = instance t key in
          if inst.echoed then nothing
          else begin
            inst.echoed <- true;
            (Some (Echo (key, value)), None)
          end
    | Echo (key, value) ->
        let inst = instance t key in
        let tl = tally t inst value inst.tallies in
        if vote t tl.echo_voters sender then tl.echoes <- tl.echoes + 1;
        progress t key inst tl value
    | Ready (key, value) ->
        let inst = instance t key in
        let tl = tally t inst value inst.tallies in
        if vote t tl.ready_voters sender then tl.readies <- tl.readies + 1;
        progress t key inst tl value
end

type 'v state = {
  n : int;
  inst : 'v Instances.t;
  mutable out_value : 'v option;
}

let reactor ~sender ~inputs ~t =
  let key = { origin = sender; tag = 0 } in
  {
    Async_engine.name = "bracha";
    init =
      (fun ~self ~n ->
        let st = { n; inst = Instances.create ~n ~t; out_value = None } in
        let letters =
          if self = sender then
            Async_engine.to_all ~n
              (Instances.broadcast ~self ~tag:0 (inputs self))
              []
          else []
        in
        (st, letters));
    on_message =
      (fun ~self:_ e st ->
        let out, delivered =
          Instances.handle st.inst ~sender:e.Types.sender e.Types.payload
        in
        (match delivered with
        | Some (k, v) when k = key && st.out_value = None ->
            st.out_value <- Some v
        | _ -> ());
        match out with
        | Some m -> (st, Async_engine.to_all ~n:st.n m [])
        | None -> (st, []));
    output = (fun st -> st.out_value);
  }

open Aat_engine

module Keyring = struct
  type key = { id : Types.party_id; nonce : int64 }

  type t = { keys : key array }

  (* The nonce binds signatures to the key instance; within one process the
     abstraction barrier already prevents forging, the nonce additionally
     catches accidental cross-run mixing of signed values in tests. *)
  let setup ~n =
    let rng = Aat_util.Rng.create 0x5163 in
    { keys = Array.init n (fun id -> { id; nonce = Aat_util.Rng.int64 rng }) }

  let key t p = t.keys.(p)

  let signer k = k.id
end

type 'a signed = { payload : 'a; by : Types.party_id; seal : int64 }

let sign (k : Keyring.key) payload = { payload; by = k.id; seal = k.nonce }

let data s = s.payload

let signer s = s.by

let conflict s s' = s.by = s'.by && s.seal = s'.seal && s.payload <> s'.payload

module Accountable = struct
  type 'a outcome =
    | Accepted of 'a signed
    | Missing
    | Convicted of 'a signed * 'a signed

  type 'a msg = Announce of 'a signed | Forward of 'a signed list

  type 'a state = {
    n : int;
    key : Keyring.key;
    (* per sender: every distinct signed value seen, with the round it was
       first seen in *)
    seen : (Types.party_id, ('a signed * int) list) Hashtbl.t;
    decided : 'a outcome array option;
  }

  let rounds = 3

  let note st ~round s =
    let prior = Option.value ~default:[] (Hashtbl.find_opt st.seen (signer s)) in
    if not (List.exists (fun (s', _) -> s' = s) prior) then
      Hashtbl.replace st.seen (signer s) ((s, round) :: prior)

  let everything_seen st =
    Hashtbl.fold (fun _ entries acc -> List.map fst entries @ acc) st.seen []

  let decide st =
    let outcome sender =
      match Option.value ~default:[] (Hashtbl.find_opt st.seen sender) with
      | [] -> Missing
      | [ (s, first_round) ] -> if first_round <= 2 then Accepted s else Missing
      | (a, _) :: (b, _) :: _ -> Convicted (a, b)
    in
    Array.init st.n outcome

  let protocol ~keyring ~inputs =
    {
      Protocol.name = "accountable-broadcast";
      init =
        (fun ~self ~n ->
          let key = Keyring.key keyring self in
          let st = { n; key; seen = Hashtbl.create n; decided = None } in
          note st ~round:1 (sign key (inputs self));
          st);
      send =
        (fun ~round ~self:_ st ->
          let body =
            match round with
            | 1 -> (
                match Hashtbl.find_opt st.seen (Keyring.signer st.key) with
                | Some [ (own, _) ] -> Announce own
                | _ -> assert false)
            | 2 | 3 -> Forward (everything_seen st)
            | _ -> Forward []
          in
          Protocol.To_all body);
      receive =
        (fun ~round ~self:_ ~inbox st ->
          Inbox.iter
            (fun _ -> function
              | Announce s ->
                  (* a replayed announcement (signer <> channel sender) is
                     still valid evidence — signatures transfer *)
                  note st ~round s
              | Forward ss -> List.iter (note st ~round) ss)
            inbox;
          if round >= 3 then { st with decided = Some (decide st) } else st);
      output = (fun st -> st.decided);
    }

  let forge ~key v = Announce (sign key v)

  let forward_msg ss = Forward ss
end

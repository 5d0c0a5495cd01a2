open Aat_engine
open Aat_gradecast
module Multi = Gradecast.Multi

type result = {
  value : float;
  trajectory : float list;
  blacklisted : Types.party_id list;
}

type averaging = Mean | Midpoint

type knobs = { blacklist : bool; adaptive_trim : bool; averaging : averaging }

let faithful = { blacklist = true; adaptive_trim = true; averaging = Mean }

type state = {
  n : int;
  t : int;
  knobs : knobs;
  value : float;
  iterations_left : int;
  mstate : float Multi.state;
  faulty : bool array;
  trajectory_rev : float list;
  decided : result option;
}

let decide st =
  {
    st with
    decided =
      Some
        {
          value = st.value;
          trajectory = List.rev st.trajectory_rev;
          blacklisted =
            List.filter (fun p -> st.faulty.(p)) (List.init st.n Fun.id);
        };
  }

let sub_round round = ((round - 1) mod 3) + 1

let init ~share ~knobs ~inputs ~t ~iterations ~self ~n =
  let value = inputs self in
  let st =
    {
      n;
      t;
      knobs;
      value;
      iterations_left = iterations;
      mstate = Multi.start ~share ~n ~t ~self ~own:value;
      faulty = Array.make n false;
      trajectory_rev = [];
      decided = None;
    }
  in
  if iterations <= 0 then decide st else st

let send ~round st =
  match st.decided with
  | Some _ -> Protocol.To []
  | None -> Multi.send ~round:(sub_round round) st.mstate

(* End of one iteration.

   Inclusion and blacklisting follow [6]: a value is used whenever its
   gradecast returned grade >= 1, and a leader graded <= 1 is blacklisted —
   all its future messages are ignored (see [receive]), which drives all its
   future gradecasts to grade 0 at every honest party.

   Why this gives "each Byzantine party causes an inconsistency at most
   once": an inclusion split (some honest party uses the value, another does
   not) requires grades 1-at-one and 0-at-another for the same instance; a
   grade 0 anywhere rules out grade 2 everywhere (gradecast soundness), so
   in that iteration every honest party saw grade <= 1 and all blacklisted
   the leader together. A 2/1 grade split is NOT an inconsistency — both
   parties include the (identical) value that iteration, and the leader's
   subsequent instances are driven to a consistent fate. *)
let finish_iteration st =
  let results = Multi.results st.mstate in
  let faulty = Array.copy st.faulty in
  if st.knobs.blacklist then
    Array.iteri
      (fun leader (r : float Gradecast.result) ->
        match r.grade with
        | Gradecast.G0 | Gradecast.G1 -> faulty.(leader) <- true
        | Gradecast.G2 -> ())
      results;
  let included =
    Array.fold_left
      (fun k (r : float Gradecast.result) -> if Option.is_some r.value then k + 1 else k)
      0 results
  in
  (* The included values in leader order, unboxed. *)
  let values = Array.create_float included and k = ref 0 in
  for leader = 0 to Array.length results - 1 do
    match results.(leader).Gradecast.value with
    | Some v ->
        values.(!k) <- v;
        incr k
    | None -> ()
  done;
  (* Fault-adaptive trimming: a leader whose instance came back grade 0 is
     provably Byzantine (honest leaders always reach grade 2), so at most
     [t - excluded] of the included values are Byzantine. Trimming only
     that many keeps the averaging window at >= n - 2t values — with the
     full [t] the window would shrink as parties get blacklisted and a
     single planted value could move the mean by half the range, breaking
     the per-iteration factor of Lemma 5. *)
  let excluded = st.n - included in
  let t_eff =
    if st.knobs.adaptive_trim then max 0 (st.t - excluded) else st.t
  in
  let averaged =
    match st.knobs.averaging with
    | Mean -> Trim.trimmed_mean_array ~t:t_eff values
    | Midpoint -> Trim.trimmed_midpoint ~t:t_eff (Array.to_list values)
  in
  let value =
    match averaged with
    | Some v -> v
    | None -> st.value (* too few values survive: keep the old value *)
  in
  let st =
    {
      st with
      value;
      faulty;
      trajectory_rev = value :: st.trajectory_rev;
      iterations_left = st.iterations_left - 1;
    }
  in
  if st.iterations_left <= 0 then decide st
  else { st with mstate = Multi.next st.mstate ~own:value }

let receive ~round ~inbox st =
  match st.decided with
  | Some _ -> st
  | None ->
      let sub = sub_round round in
      (* "Ignore p̃ in all future iterations": messages from blacklisted
         parties are skipped before the gradecast logic sees them, which
         forces grade 0 for their instances at every honest party. *)
      let inbox = Inbox.filter (fun sender -> not st.faulty.(sender)) inbox in
      let mstate = Multi.receive ~round:sub ~inbox st.mstate in
      let st = { st with mstate } in
      if sub = 3 then finish_iteration st else st

let observe st = Some st.value

let protocol ?(share = Multi.share ()) ?(knobs = faithful) ~inputs ~t
    ~iterations () =
  {
    Protocol.name = "realaa-bdh";
    init = (fun ~self ~n -> init ~share ~knobs ~inputs ~t ~iterations ~self ~n);
    send = (fun ~round ~self:_ st -> send ~round st);
    receive = (fun ~round ~self:_ ~inbox st -> receive ~round ~inbox st);
    output = (fun st -> st.decided);
  }

let simple ~inputs ~t ~iterations =
  Protocol.map_output
    (fun (r : result) -> r.value)
    (protocol ~inputs ~t ~iterations ())

let run ?(seed = 0) ?telemetry ?knobs ~inputs ~t ~iterations ~adversary () =
  let n = Array.length inputs in
  Sync_engine.run ~n ~t ~seed ?telemetry ~observe
    ~max_rounds:(max 1 (3 * iterations))
    ~protocol:(protocol ?knobs ~inputs:(fun self -> inputs.(self)) ~t ~iterations ())
    ~adversary ()

open Aat_engine
open Aat_gradecast
module Multi = Gradecast.Multi

type result = { value : float; iterations_used : int }

type state = {
  t : int;
  eps : float;
  value : float;
  iteration : int; (* 1-based index of the running iteration *)
  max_iterations : int;
  mstate : (float * bool) Multi.state;
  faulty : bool array;
  locked : float option array; (* DONE values standing in for halted peers *)
  announcing : bool; (* this iteration carries our DONE flag *)
  decided : result option;
}

let sub_round round = ((round - 1) mod 3) + 1

let init ~share ~inputs ~t ~eps ~max_iterations ~self ~n =
  let value = inputs self in
  let st =
    {
      t;
      eps;
      value;
      iteration = 1;
      max_iterations;
      mstate = Multi.start ~share ~n ~t ~self ~own:(value, false);
      faulty = Array.make n false;
      locked = Array.make n None;
      announcing = false;
      decided = None;
    }
  in
  if max_iterations <= 0 then
    { st with decided = Some { value; iterations_used = 0 } }
  else st

let send ~round st =
  match st.decided with
  | Some _ -> Protocol.To []
  | None -> Multi.send ~round:(sub_round round) st.mstate

let finish_iteration st =
  let results = Multi.results st.mstate in
  let faulty = Array.copy st.faulty in
  let locked = Array.copy st.locked in
  (* contributions: locked values first, then this iteration's grades *)
  let values = ref [] in
  Array.iteri
    (fun leader (r : (float * bool) Gradecast.result) ->
      match locked.(leader) with
      | Some v -> values := v :: !values
      | None -> (
          (match r.grade with
          | Gradecast.G0 | Gradecast.G1 -> faulty.(leader) <- true
          | Gradecast.G2 -> ());
          match r.value with
          | Some (v, done_flag) ->
              values := v :: !values;
              if done_flag then locked.(leader) <- Some v
          | None -> ()))
    results;
  let values = !values in
  (* Known-Byzantine leaders: convicted AND not vouched for by a locked
     value. Halted honest parties are locked, so they never discount t. *)
  let known_byz = ref 0 in
  Array.iteri
    (fun leader bad -> if bad && locked.(leader) = None then incr known_byz)
    faulty;
  let t_eff = max 0 (st.t - !known_byz) in
  let window = Trim.trimmed ~t:t_eff values in
  let new_value =
    match Trim.mean window with Some v -> v | None -> st.value
  in
  let spread =
    match Trim.range window with Some (lo, hi) -> hi -. lo | None -> 0.
  in
  (* While announcing, the value is frozen (we already told everyone). *)
  let value = if st.announcing then st.value else new_value in
  if st.announcing || st.iteration >= st.max_iterations then
    {
      st with
      faulty;
      locked;
      value;
      decided = Some { value; iterations_used = st.iteration };
    }
  else begin
    let announcing = spread <= st.eps +. 1e-12 in
    let st =
      { st with faulty; locked; value; iteration = st.iteration + 1; announcing }
    in
    { st with mstate = Multi.next st.mstate ~own:(st.value, announcing) }
  end

let receive ~round ~inbox st =
  match st.decided with
  | Some _ -> st
  | None ->
      let inbox = Inbox.filter (fun sender -> not st.faulty.(sender)) inbox in
      let sub = sub_round round in
      let st = { st with mstate = Multi.receive ~round:sub ~inbox st.mstate } in
      if sub = 3 then finish_iteration st else st

let protocol ~inputs ~t ~eps ~max_iterations =
  let share = Multi.share () in
  {
    Protocol.name = "realaa-early-stopping";
    init = (fun ~self ~n -> init ~share ~inputs ~t ~eps ~max_iterations ~self ~n);
    send = (fun ~round ~self:_ st -> send ~round st);
    receive = (fun ~round ~self:_ ~inbox st -> receive ~round ~inbox st);
    output = (fun st -> st.decided);
  }

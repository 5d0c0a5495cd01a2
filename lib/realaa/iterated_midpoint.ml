open Aat_engine
open Aat_gradecast
module Multi = Gradecast.Multi

type result = { value : float; trajectory : float list }

type naive_state = {
  t : int;
  value : float;
  iterations_left : int;
  trajectory_rev : float list;
  decided : result option;
}

type gc_state = {
  gt : int;
  gvalue : float;
  gleft : int;
  mstate : float Multi.state;
  gtrajectory_rev : float list;
  gdecided : result option;
}

let mk_result value trajectory_rev =
  { value; trajectory = List.rev trajectory_rev }

let naive ~inputs ~t ~iterations =
  let init ~self ~n:_ =
    let value = inputs self in
    let st =
      { t; value; iterations_left = iterations; trajectory_rev = []; decided = None }
    in
    if iterations <= 0 then { st with decided = Some (mk_result value []) } else st
  in
  let send ~round:_ ~self:_ st =
    match st.decided with
    | Some _ -> Protocol.To []
    | None -> Protocol.To_all st.value
  in
  let receive ~round:_ ~self:_ ~inbox st =
    match st.decided with
    | Some _ -> st
    | None ->
        let values =
          List.rev (Inbox.fold (fun acc _ v -> v :: acc) [] inbox)
        in
        let value =
          match Trim.trimmed_midpoint ~t:st.t values with
          | Some v -> v
          | None -> st.value
        in
        let trajectory_rev = value :: st.trajectory_rev in
        let left = st.iterations_left - 1 in
        let decided =
          if left <= 0 then Some (mk_result value trajectory_rev) else None
        in
        { st with value; trajectory_rev; iterations_left = left; decided }
  in
  {
    Protocol.name = "iterated-midpoint-naive";
    init;
    send;
    receive;
    output = (fun st -> st.decided);
  }

let naive_simple ~inputs ~t ~iterations =
  Protocol.map_output (fun (r : result) -> r.value) (naive ~inputs ~t ~iterations)

let with_gradecast ~inputs ~t ~iterations =
  let share = Multi.share () in
  let sub_round round = ((round - 1) mod 3) + 1 in
  let init ~self ~n =
    let value = inputs self in
    let st =
      {
        gt = t;
        gvalue = value;
        gleft = iterations;
        mstate = Multi.start ~share ~n ~t ~self ~own:value;
        gtrajectory_rev = [];
        gdecided = None;
      }
    in
    if iterations <= 0 then { st with gdecided = Some (mk_result value []) }
    else st
  in
  let send ~round ~self:_ st =
    match st.gdecided with
    | Some _ -> Protocol.To []
    | None -> Multi.send ~round:(sub_round round) st.mstate
  in
  let finish st =
    let results = Multi.results st.mstate in
    (* No cross-iteration memory: use every value with grade >= 1 this
       iteration, as in the distribution steps of [1, 33]. *)
    let values =
      Array.to_list results
      |> List.filter_map (fun (r : float Gradecast.result) -> r.value)
    in
    let gvalue =
      match Trim.trimmed_midpoint ~t:st.gt values with
      | Some v -> v
      | None -> st.gvalue
    in
    let gtrajectory_rev = gvalue :: st.gtrajectory_rev in
    let gleft = st.gleft - 1 in
    if gleft <= 0 then
      {
        st with
        gvalue;
        gtrajectory_rev;
        gleft;
        gdecided = Some (mk_result gvalue gtrajectory_rev);
      }
    else
      {
        st with
        gvalue;
        gtrajectory_rev;
        gleft;
        mstate = Multi.next st.mstate ~own:gvalue;
      }
  in
  let receive ~round ~self:_ ~inbox st =
    match st.gdecided with
    | Some _ -> st
    | None ->
        let sub = sub_round round in
        let st = { st with mstate = Multi.receive ~round:sub ~inbox st.mstate } in
        if sub = 3 then finish st else st
  in
  {
    Protocol.name = "iterated-midpoint-gradecast";
    init;
    send;
    receive;
    output = (fun st -> st.gdecided);
  }

let observe_naive (st : naive_state) = Some st.value

let observe_gradecast (st : gc_state) = Some st.gvalue

let run_naive ?(seed = 0) ?telemetry ~inputs ~t ~iterations ~adversary () =
  let n = Array.length inputs in
  Sync_engine.run ~n ~t ~seed ?telemetry ~observe:observe_naive
    ~max_rounds:(max 1 iterations)
    ~protocol:(naive ~inputs:(fun self -> inputs.(self)) ~t ~iterations)
    ~adversary ()

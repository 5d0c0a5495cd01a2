open Aat_tree
open Aat_engine
open Aat_gradecast
module Multi = Gradecast.Multi

type state = {
  t : int;
  tree : Labeled_tree.t;
  rooted : Rooted.t;
  vertex : Labeled_tree.vertex;
  iterations_left : int;
  mstate : Labeled_tree.vertex Multi.state;
  decided : Labeled_tree.vertex option;
}

(* v is safe iff no component of T - v can swallow an (m - t)-subset of the
   multiset: every component must hold <= m - t - 1 elements. Component
   counts come from subtree sums over the rooted view. *)
let safe_vertices rooted ~t multiset =
  let tree = Rooted.tree rooted in
  let n = Labeled_tree.n_vertices tree in
  let m = List.length multiset in
  let weight = Array.make n 0 in
  List.iter
    (fun v ->
      if v >= 0 && v < n then weight.(v) <- weight.(v) + 1)
    multiset;
  (* subtree sums, bottom-up over preorder *)
  let sub = Array.copy weight in
  let pre = Rooted.preorder rooted in
  for i = n - 1 downto 1 do
    let v = pre.(i) in
    match Rooted.parent rooted v with
    | Some p -> sub.(p) <- sub.(p) + sub.(v)
    | None -> ()
  done;
  let limit = m - t - 1 in
  let safe v =
    let ok = ref true in
    List.iter
      (fun u ->
        (* The component of T - v containing u: u's subtree when u is v's
           child, everything outside v's subtree when u is v's parent. *)
        let component_count =
          if Rooted.parent rooted u = Some v then sub.(u) else m - sub.(v)
        in
        if component_count > limit then ok := false)
      (Labeled_tree.neighbors tree v);
    !ok
  in
  List.filter safe (Labeled_tree.vertices tree)

let center_of rooted vertices =
  match List.sort_uniq compare vertices with
  | [] -> invalid_arg "Nr_baseline.center_of: empty set"
  | [ v ] -> v
  | v0 :: _ as vs ->
      let tree = Rooted.tree rooted in
      let member = Hashtbl.create 16 in
      List.iter (fun v -> Hashtbl.replace member v ()) vs;
      (* BFS within the set, deterministic tie-break to the smallest id. *)
      let bfs_far src =
        let dist = Hashtbl.create 16 in
        Hashtbl.replace dist src 0;
        let queue = Queue.create () in
        Queue.add src queue;
        let best = ref (src, 0) in
        while not (Queue.is_empty queue) do
          let u = Queue.pop queue in
          let du = Hashtbl.find dist u in
          let bv, bd = !best in
          if du > bd || (du = bd && u < bv) then best := (u, du);
          List.iter
            (fun w ->
              if Hashtbl.mem member w && not (Hashtbl.mem dist w) then begin
                Hashtbl.replace dist w (du + 1);
                Queue.add w queue
              end)
            (Labeled_tree.neighbors tree u)
        done;
        fst !best
      in
      let a = bfs_far v0 in
      let b = bfs_far a in
      let path = Paths.between rooted a b in
      (* all of [path] is in the set: the set induces a connected subtree *)
      path.(Array.length path / 2)

let iterations_for tree =
  let d = Metrics.diameter tree in
  if d <= 1 then 0
  else
    2 + Aat_realaa.Rounds.halving_iterations ~range:(float_of_int d) ~eps:1.

let rounds ~tree = 3 * iterations_for tree

let sub_round round = ((round - 1) mod 3) + 1

let finish_iteration st =
  let results = Multi.results st.mstate in
  let multiset =
    Array.to_list results
    |> List.filter_map (fun (r : Labeled_tree.vertex Gradecast.result) ->
           match r.value with
           | Some v when v >= 0 && v < Labeled_tree.n_vertices st.tree -> Some v
           | Some _ | None -> None)
  in
  let vertex =
    match safe_vertices st.rooted ~t:st.t multiset with
    | [] -> st.vertex (* unreachable for n > 3t *)
    | safe -> center_of st.rooted safe
  in
  let left = st.iterations_left - 1 in
  if left <= 0 then { st with vertex; iterations_left = left; decided = Some vertex }
  else
    {
      st with
      vertex;
      iterations_left = left;
      mstate = Multi.next st.mstate ~own:vertex;
    }

let protocol ~tree ~inputs ~t ~iterations =
  let rooted = Rooted.make tree in
  let share = Multi.share () in
  {
    Protocol.name = "nr-baseline";
    init =
      (fun ~self ~n ->
        let vertex = inputs self in
        let st =
          {
            t;
            tree;
            rooted;
            vertex;
            iterations_left = iterations;
            mstate = Multi.start ~share ~n ~t ~self ~own:vertex;
            decided = None;
          }
        in
        if iterations <= 0 then { st with decided = Some vertex } else st);
    send =
      (fun ~round ~self:_ st ->
        match st.decided with
        | Some _ -> Protocol.To []
        | None -> Multi.send ~round:(sub_round round) st.mstate);
    receive =
      (fun ~round ~self:_ ~inbox st ->
        match st.decided with
        | Some _ -> st
        | None ->
            let sub = sub_round round in
            let st = { st with mstate = Multi.receive ~round:sub ~inbox st.mstate } in
            if sub = 3 then finish_iteration st else st);
    output = (fun st -> st.decided);
  }

let run ?(seed = 0) ?telemetry ~tree ~inputs ~t ~adversary () =
  let n = Array.length inputs in
  let iterations = iterations_for tree in
  Sync_engine.run ~n ~t ~seed ?telemetry
    ~max_rounds:(max 1 (3 * iterations))
    ~protocol:(protocol ~tree ~inputs:(fun self -> inputs.(self)) ~t ~iterations)
    ~adversary ()

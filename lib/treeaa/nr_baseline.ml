open Aat_tree
open Aat_engine
open Aat_gradecast

type state =
  ( Labeled_tree.vertex,
    Labeled_tree.vertex,
    Labeled_tree.vertex )
  Gradecast.iterated

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

(* One iteration: move to the center of the safe area of the vertices
   graded >= 1 (out-of-tree values dropped). *)
let step ~rooted ~t vertex results =
  let n_vertices = Labeled_tree.n_vertices (Rooted.tree rooted) in
  let multiset =
    Array.to_list results
    |> List.filter_map (fun (r : Labeled_tree.vertex Gradecast.result) ->
           match r.value with
           | Some v when v >= 0 && v < n_vertices -> Some v
           | Some _ | None -> None)
  in
  match safe_vertices rooted ~t multiset with
  | [] -> `Next vertex (* unreachable for n > 3t *)
  | safe -> `Next (center_of rooted safe)

let protocol ~tree ~inputs ~t ~iterations =
  let rooted = Rooted.make tree in
  Gradecast.iterated ~name:"nr-baseline" ~t ~iterations
    ~init:(fun ~self ~n:_ -> inputs self)
    ~own:Fun.id ~step:(step ~rooted ~t) ~output:Fun.id ()

let run ?(seed = 0) ?telemetry ~tree ~inputs ~t ~adversary () =
  let n = Array.length inputs in
  let iterations = iterations_for tree in
  Sync_engine.run ~n ~t ~seed ?telemetry
    ~max_rounds:(max 1 (3 * iterations))
    ~protocol:(protocol ~tree ~inputs:(fun self -> inputs.(self)) ~t ~iterations)
    ~adversary ()

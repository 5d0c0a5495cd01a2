open Aat_tree
open Aat_engine
open Aat_gradecast
open Aat_realaa

type msg = (float Gradecast.Multi.msg, float Gradecast.Multi.msg) Composed.msg

type inner =
  ( Paths_finder.state,
    Paths.path,
    Bdh.state,
    (Bdh.state, float Gradecast.Multi.msg, Labeled_tree.vertex) Protocol.t )
  Composed.state

type state = Trivial of Labeled_tree.vertex | Running of inner

let trivial ~inputs : (state, msg, Labeled_tree.vertex) Protocol.t =
  {
    name = "tree-aa";
    init = (fun ~self ~n:_ -> Trivial (inputs self));
    send = (fun ~round:_ ~self:_ _ -> To []);
    receive = (fun ~round:_ ~self:_ ~inbox:_ st -> st);
    output = (function Trivial v -> Some v | Running _ -> None);
  }

let phase2 ~share ~rooted ~inputs ~t ~iterations own_path :
    (Bdh.state, float Gradecast.Multi.msg, Labeled_tree.vertex) Protocol.t =
  let k = Array.length own_path in
  let real_inputs self =
    float_of_int (Projection.onto_path_index rooted own_path (inputs self))
  in
  let to_vertex (r : Bdh.result) =
    (* Line 6 of TreeAA: an index past one's own (shorter) path resolves to
       the path's last vertex — the paper's proof shows all honest outputs
       then land on the two adjacent candidates v_{k*} and v_{k*+1}. *)
    let c = Closest_int.closest_int r.value in
    own_path.(max 0 (min (k - 1) c))
  in
  Protocol.map_output to_vertex
    (Bdh.protocol ~share ~inputs:real_inputs ~t ~iterations ())

let rounds ~tree =
  let d = Metrics.diameter tree in
  if d <= 1 then 0
  else
    max 1 (Paths_finder.rounds ~tree)
    + Rounds.bdh_rounds ~range:(float_of_int d) ~eps:1.

let protocol ~tree ~inputs ~t : (state, msg, Labeled_tree.vertex) Protocol.t =
  let d = Metrics.diameter tree in
  if d <= 1 then trivial ~inputs
  else begin
    let rooted = Rooted.make tree in
    let iterations2 = Rounds.bdh_iterations ~range:(float_of_int d) ~eps:1. in
    let first = Paths_finder.protocol ~rooted ~inputs ~t in
    (* Each party builds its phase-two protocol at the barrier; one share
       lets their gradecasts count each round-3 table once. *)
    let share = Gradecast.Multi.share () in
    let inner =
      Protocol.sequential ~name:"tree-aa" ~first
        ~rounds_of_first:(max 1 (Paths_finder.rounds ~tree))
        ~second:(fun own_path ->
          phase2 ~share ~rooted ~inputs ~t ~iterations:iterations2 own_path)
    in
    {
      name = "tree-aa";
      init = (fun ~self ~n -> Running (inner.init ~self ~n));
      send =
        (fun ~round ~self -> function
          | Running st -> inner.send ~round ~self st
          | Trivial _ -> To []);
      receive =
        (fun ~round ~self ~inbox -> function
          | Running st -> Running (inner.receive ~round ~self ~inbox st)
          | Trivial v -> Trivial v);
      output =
        (function Running st -> inner.output st | Trivial v -> Some v);
    }
  end

(* The party's phase-2 RealAA value — its current position (path index) on
   its own candidate path. Phase 1 and the trivial protocol have no
   real-valued state to observe. *)
let observe = function
  | Trivial _ -> None
  | Running st -> (
      match st.Composed.phase with
      | Composed.Phase2 (_, bdh) -> Bdh.observe bdh
      | Composed.Phase1 _ | Composed.Bridged _ -> None)

let run ?(seed = 0) ?telemetry ~tree ~inputs ~t ~adversary () =
  let n = Array.length inputs in
  Sync_engine.run ~n ~t ~seed ?telemetry ~observe
    ~max_rounds:(max 1 (rounds ~tree))
    ~protocol:(protocol ~tree ~inputs:(fun self -> inputs.(self)) ~t)
    ~adversary ()

open Aat_engine

let unwrap1 letters =
  List.filter_map
    (fun (l : _ Types.letter) ->
      match l.body with
      | Composed.M1 m -> Some { l with Types.body = m }
      | Composed.M2 _ -> None)
    letters

let unwrap2 letters =
  List.filter_map
    (fun (l : _ Types.letter) ->
      match l.body with
      | Composed.M2 m -> Some { l with Types.body = m }
      | Composed.M1 _ -> None)
    letters

let phased ~name ~barrier ~first ~second =
  (* History is unwrapped only into a phase that declared it reads it;
     the other phase sees [[]], as the engine shows any non-reader. *)
  let view1 (view : _ Adversary.view) =
    {
      Adversary.round = view.round;
      n = view.n;
      t = view.t;
      corrupted = view.corrupted;
      honest_outbox = lazy (unwrap1 (Lazy.force view.honest_outbox));
      history =
        (if first.Adversary.reads_history then List.map unwrap1 view.history
         else []);
      rng = view.rng;
    }
  in
  let view2 (view : _ Adversary.view) =
    (* Only the phase-two rounds (the most recent [round - barrier - 1]
       history entries) are shown, renumbered from 1. *)
    let phase2_rounds = view.round - barrier - 1 in
    let rec take k = function
      | x :: rest when k > 0 -> x :: take (k - 1) rest
      | _ -> []
    in
    {
      Adversary.round = view.round - barrier;
      n = view.n;
      t = view.t;
      corrupted = view.corrupted;
      honest_outbox = lazy (unwrap2 (Lazy.force view.honest_outbox));
      history =
        (if second.Adversary.reads_history then
           List.map unwrap2 (take phase2_rounds view.history)
         else []);
      rng = view.rng;
    }
  in
  {
    Adversary.name;
    passive = false;
    reads_history =
      first.Adversary.reads_history || second.Adversary.reads_history;
    initial_corruptions = first.Adversary.initial_corruptions;
    corrupt_more =
      (fun view ->
        if view.Adversary.round <= barrier then first.Adversary.corrupt_more (view1 view)
        else second.Adversary.corrupt_more (view2 view));
    deliver =
      (fun view ->
        if view.Adversary.round <= barrier then
          first.Adversary.deliver (view1 view)
          |> List.map (fun (l : _ Types.letter) ->
                 { l with Types.body = Composed.M1 l.body })
        else
          second.Adversary.deliver (view2 view)
          |> List.map (fun (l : _ Types.letter) ->
                 { l with Types.body = Composed.M2 l.body }));
  }

open Aat_engine

let silent ~victims =
  {
    Adversary.name = "silent";
    passive = false;
    reads_history = false;
    initial_corruptions = (fun ~n:_ ~t:_ _ -> victims);
    corrupt_more = (fun _ -> []);
    deliver = (fun _ -> []);
  }

let random_silent ~count =
  {
    Adversary.name = "random-silent";
    passive = false;
    reads_history = false;
    initial_corruptions =
      (fun ~n ~t rng ->
        Aat_util.Rng.sample_without_replacement rng (min count (min t n)) n);
    corrupt_more = (fun _ -> []);
    deliver = (fun _ -> []);
  }

let crash ~at_round ~victims =
  if at_round < 1 then
    invalid_arg
      (Printf.sprintf "Strategies.crash: at_round must be >= 1 (got %d)"
         at_round);
  {
    Adversary.name = Printf.sprintf "crash@r%d" at_round;
    passive = false;
    reads_history = false;
    initial_corruptions = (fun ~n:_ ~t:_ _ -> []);
    corrupt_more =
      (fun view ->
        (* A requested round past the engine's horizon would otherwise
           never fire (the run ends first): clamp it to the default round
           cap for this [n], and trigger on [>=] rather than [=] so the
           crash cannot be skipped over. Once the victims are corrupted
           the filter empties and the strategy goes quiet. *)
        let target =
          min at_round (Aat_runtime.Defaults.max_rounds ~n:view.Adversary.n)
        in
        if
          view.Adversary.round >= target
          && List.exists
               (fun v ->
                 v >= 0 && v < view.Adversary.n
                 && not view.Adversary.corrupted.(v))
               victims
        then victims
        else []);
    deliver = (fun _ -> []);
  }

(* Replay the honest protocol for each victim, twisting outgoing messages.
   Victim states are caught up lazily from the traffic history: at round r
   the deliveries of rounds [processed+1 .. r-1] are folded in before the
   round-r messages are produced. *)
let puppeteer ~name ~protocol ~victims ~twist =
  let sim = ref None (* (victim states, last processed round) *) in
  let init_sim n =
    let tbl = Hashtbl.create (List.length victims) in
    List.iter (fun v -> Hashtbl.replace tbl v (protocol.Protocol.init ~self:v ~n)) victims;
    sim := Some (tbl, ref 0);
    (tbl, ref 0)
  in
  let get_sim n = match !sim with Some s -> s | None -> init_sim n in
  let catch_up (view : _ Adversary.view) =
    let tbl, processed = get_sim view.n in
    (* view.history lists past rounds most recent first: element 0 is round
       view.round - 1. *)
    let past = Array.of_list (List.rev view.history) in
    for r = !processed + 1 to view.round - 1 do
      let letters = if r - 1 < Array.length past then past.(r - 1) else [] in
      Hashtbl.iter
        (fun v st ->
          let inbox =
            List.filter_map
              (fun (l : _ Types.letter) ->
                if l.dst = v then Some { Types.sender = l.src; payload = l.body }
                else None)
              letters
            |> List.sort (fun (a : _ Types.envelope) b -> compare a.sender b.sender)
          in
          Hashtbl.replace tbl v
            (protocol.Protocol.receive ~round:r ~self:v
               ~inbox:(Inbox.of_list inbox) st))
        (Hashtbl.copy tbl);
      processed := r
    done;
    tbl
  in
  {
    Adversary.name;
    passive = false;
    reads_history = true;
    initial_corruptions = (fun ~n:_ ~t:_ _ -> victims);
    corrupt_more = (fun _ -> []);
    deliver =
      (fun view ->
        let tbl = catch_up view in
        Hashtbl.fold
          (fun v st acc ->
            let sends =
              Protocol.outbox_to_list ~n:view.n
                (protocol.Protocol.send ~round:view.round ~self:v st)
            in
            List.fold_left
              (fun acc (dst, m) ->
                match twist ~round:view.round ~src:v ~dst m with
                | Some body -> { Types.src = v; dst; body } :: acc
                | None -> acc)
              acc sends)
          tbl []);
  }

let omit_towards ~name ~protocol ~victims ~blocked =
  puppeteer ~name ~protocol ~victims ~twist:(fun ~round:_ ~src:_ ~dst m ->
      if List.mem dst blocked then None else Some m)

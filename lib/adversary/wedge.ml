open Aat_engine
open Aat_gradecast
module Multi = Gradecast.Multi

let camps (view : _ Adversary.view) =
  let honest = Adversary.honest_parties view in
  let half = (List.length honest + 1) / 2 in
  let a = List.filteri (fun i _ -> i < half) honest in
  let b = List.filteri (fun i _ -> i >= half) honest in
  (a, b)

(* Both wedges pin the attack values to the honest extremes observed in the
   very first round (the inputs), so the split the adversary maintains is
   exactly the initial disagreement. *)

let naive_wedge () =
  let extremes = ref None in
  let observe (view : float Adversary.view) =
    match !extremes with
    | Some e -> e
    | None ->
        let values =
          List.map
            (fun (l : float Types.letter) -> l.body)
            (Lazy.force view.honest_outbox)
        in
        let e =
          match values with
          | [] -> (0., 1.)
          | v :: vs ->
              (List.fold_left min v vs, List.fold_left max v vs)
        in
        extremes := Some e;
        e
  in
  {
    Adversary.name = "naive-wedge";
    passive = false;
    reads_history = false;
    initial_corruptions = (fun ~n ~t _ -> List.init t (fun i -> n - t + i));
    corrupt_more = (fun _ -> []);
    deliver =
      (fun view ->
        let lo, hi = observe view in
        let camp_a, camp_b = camps view in
        let byz = Adversary.corrupted_parties view in
        List.concat_map
          (fun c ->
            List.map (fun x -> { Types.src = c; dst = x; body = lo }) camp_a
            @ List.map (fun x -> { Types.src = c; dst = x; body = hi }) camp_b)
          byz);
  }

let gradecast_wedge () =
  let extremes = ref None in
  let observe (view : float Multi.msg Adversary.view) =
    match !extremes with
    | Some e -> e
    | None ->
        let values =
          List.filter_map
            (fun (l : float Multi.msg Types.letter) ->
              match l.body with
              | Multi.Value v -> Some v
              | Multi.Echo _ | Multi.Vote _ -> None)
            (Lazy.force view.honest_outbox)
        in
        let e =
          match values with
          | [] -> (0., 1.)
          | v :: vs -> (List.fold_left min v vs, List.fold_left max v vs)
        in
        extremes := Some e;
        e
  in
  (* Per camp x, every Byzantine leader's instance is driven to the camp's
     value with grade 2: round 1 send it to the camp, round 2 all Byzantine
     parties echo it to the camp, round 3 they vote it to the camp. Honest
     echoes/votes from the camp (>= (n-t)/2 parties) plus the t Byzantine
     ones meet the n - t threshold exactly when n <= 3t. Honest leaders'
     instances are echoed truthfully (zero effect either way). *)
  let honest_round1 = ref ([] : (Types.party_id * float) list) in
  {
    Adversary.name = "gradecast-wedge";
    passive = false;
    reads_history = false;
    initial_corruptions = (fun ~n ~t _ -> List.init t (fun i -> n - t + i));
    corrupt_more = (fun _ -> []);
    deliver =
      (fun view ->
        let lo, hi = observe view in
        let camp_a, camp_b = camps view in
        let byz = Adversary.corrupted_parties view in
        let sub = ((view.round - 1) mod 3) + 1 in
        if sub = 1 then
          honest_round1 :=
            List.filter_map
              (fun (l : float Multi.msg Types.letter) ->
                match l.body with
                | Multi.Value v -> Some (l.src, v)
                | Multi.Echo _ | Multi.Vote _ -> None)
              (Lazy.force view.honest_outbox)
            |> List.sort_uniq compare;
        let row_for value =
          let row = Array.make view.n None in
          List.iter (fun b -> row.(b) <- Some value) byz;
          List.iter (fun (p, v) -> row.(p) <- Some v) !honest_round1;
          row
        in
        let send_camp camp value =
          List.concat_map
            (fun c ->
              List.map
                (fun x ->
                  let body =
                    match sub with
                    | 1 -> Multi.Value value
                    | 2 -> Multi.Echo (row_for value)
                    | _ -> Multi.Vote (row_for value)
                  in
                  { Types.src = c; dst = x; body })
                camp)
            byz
        in
        send_camp camp_a lo @ send_camp camp_b hi);
  }

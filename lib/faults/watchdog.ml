module RW = Aat_runtime.Watchdog
module Convex_hull = Aat_tree.Convex_hull
module Types = Aat_runtime.Types

let corruption_budget ~t =
  let high_water = ref 0 in
  RW.make ~name:"corruption-budget"
    (fun ~round:_ ~states:_ ~corrupted ->
      let k = Aat_runtime.Party_set.cardinal corrupted in
      if k < !high_water then
        Some
          (Printf.sprintf "corruption set shrank from %d to %d parties"
             !high_water k)
      else begin
        high_water := k;
        if k > t then
          Some
            (Printf.sprintf "%d corrupted/crashed parties exceed budget t=%d"
               k t)
        else None
      end)

let spread_non_expansion ?(tolerance = 1e-9) ~observe () =
  let prev = ref None in
  RW.make ~name:"spread-non-expansion"
    (fun ~round:_ ~states ~corrupted:_ ->
      let values =
        List.filter_map (fun (_, s) -> observe s) states
      in
      match values with
      | [] | [ _ ] ->
          (* fewer than two observable honest values: spread is 0, which
             can only shrink the envelope *)
          (match values with
          | [ v ] -> prev := Some (v, v)
          | _ -> ());
          None
      | v :: vs ->
          let lo = List.fold_left Float.min v vs
          and hi = List.fold_left Float.max v vs in
          let verdict =
            match !prev with
            | Some (plo, phi)
              when lo < plo -. tolerance || hi > phi +. tolerance ->
                Some
                  (Printf.sprintf
                     "honest envelope [%g, %g] escaped previous [%g, %g]" lo
                     hi plo phi)
            | _ -> None
          in
          if verdict = None then prev := Some (lo, hi);
          verdict)

let hull_containment ~rooted ~inputs ~vertex_of () =
  let hull = ref None in
  RW.make ~name:"hull-containment"
    (fun ~round ~states ~corrupted ->
      let h =
        match !hull with
        | Some h -> h
        | None ->
            (* Reference hull: the inputs of the parties honest when the
               watchdog first looks (round 1, i.e. excluding initial
               corruptions — the same set Validity is judged against;
               adaptively corrupted parties' inputs stay in, matching
               [Report.honest_inputs]). *)
            let generators =
              List.filteri
                (fun p _ -> not (Aat_runtime.Party_set.mem corrupted p))
                (Array.to_list inputs)
            in
            let h = Convex_hull.compute rooted generators in
            hull := Some h;
            h
      in
      let offender =
        List.find_map
          (fun (p, s) ->
            match vertex_of s with
            | Some v when not (Convex_hull.mem h v) -> Some (p, v)
            | _ -> None)
          states
      in
      match offender with
      | Some (p, v) ->
          Some
            (Printf.sprintf
               "p%d holds vertex %d outside the honest-input hull at round %d"
               p v round)
      | None -> None)

let grade_consistency ~grades_of ~pp_value () =
  RW.make ~name:"grade-consistency"
    (fun ~round ~states ~corrupted:_ ->
      (* Gradecast soundness: no two honest parties may hold grade-2
         results with different values for the same slot. *)
      let best : (int, Types.party_id * string) Hashtbl.t =
        Hashtbl.create 16
      in
      List.find_map
        (fun (p, s) ->
          List.find_map
            (fun (slot, value) ->
              let repr = pp_value value in
              match Hashtbl.find_opt best slot with
              | Some (q, repr') when repr' <> repr ->
                  Some
                    (Printf.sprintf
                       "round %d slot %d: p%d grades 2 on %s but p%d grades \
                        2 on %s"
                       round slot p repr q repr')
              | Some _ -> None
              | None ->
                  Hashtbl.replace best slot (p, repr);
                  None)
            (grades_of s))
        states)

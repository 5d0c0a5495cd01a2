open Aat_engine
open Aat_tree

type 'v msg =
  | Rbc of 'v Bracha.msg
  | Report of { iteration : int; ids : Types.party_id list }

type 'v result = { value : 'v; iterations_done : int }

type 'v state = {
  n : int;
  t : int;
  self : Types.party_id;
  iterations : int;
  combine : 'v list -> 'v option;
  validate : 'v -> bool;
  rbc : 'v Bracha.Instances.t;
  (* per iteration: delivered values by origin *)
  delivered : (int, (Types.party_id, 'v) Hashtbl.t) Hashtbl.t;
  (* per iteration: reports by reporter *)
  reports : (int, (Types.party_id, Types.party_id list) Hashtbl.t) Hashtbl.t;
  reported : (int, unit) Hashtbl.t; (* iterations we reported *)
  mutable iteration : int;
  mutable value : 'v;
  mutable decided : 'v result option;
}

let deliveries st r =
  match Hashtbl.find_opt st.delivered r with
  | Some tbl -> tbl
  | None ->
      let tbl = Hashtbl.create 16 in
      Hashtbl.replace st.delivered r tbl;
      tbl

let reports_for st r =
  match Hashtbl.find_opt st.reports r with
  | Some tbl -> tbl
  | None ->
      let tbl = Hashtbl.create 16 in
      Hashtbl.replace st.reports r tbl;
      tbl

(* Drive the iteration state machine as far as the collected evidence
   allows. Multiple steps can unlock at once (buffered future-iteration
   deliveries), hence the loop. *)
let rec try_progress st acc =
  if st.decided <> None then acc
  else begin
    let r = st.iteration in
    let dels = deliveries st r in
    (* step 1: report once n - t values are in *)
    let acc =
      if
        (not (Hashtbl.mem st.reported r)) && Hashtbl.length dels >= st.n - st.t
      then begin
        Hashtbl.replace st.reported r ();
        let ids = Hashtbl.fold (fun p _ acc -> p :: acc) dels [] in
        Async_engine.to_all ~n:st.n
          (Report { iteration = r; ids = List.sort compare ids })
          acc
      end
      else acc
    in
    (* step 2: advance on n - t satisfied reports *)
    let advance =
      Hashtbl.mem st.reported r
      && Hashtbl.fold
           (fun _reporter ids count ->
             if List.for_all (Hashtbl.mem dels) ids then count + 1 else count)
           (reports_for st r) 0
         >= st.n - st.t
    in
    if advance then begin
      let multiset = Hashtbl.fold (fun _ v acc -> v :: acc) dels [] in
      (match st.combine multiset with Some v -> st.value <- v | None -> ());
      st.iteration <- r + 1;
      if st.iteration > st.iterations then begin
        st.decided <- Some { value = st.value; iterations_done = r };
        acc
      end
      else
        try_progress st
          (Async_engine.to_all ~n:st.n
             (Rbc
                (Bracha.Instances.broadcast ~self:st.self ~tag:st.iteration
                   st.value))
             acc)
    end
    else acc
  end

(* [try_progress] reads only the current iteration's deliveries and
   reports and leaves a fixpoint behind, so it needs to run only after a
   message added to them. *)
let progress st iteration =
  if iteration = st.iteration then try_progress st [] else []

let reactor ~name ~inputs ~t ~iterations ~combine ~validate =
  {
    Async_engine.name;
    init =
      (fun ~self ~n ->
        let st =
          {
            n;
            t;
            self;
            iterations;
            combine;
            validate;
            rbc = Bracha.Instances.create ~n ~t;
            delivered = Hashtbl.create 8;
            reports = Hashtbl.create 8;
            reported = Hashtbl.create 8;
            iteration = 1;
            value = inputs self;
            decided = None;
          }
        in
        if iterations <= 0 then begin
          st.decided <- Some { value = st.value; iterations_done = 0 };
          (st, [])
        end
        else
          let init = Bracha.Instances.broadcast ~self ~tag:1 st.value in
          (st, Async_engine.to_all ~n (Rbc init) []))
    ;
    on_message =
      (fun ~self:_ e st ->
        match e.Types.payload with
        | Rbc rbc_msg ->
            let out, delivered =
              Bracha.Instances.handle st.rbc ~sender:e.Types.sender rbc_msg
            in
            let followups =
              match delivered with
              | Some ((key : Bracha.key), v)
                when key.tag >= 1 && key.tag <= st.iterations && st.validate v
                ->
                  let dels = deliveries st key.tag in
                  if Hashtbl.mem dels key.origin then []
                  else begin
                    Hashtbl.replace dels key.origin v;
                    progress st key.tag
                  end
              | _ -> []
            in
            ( st,
              match out with
              | Some m -> Async_engine.to_all ~n:st.n (Rbc m) followups
              | None -> followups )
        | Report { iteration; ids } ->
            (* malformed (too small / duplicated / out-of-range) reports
               are discarded: the witness intersection argument needs
               every accepted report to carry >= n - t distinct ids *)
            let distinct = List.sort_uniq compare ids in
            if
              iteration >= 1
              && iteration <= st.iterations
              && List.length distinct = List.length ids
              && List.length ids >= st.n - st.t
              && List.for_all (fun p -> p >= 0 && p < st.n) ids
            then begin
              Hashtbl.replace (reports_for st iteration) e.Types.sender ids;
              (st, progress st iteration)
            end
            else (st, []));
    output = (fun st -> st.decided);
  }

let real ~inputs ~t ~iterations =
  reactor ~name:"async-aa-real" ~inputs ~t ~iterations
    ~combine:(fun values -> Aat_realaa.Trim.trimmed_midpoint ~t values)
    ~validate:(fun v -> Float.is_finite v)

let tree ~tree ~inputs ~t ~iterations =
  let rooted = Rooted.make tree in
  let nv = Labeled_tree.n_vertices tree in
  reactor ~name:"async-aa-tree" ~inputs ~t ~iterations
    ~combine:(fun multiset ->
      match Aat_treeaa.Nr_baseline.safe_vertices rooted ~t multiset with
      | [] -> None
      | safe -> Some (Aat_treeaa.Nr_baseline.center_of rooted safe))
    ~validate:(fun v -> v >= 0 && v < nv)

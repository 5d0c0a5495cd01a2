open Aat_engine
open Aat_gradecast

type result = {
  value : float;
  trajectory : float list;
  blacklisted : Types.party_id list;
}

type averaging = Mean | Midpoint

type knobs = { blacklist : bool; adaptive_trim : bool; averaging : averaging }

let faithful = { blacklist = true; adaptive_trim = true; averaging = Mean }

(* A party's running value, its blacklist and its values after each
   iteration, newest first. *)
type local = { value : float; faulty : bool array; trajectory_rev : float list }

type 'o state = (local, float, 'o) Gradecast.iterated

let decide st : result =
  {
    value = st.value;
    trajectory = List.rev st.trajectory_rev;
    blacklisted =
      List.filter (fun p -> st.faulty.(p)) (List.init (Array.length st.faulty) Fun.id);
  }

(* End of one iteration.

   Inclusion and blacklisting follow [6]: a value is used whenever its
   gradecast returned grade >= 1, and a leader graded <= 1 is blacklisted —
   all its future messages are ignored (the driver's [skip]), which drives
   all its future gradecasts to grade 0 at every honest party.

   Why this gives "each Byzantine party causes an inconsistency at most
   once": an inclusion split (some honest party uses the value, another does
   not) requires grades 1-at-one and 0-at-another for the same instance; a
   grade 0 anywhere rules out grade 2 everywhere (gradecast soundness), so
   in that iteration every honest party saw grade <= 1 and all blacklisted
   the leader together. A 2/1 grade split is NOT an inconsistency — both
   parties include the (identical) value that iteration, and the leader's
   subsequent instances are driven to a consistent fate. *)
let step ~knobs ~t st (results : float Gradecast.result array) =
  let n = Array.length results in
  let faulty = Array.copy st.faulty in
  if knobs.blacklist then
    Array.iteri
      (fun leader (r : float Gradecast.result) ->
        match r.grade with
        | Gradecast.G0 | Gradecast.G1 -> faulty.(leader) <- true
        | Gradecast.G2 -> ())
      results;
  let included =
    Array.fold_left
      (fun k (r : float Gradecast.result) -> if Option.is_some r.value then k + 1 else k)
      0 results
  in
  (* The included values in leader order, unboxed. *)
  let values = Array.create_float included and k = ref 0 in
  for leader = 0 to n - 1 do
    match results.(leader).Gradecast.value with
    | Some v ->
        values.(!k) <- v;
        incr k
    | None -> ()
  done;
  (* Fault-adaptive trimming: a leader whose instance came back grade 0 is
     provably Byzantine (honest leaders always reach grade 2), so at most
     [t - excluded] of the included values are Byzantine. Trimming only
     that many keeps the averaging window at >= n - 2t values — with the
     full [t] the window would shrink as parties get blacklisted and a
     single planted value could move the mean by half the range, breaking
     the per-iteration factor of Lemma 5. *)
  let excluded = n - included in
  let t_eff = if knobs.adaptive_trim then max 0 (t - excluded) else t in
  let averaged =
    match knobs.averaging with
    | Mean -> Trim.trimmed_mean_array ~t:t_eff values
    | Midpoint -> Trim.trimmed_midpoint ~t:t_eff (Array.to_list values)
  in
  let value =
    match averaged with
    | Some v -> v
    | None -> st.value (* too few values survive: keep the old value *)
  in
  `Next { value; faulty; trajectory_rev = value :: st.trajectory_rev }

let observe st = Some (Gradecast.current st).value

(* "Ignore p̃ in all future iterations": [skip] drops letters from
   blacklisted parties before the gradecast logic sees them, which forces
   grade 0 for their instances at every honest party. *)
let realaa ?share ~name ~knobs ~inputs ~t ~iterations ~output () =
  Gradecast.iterated ~name ?share
    ~skip:(fun st -> st.faulty)
    ~t ~iterations
    ~init:(fun ~self ~n ->
      { value = inputs self; faulty = Array.make n false; trajectory_rev = [] })
    ~own:(fun st -> st.value)
    ~step:(step ~knobs ~t) ~output ()

let protocol ?(knobs = faithful) ~inputs ~t ~iterations () =
  realaa ~name:"realaa-bdh" ~knobs ~inputs ~t ~iterations ~output:decide ()

let on_index ?share ?(name = "realaa-bdh") ?iterations ~length ~position ~at ~t
    () =
  let iterations =
    match iterations with
    | Some i -> i
    | None -> Rounds.bdh_iterations ~range:(float_of_int (length - 1)) ~eps:1.
  in
  (* Remark 1 keeps closestInt inside the honest positions; the clamp is
     for TreeAA's phase two, whose own path may end before it (line 6). *)
  realaa ?share ~name ~knobs:faithful
    ~inputs:(fun self -> float_of_int (position self))
    ~t ~iterations
    ~output:(fun st ->
      at (max 0 (min (length - 1) (Closest_int.closest_int st.value))))
    ()

let simple ~inputs ~t ~iterations =
  Protocol.map_output
    (fun (r : result) -> r.value)
    (protocol ~inputs ~t ~iterations ())

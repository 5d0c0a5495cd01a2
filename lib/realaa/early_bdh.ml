open Aat_gradecast

type result = { value : float; iterations_used : int }

type local = {
  value : float;
  used : int; (* iterations run so far *)
  faulty : bool array;
  locked : float option array; (* DONE values standing in for halted peers *)
  announcing : bool; (* the running iteration carries our DONE flag *)
}

type state = (local, float * bool, result) Gradecast.iterated

let step ~t ~eps st results =
  let faulty = Array.copy st.faulty in
  let locked = Array.copy st.locked in
  (* contributions: locked values first, then this iteration's grades *)
  let values = ref [] in
  Array.iteri
    (fun leader (r : (float * bool) Gradecast.result) ->
      match locked.(leader) with
      | Some v -> values := v :: !values
      | None -> (
          (match r.grade with
          | Gradecast.G0 | Gradecast.G1 -> faulty.(leader) <- true
          | Gradecast.G2 -> ());
          match r.value with
          | Some (v, done_flag) ->
              values := v :: !values;
              if done_flag then locked.(leader) <- Some v
          | None -> ()))
    results;
  let values = !values in
  (* Known-Byzantine leaders: convicted AND not vouched for by a locked
     value. Halted honest parties are locked, so they never discount t. *)
  let known_byz = ref 0 in
  Array.iteri
    (fun leader bad -> if bad && locked.(leader) = None then incr known_byz)
    faulty;
  let t_eff = max 0 (t - !known_byz) in
  let window = Trim.trimmed ~t:t_eff values in
  let new_value =
    match Trim.mean window with Some v -> v | None -> st.value
  in
  let spread =
    match Trim.range window with Some (lo, hi) -> hi -. lo | None -> 0.
  in
  let used = st.used + 1 in
  (* While announcing, the value is frozen (we already told everyone). *)
  if st.announcing then `Stop { st with faulty; locked; used }
  else
    `Next
      {
        value = new_value;
        used;
        faulty;
        locked;
        announcing = spread <= eps +. 1e-12;
      }

(* A party decides after announcing, or when the [max_iterations]
   backstop runs out ([Gradecast.iterated]'s batch bound). *)
let protocol ~inputs ~t ~eps ~max_iterations =
  Gradecast.iterated ~name:"realaa-early-stopping"
    ~skip:(fun st -> st.faulty)
    ~t ~iterations:max_iterations
    ~init:(fun ~self ~n ->
      {
        value = inputs self;
        used = 0;
        faulty = Array.make n false;
        locked = Array.make n None;
        announcing = false;
      })
    ~own:(fun st -> (st.value, st.announcing))
    ~step:(step ~t ~eps)
    ~output:(fun st -> { value = st.value; iterations_used = st.used })
    ()

open Aat_engine
open Aat_gradecast
module Multi = Gradecast.Multi

let parties_of ~n ~t = List.init t (fun i -> n - t + i)

type plan = {
  iteration : int;
  planted : float; (* the value the spent leaders inject *)
  cover : float; (* value non-spent Byzantine leaders gradecast honestly *)
  spent_now : Types.party_id list; (* leaders burning themselves now *)
  h1 : Types.party_id list; (* honest receivers of the planted value *)
  voters : Types.party_id list; (* honest parties made to vote *)
  targets : Types.party_id list; (* honest parties that will include *)
  honest_value : (Types.party_id, float) Hashtbl.t;
}

(* The inclusion-split mechanics (see the .mli) parameterised by the number
   of still-credible Byzantine helpers h (blacklisted parties' messages are
   dropped by honest parties, so they no longer count):

   - the planted value goes to |H1| = n - t - h honest parties in round 1,
     so that a selected voter's echo count is |H1| + h = n - t exactly;
   - |V| = t + 1 - h honest voters are pushed over the echo threshold, so a
     target's vote count is |V| + h = t + 1 (grade 1) while a non-target
     sees only |V| <= t (grade 0).

   Both sizes need h >= 1 and n > 3t to be feasible; the splits stop once
   every Byzantine party is burned — exactly the budget limit the paper's
   analysis charges the adversary. *)
let generic_spoiler ~relentless ~project ~embed ~t ~iterations =
  let spent : (Types.party_id, unit) Hashtbl.t = Hashtbl.create (max 1 t) in
  let current_plan : plan option ref = ref None in
  let make_plan (view : _ Adversary.view) iteration =
    let honest_value = Hashtbl.create 16 in
    List.iter
      (fun (l : _ Types.letter) ->
        match l.body with
        | Multi.Value v -> Hashtbl.replace honest_value l.src (project v)
        | Multi.Echo _ | Multi.Vote _ -> ())
      (Lazy.force view.honest_outbox);
    let honest =
      Hashtbl.fold (fun p v acc -> (p, v) :: acc) honest_value []
      |> List.sort (fun (_, a) (_, b) -> compare b a)
      (* descending by current value *)
    in
    let values = List.map snd honest in
    let lo = List.fold_left Float.min infinity values in
    let hi = List.fold_left Float.max neg_infinity values in
    let width = Float.max 1. (hi -. lo) in
    (* Window-shifting values: the planted value sits far BELOW the honest
       range so that, at the targets, it consumes one slot of the lower trim
       quota and drags the trimmed minimum down one order statistic; the
       covers sit far ABOVE the range so they consume upper trim slots
       everywhere equally. Both are discarded by trimming, so Validity is
       never endangered — only the relative windows move. *)
    let planted = lo -. width -. 1. in
    let cover = hi +. width +. 1. in
    let byz_pool =
      Adversary.corrupted_parties view
      |> List.filter (fun p -> not (Hashtbl.mem spent p))
    in
    let helpers = List.length byz_pool in
    (* Concentrate the remaining budget on the remaining iterations: a clean
       iteration makes the honest values collapse to a single point, so the
       strongest schedule burns one leader per iteration through the END of
       the run (for t < R the early iterations are necessarily clean). *)
    let remaining = max 1 (iterations - iteration + 1) in
    let k =
      if helpers = 0 then 0
      else min helpers ((helpers + remaining - 1) / remaining)
    in
    let k =
      if relentless then min 1 helpers
      else if iterations - iteration >= helpers then 0
      else k
    in
    let spent_now = List.filteri (fun i _ -> i < k) byz_pool in
    let n_h1 = max 0 (view.n - view.t - helpers) in
    let h1 = List.filteri (fun i _ -> i < n_h1) (List.map fst honest) in
    let n_voters = max 1 (view.t + 1 - helpers) in
    let voters = List.filteri (fun i _ -> i < n_voters) h1 in
    (* Targets are the [t] currently-lowest honest parties. A target's
       trimmed window is [h_{t-k+1} .. ], a non-target's [h_{t+1} .. ]
       (order statistics of the honest values), so the per-iteration
       divergence is (h_{t+1} - h_{t-k+1}) / 2 — maximised when the camp
       boundary sits exactly at position t, i.e. when the low camp has t
       members. *)
    let ascending = List.rev (List.map fst honest) in
    let n_targets = min view.t (max 1 (List.length ascending - 1)) in
    let targets = List.filteri (fun i _ -> i < n_targets) ascending in
    { iteration; planted; cover; spent_now; h1; voters; targets; honest_value }
  in
  let deliver (view : _ Adversary.view) =
    let iteration = ((view.round - 1) / 3) + 1 in
    let sub = ((view.round - 1) mod 3) + 1 in
    let plan =
      if sub = 1 then begin
        let p = make_plan view iteration in
        current_plan := Some p;
        p
      end
      else
        match !current_plan with
        | Some p when p.iteration = iteration -> p
        | Some _ | None -> make_plan view iteration
    in
    let honest = Adversary.honest_parties view in
    let byz =
      Adversary.corrupted_parties view
      |> List.filter (fun p -> not (Hashtbl.mem spent p))
    in
    let actively_spending = plan.spent_now in
    let letters = ref [] in
    let say src dst body = letters := { Types.src; dst; body } :: !letters in
    (match sub with
    | 1 ->
        (* Spending leaders: planted value to H1 only. Cover leaders: the
           honest-looking median to everyone. *)
        List.iter
          (fun b -> List.iter (fun x -> say b x (Multi.Value (embed plan.planted))) plan.h1)
          actively_spending;
        List.iter
          (fun b ->
            if not (List.mem b actively_spending) then
              List.iter (fun x -> say b x (Multi.Value (embed plan.cover))) honest)
          byz
    | _ ->
        (* Round 2 echo vectors carry the planted value for spending
           leaders toward the selected voters, round 3 vote vectors toward
           the target set; both are truthful elsewhere. A row depends only
           on whether its recipient is in that class, so each round builds
           two rows and every (Byzantine sender, honest recipient) letter
           shares one: honest parties store received rows by reference and
           never mutate them. Entries within a row stay distinct [Some]
           boxes, each with its own [embed]: [Telemetry.payload_bytes]
           counts a letter's reachable words, so sharing across letters is
           invisible to it but sharing a box within a row is not. *)
        let cls, wrap =
          if sub = 2 then (plan.voters, fun row -> Multi.Echo row)
          else (plan.targets, fun row -> Multi.Vote row)
        in
        let body ~in_class =
          let row = Array.make view.n None in
          if in_class then
            List.iter (fun b -> row.(b) <- Some (embed plan.planted)) actively_spending;
          List.iter
            (fun b ->
              if not (List.mem b actively_spending) then
                row.(b) <- Some (embed plan.cover))
            byz;
          Hashtbl.iter (fun p v -> row.(p) <- Some (embed v)) plan.honest_value;
          wrap row
        in
        let inside = body ~in_class:true and outside = body ~in_class:false in
        List.iter
          (fun c ->
            List.iter
              (fun x -> say c x (if List.mem x cls then inside else outside))
              honest)
          byz);
    if sub = 3 && not relentless then
      List.iter (fun b -> Hashtbl.replace spent b ()) actively_spending;
    !letters
  in
  {
    Adversary.name = "realaa-spoiler";
    passive = false;
    reads_history = false;
    initial_corruptions = (fun ~n ~t rng -> ignore rng; parties_of ~n ~t);
    corrupt_more = (fun _ -> []);
    deliver;
  }

let realaa_spoiler ~t ~iterations =
  generic_spoiler ~relentless:false ~project:Fun.id ~embed:Fun.id ~t ~iterations

let relentless_spoiler ~t ~iterations =
  generic_spoiler ~relentless:true ~project:Fun.id ~embed:Fun.id ~t ~iterations

let early_stopping_spoiler ~t ~iterations =
  (* against Early_bdh's (value, done-flag) wire: never claim DONE *)
  generic_spoiler ~relentless:false ~project:fst ~embed:(fun x -> (x, false)) ~t
    ~iterations

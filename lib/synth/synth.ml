module Rng = Aat_util.Rng
module Json = Aat_telemetry.Jsonx
module Generate = Aat_tree.Generate
module Tree_aa = Aat_treeaa.Tree_aa
module Nr_baseline = Aat_treeaa.Nr_baseline
module Rounds = Aat_realaa.Rounds
module Fekete = Aat_lowerbound.Fekete
module Genome = Aat_adversary.Genome
module Campaign = Aat_campaign.Campaign
module Pool = Aat_campaign.Pool
module Runner = Aat_campaign.Runner
module Recorder = Aat_obs.Recorder
module Trace = Aat_obs.Trace

type target = {
  label : string;
  protocol : Campaign.Spec.protocol;
  engine : string;
  tree : Campaign.Spec.tree_family;
  n : int;
  t : int;
  inputs : Campaign.Spec.input_dist;
  d : float;
  rounds : int;
  iterations : int option;
  max_round : int;
  generic_only : bool;
}

(* The real-valued targets sit in the R <= t regime on purpose: with more
   iterations than Byzantine parties some iteration is necessarily clean
   and the final spread collapses to 0 (see Spoiler), leaving the search
   nothing to optimize. eps is tuned so the campaign's own round formulas
   land on R = 3 iterations for D = 1000. *)
let default_targets () =
  let real_eps = 40. in
  let real_iters = max 1 (Rounds.bdh_iterations ~range:1000. ~eps:real_eps) in
  let mid_eps = 125. in
  let mid_iters = max 1 (Rounds.halving_iterations ~range:1000. ~eps:mid_eps) in
  let tree = Generate.path 40 in
  let async_tree = Generate.path 12 in
  [
    {
      label = "treeaa";
      protocol = Campaign.Spec.Tree_aa;
      engine = "sync";
      tree = Campaign.Spec.Path_tree (Campaign.Spec.Exactly 40);
      n = 7;
      t = 2;
      inputs = Campaign.Spec.Random_vertices;
      d = 39.;
      rounds = max 1 (Tree_aa.rounds ~tree);
      iterations = None;
      max_round = max 1 (Tree_aa.rounds ~tree);
      generic_only = false;
    };
    {
      label = "realaa";
      protocol = Campaign.Spec.Real_aa { eps = real_eps };
      engine = "sync";
      tree = Campaign.Spec.Path_tree (Campaign.Spec.Exactly 2);
      n = 10;
      t = 3;
      inputs = Campaign.Spec.Linspace_reals 1000.;
      d = 1000.;
      rounds = 3 * real_iters;
      iterations = Some real_iters;
      max_round = 3 * real_iters;
      generic_only = false;
    };
    {
      label = "iterated-midpoint";
      protocol = Campaign.Spec.Iterated_midpoint { eps = mid_eps };
      engine = "sync";
      tree = Campaign.Spec.Path_tree (Campaign.Spec.Exactly 2);
      n = 10;
      t = 3;
      inputs = Campaign.Spec.Linspace_reals 1000.;
      d = 1000.;
      rounds = 3 * mid_iters;
      iterations = None;
      max_round = 3 * mid_iters;
      generic_only = false;
    };
    {
      label = "async-tree-aa";
      protocol = Campaign.Spec.Async_tree_aa;
      engine = "async";
      tree = Campaign.Spec.Path_tree (Campaign.Spec.Exactly 12);
      n = 6;
      t = 1;
      inputs = Campaign.Spec.Random_vertices;
      d = 11.;
      rounds = max 1 (3 * Nr_baseline.iterations_for async_tree);
      iterations = None;
      (* the async view counts delivery events; the crash gene's horizon
         matches the Strategies.crash clamp (Defaults.max_rounds) *)
      max_round = (4 * 6) + 64;
      generic_only = true;
    };
  ]

let target_for label =
  (* The requested name parses through the shared Spec_io protocol
     grammar — the same vocabulary as 'treeaa campaign --protocol' and
     the spec/record files — and the target is then matched structurally
     by protocol constructor, so synth can never accept a spelling the
     rest of the tooling rejects. The historical "treeaa" spelling is
     kept as an alias for "tree-aa"; eps is irrelevant to matching
     (targets pick their own). *)
  let label = if label = "treeaa" then "tree-aa" else label in
  let ( let* ) = Result.bind in
  let* protocol = Aat_obs.Spec_io.protocol_of_string ~eps:1.0 label in
  let wanted = Campaign.Spec.protocol_label protocol in
  match
    List.find_opt
      (fun t -> Campaign.Spec.protocol_label t.protocol = wanted)
      (default_targets ())
  with
  | Some t -> Ok t
  | None ->
      Error
        (Printf.sprintf "no synth target for protocol %s (have: %s)" wanted
           (String.concat ", " (List.map (fun t -> t.label) (default_targets ()))))

let spec_for target genome =
  {
    Campaign.Spec.name = "synth-" ^ target.label;
    protocol = target.protocol;
    tree = target.tree;
    n = Campaign.Spec.Exactly target.n;
    t_budget = Campaign.Spec.Fixed_t target.t;
    inputs = target.inputs;
    adversary = Campaign.Spec.Synth_genome genome;
    faults = Campaign.Spec.No_faults;
    watchdogs = true;
    repetitions = 1;
    (* informational: evaluation and replay key on the explicit task
       seed, not on the spec's own seed schedule *)
    base_seed = 0;
  }

type driver = Random_search | Hill_climb | Mu_plus_lambda

let drivers =
  Aat_util.Codec.(
    cases "driver"
      [
        const "random" Random_search;
        const "hill" Hill_climb;
        const "evolve" Mu_plus_lambda;
      ])

let driver_of_string = Aat_util.Codec.parse drivers
let driver_label = Aat_util.Codec.print drivers

type config = {
  driver : driver;
  generations : int;
  population : int;
  seed : int;
  workers : int;
}

type eval = {
  genome : Genome.t;
  fitness : float;
  spread : float;
  outcome : Runner.outcome;
  record : Recorder.t;
}

type gap = {
  measured : float;
  k_theory : float;
  ratio : float;
  envelope : float option;
  sound : bool;
}

type report = {
  target : target;
  config : config;
  champion : eval;
  gap : gap;
  evaluations : int;
  history : (int * float) list;
}

let last_convergence trace =
  match List.rev (Trace.convergence trace) with (_, s) :: _ -> s | [] -> 0.

let evaluate target ~task_seed genome =
  match Recorder.record (spec_for target genome) ~task_seed with
  | Error m -> Error m
  | Ok (record, outcome) ->
      let spread =
        match outcome.Runner.spread with
        | Some s -> s
        | None -> last_convergence record.Recorder.trace
      in
      let fitness =
        match outcome.Runner.status with
        | Runner.Errored _ -> Float.neg_infinity
        | Runner.Finished | Runner.Timed_out _ -> spread
      in
      Ok { genome; fitness; spread; outcome; record }

(* Total deterministic order: fitness descending, genome string ascending
   — the tie-break that makes champion selection independent of
   evaluation order (and hence of the worker count). *)
let compare_eval a b =
  match Float.compare b.fitness a.fitness with
  | 0 -> String.compare (Genome.to_string a.genome) (Genome.to_string b.genome)
  | c -> c

let rank evals = List.stable_sort compare_eval evals

let take k l = List.filteri (fun i _ -> i < k) l

(* ------------------------------------------------------------------ *)
(* search drivers *)

let search config target =
  let gens = max 1 config.generations in
  let pop = max 1 config.population in
  let rng = Rng.create config.seed in
  (* one task seed for the whole search: every genome faces the same
     tree, inputs and engine seed — paired comparison *)
  let task_seed = Campaign.split_seed ~base:config.seed ~index:0 in
  let generic_only = target.generic_only in
  let t = target.t and max_round = target.max_round in
  let fresh () = Genome.random ~generic_only rng ~t ~max_round in
  let mutate g = Genome.mutate ~generic_only rng ~t ~max_round g in
  (* explicit recursion: genome draws must happen in list order (List.init
     does not specify evaluation order) *)
  let draw k make =
    let rec go k acc = if k = 0 then List.rev acc else go (k - 1) (make () :: acc) in
    go k []
  in
  let evaluations = ref 0 in
  let eval_batch genomes =
    let arr = Array.of_list genomes in
    let results =
      Pool.map ~workers:config.workers (Array.length arr) (fun i ->
          evaluate target ~task_seed arr.(i))
    in
    evaluations := !evaluations + Array.length arr;
    Array.to_list results
    |> List.filter_map (function Ok e -> Some e | Error _ -> None)
  in
  let best = ref None in
  let history = ref [] in
  let note gen evals =
    (match rank evals with
    | [] -> ()
    | e :: _ -> (
        match !best with
        | Some b when compare_eval b e <= 0 -> ()
        | _ -> best := Some e));
    match !best with
    | Some b -> history := (gen, b.fitness) :: !history
    | None ->
        failwith
          (Printf.sprintf "Synth.search: every evaluation of generation %d failed"
             gen)
  in
  (match config.driver with
  | Random_search ->
      for gen = 0 to gens - 1 do
        note gen (eval_batch (draw pop fresh))
      done
  | Hill_climb ->
      let seed_evals = eval_batch (draw 1 fresh) in
      note 0 seed_evals;
      let current = ref (match !best with Some b -> b | None -> assert false) in
      for gen = 1 to gens - 1 do
        let mutants = draw pop (fun () -> mutate !current.genome) in
        let evals = eval_batch mutants in
        note gen evals;
        (match rank evals with
        | e :: _ when compare_eval e !current < 0 -> current := e
        | _ -> ())
      done
  | Mu_plus_lambda ->
      let mu = max 1 (pop / 2) in
      let parents = ref (take mu (rank (eval_batch (draw pop fresh)))) in
      note 0 !parents;
      for gen = 1 to gens - 1 do
        let parr = Array.of_list !parents in
        let child () =
          let a = parr.(Rng.int rng (Array.length parr)) in
          let b = parr.(Rng.int rng (Array.length parr)) in
          mutate (Genome.crossover rng a.genome b.genome)
        in
        let offspring = eval_batch (draw pop child) in
        note gen offspring;
        parents := take mu (rank (!parents @ offspring))
      done);
  let champion = match !best with Some b -> b | None -> assert false in
  let k_theory =
    Fekete.k_bound ~n:target.n ~t:target.t ~r:target.rounds ~d:target.d
  in
  let envelope =
    Option.map
      (fun iterations ->
        (* the Lemma-5 spread envelope D t^R / (R^R (n-2t)^R), computed in
           log2 like bench's E1 check *)
        Float.pow 2.
          (Float.log2 target.d
          +. (float_of_int iterations
             *. (Float.log2 (float_of_int target.t)
                -. Float.log2 (float_of_int iterations)
                -. Float.log2 (float_of_int (target.n - (2 * target.t)))))))
      target.iterations
  in
  let measured = champion.spread in
  let sound =
    k_theory <= measured +. 1e-6
    && match envelope with Some e -> measured <= e +. 1e-6 | None -> true
  in
  let gap =
    {
      measured;
      k_theory;
      ratio = (if k_theory > 0. then measured /. k_theory else Float.infinity);
      envelope;
      sound;
    }
  in
  {
    target;
    config;
    champion;
    gap;
    evaluations = !evaluations;
    history = List.rev !history;
  }

(* ------------------------------------------------------------------ *)
(* gap report *)

let gap_json r =
  let fields =
    [
      ("target", Json.Str r.target.label);
      ("protocol", Json.Str (Campaign.Spec.protocol_label r.target.protocol));
      ("engine", Json.Str r.target.engine);
      ("n", Json.Num (float_of_int r.target.n));
      ("t", Json.Num (float_of_int r.target.t));
      ("d", Json.Num r.target.d);
      ("rounds", Json.Num (float_of_int r.target.rounds));
      ("driver", Json.Str (driver_label r.config.driver));
      ("generations", Json.Num (float_of_int r.config.generations));
      ("population", Json.Num (float_of_int r.config.population));
      ("seed", Json.Num (float_of_int r.config.seed));
      ("task_seed", Json.Num (float_of_int r.champion.record.Recorder.task_seed));
      ("evaluations", Json.Num (float_of_int r.evaluations));
      ("genome", Json.Str (Genome.to_string r.champion.genome));
      ( "grade",
        Json.Str (Aat_engine.Verdict.graded_label r.champion.outcome.Runner.grade)
      );
      ("measured", Json.Num r.gap.measured);
      ("k_theory", Json.Num r.gap.k_theory);
      ("ratio", Json.Num r.gap.ratio);
    ]
    @ (match r.gap.envelope with
      | Some e -> [ ("envelope", Json.Num e) ]
      | None -> [])
    @ [
        ("sound", Json.Bool r.gap.sound);
        ( "history",
          Json.Arr
            (List.map
               (fun (gen, fit) ->
                 Json.Arr [ Json.Num (float_of_int gen); Json.Num fit ])
               r.history) );
      ]
  in
  Json.Obj fields

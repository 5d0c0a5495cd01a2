module Rng = Aat_util.Rng
module Json = Aat_telemetry.Jsonx
module Tree = Aat_tree.Labeled_tree
module Generate = Aat_tree.Generate
module Metrics = Aat_tree.Metrics
module Paths = Aat_tree.Paths
module Adversary = Aat_engine.Adversary
module Strategies = Aat_adversary.Strategies
module Genome = Aat_adversary.Genome
module Spoiler = Aat_adversary.Spoiler
module Wedge = Aat_adversary.Wedge
module Compose = Aat_adversary.Compose
module Rounds = Aat_realaa.Rounds
module Tree_aa = Aat_treeaa.Tree_aa
module Nr_baseline = Aat_treeaa.Nr_baseline
module Path_aa = Aat_treeaa.Path_aa
module Known_path_aa = Aat_treeaa.Known_path_aa
module Paths_finder = Aat_treeaa.Paths_finder

module Spec = struct
  type size = Exactly of int | Between of int * int

  type tree_family =
    | Path_tree of size
    | Star_tree of size
    | Caterpillar_tree of { spine : size; legs : size }
    | Spider_tree of { legs : size; leg_length : size }
    | Balanced_tree of { arity : size; depth : size }
    | Random_tree of size
    | Any_tree

  type budget = Fixed_t of int | Up_to_third

  type input_dist =
    | Random_vertices
    | Linspace_reals of float
    | Log_uniform_reals of { log10_min : float; log10_max : float }

  type adversary_family =
    | Passive
    | Random_silent
    | Random_crash
    | Tree_spoiler
    | Real_spoiler
    | Gradecast_wedge
    | Any_tree_adversary
    | Any_real_adversary
    | Synth_genome of Aat_adversary.Genome.t
        (** a synthesized strategy ([lib/synth]): fully determined by the
            genome, no per-task adversary draws *)

  type protocol =
    | Tree_aa
    | Nr_baseline
    | Path_aa
    | Known_path_aa
    | Real_aa of { eps : float }
    | Iterated_midpoint of { eps : float }
    | Async_tree_aa
    | Round_sim_tree_aa

  type fault_mode =
    | No_faults
    | Fault_plan of Aat_faults.Plan.t
    | Chaos of { intensity : float }

  type t = {
    name : string;
    protocol : protocol;
    tree : tree_family;
    n : size;
    t_budget : budget;
    inputs : input_dist;
    adversary : adversary_family;
    faults : fault_mode;
    watchdogs : bool;
    repetitions : int;
    base_seed : int;
  }

  let protocol_label = function
    | Tree_aa -> "tree-aa"
    | Nr_baseline -> "nr-baseline"
    | Path_aa -> "path-aa"
    | Known_path_aa -> "known-path-aa"
    | Real_aa _ -> "realaa"
    | Iterated_midpoint _ -> "iterated-midpoint"
    | Async_tree_aa -> "async-tree-aa"
    | Round_sim_tree_aa -> "round-sim-tree-aa"

  let generic_family = function
    | Passive | Random_silent | Random_crash -> true
    | Synth_genome g -> Aat_adversary.Genome.generic g
    | _ -> false

  let real_family = function
    | Real_spoiler | Gradecast_wedge | Any_real_adversary -> true
    | Synth_genome _ -> true (* every attack gene speaks the gradecast wire *)
    | f -> generic_family f

  let vertex_inputs = function Random_vertices -> true | _ -> false

  let sync_protocol = function
    | Async_tree_aa | Round_sim_tree_aa -> false
    | _ -> true

  let validate_faults s =
    let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
    match s.faults with
    | No_faults -> Ok ()
    | Chaos { intensity } ->
        if not (intensity >= 0. && intensity <= 1.) then
          err "chaos intensity must be in [0, 1] (got %g)" intensity
        else Ok ()
    | Fault_plan p -> (
        match Aat_faults.Plan.validate p with
        | Error m -> err "fault plan: %s" m
        | Ok () ->
            if sync_protocol s.protocol
               && not (Aat_faults.Plan.sync_compatible p)
            then
              err
                "%s runs on the synchronous engine; duplicate/delay faults \
                 are async-only"
                (protocol_label s.protocol)
            else Ok ())

  (* A NaN or infinite range or eps reaches [Rounds] at instantiation,
     where it used to spin [bdh_iterations] forever, and an eps <= 0 made
     every task raise there: reject both here, with the rest of the spec's
     errors. *)
  let validate_reals s =
    let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
    match (s.protocol, s.inputs) with
    | (Real_aa { eps } | Iterated_midpoint { eps }), _
      when not (Float.is_finite eps && eps > 0.) ->
        err "eps must be finite and positive (got %g)" eps
    | _, Linspace_reals d when not (Float.is_finite d) ->
        err "linspace range must be finite (got %g)" d
    | _, Log_uniform_reals { log10_min; log10_max }
      when not
             (Float.is_finite log10_min && Float.is_finite log10_max
             && Float.is_finite (Float.pow 10. (Float.max log10_min log10_max))) ->
        err "loguniform exponents must be finite and at most %g (got %g:%g)"
          (Float.log10 Float.max_float) log10_min log10_max
    | _ -> Ok ()

  (* Every cell draws n from [lo, hi]: a party count below 1 or an empty
     range has no cell to run. *)
  let validate_parties s =
    match s.n with
    | Exactly k | Between (k, _) when k < 1 ->
        Printf.ksprintf Result.error "party count n = %d must be at least 1" k
    | Between (lo, hi) when lo > hi ->
        Printf.ksprintf Result.error "party count range %d-%d has LO > HI" lo hi
    | Exactly _ | Between _ -> Ok ()

  (* Every cell draws n >= lo; a fixed t at or above that leaves some cell
     with t >= n, which the engines reject at instantiation. *)
  let validate_budget s =
    let lo = match s.n with Exactly k | Between (k, _) -> k in
    match s.t_budget with
    | Fixed_t t when t >= lo ->
        Printf.ksprintf Result.error
          "t = %d must be below the smallest party count n = %d" t lo
    | _ -> Ok ()

  let validate s =
    let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
    let label = protocol_label s.protocol in
    if s.repetitions < 0 then err "repetitions must be non-negative"
    else
      match
        List.fold_left
          (fun acc check -> Result.bind acc (fun () -> check s))
          (Ok ())
          [ validate_reals; validate_faults; validate_parties; validate_budget ]
      with
      | Error _ as e -> e
      | Ok () -> (
      match s.protocol with
      | Tree_aa -> (
          if not (vertex_inputs s.inputs) then
            err "%s takes vertex inputs (Random_vertices)" label
          else
            match s.adversary with
            (* genomes compile phase-by-phase across the composition
               boundary, so they face TreeAA even with gradecast genes *)
            | Synth_genome _ -> Ok ()
            | a when real_family a && not (generic_family a) ->
                err
                  "%s speaks the composed TreeAA wire type; real-valued \
                   adversary families do not apply"
                  label
            | _ -> Ok ())
      | Nr_baseline ->
          if not (vertex_inputs s.inputs) then
            err "%s takes vertex inputs (Random_vertices)" label
          else if not (generic_family s.adversary) then
            err "%s supports only the protocol-agnostic adversary families"
              label
          else Ok ()
      | Path_aa ->
          if not (vertex_inputs s.inputs) then
            err "%s takes vertex inputs (Random_vertices)" label
          else if not (match s.tree with Path_tree _ -> true | _ -> false)
          then err "%s requires a Path_tree family" label
          else if not (real_family s.adversary) then
            err "%s cannot face tree-composed adversary families" label
          else Ok ()
      | Known_path_aa ->
          if not (vertex_inputs s.inputs) then
            err "%s takes vertex inputs (Random_vertices)" label
          else if not (real_family s.adversary) then
            err "%s cannot face tree-composed adversary families" label
          else Ok ()
      | Real_aa _ | Iterated_midpoint _ ->
          if vertex_inputs s.inputs then
            err "%s takes real inputs (Linspace_reals or Log_uniform_reals)"
              label
          else if not (real_family s.adversary) then
            err "%s cannot face tree-composed adversary families" label
          else Ok ()
      | Async_tree_aa -> (
          if not (vertex_inputs s.inputs) then
            err "%s takes vertex inputs (Random_vertices)" label
          else
            match s.adversary with
            | Passive -> Ok ()
            | Synth_genome g when Aat_adversary.Genome.generic g -> Ok ()
            | Synth_genome _ ->
                err
                  "%s accepts only protocol-agnostic genomes (the \
                   gradecast attacks do not speak its wire)"
                  label
            | _ -> err "%s currently runs only under the passive adversary" label)
      | Round_sim_tree_aa ->
          if not (vertex_inputs s.inputs) then
            err "%s takes vertex inputs (Random_vertices)" label
          else if s.adversary <> Passive then
            (* the round simulation stalls once a party is corrupted (its
               batches never arrive), so even genomes are rejected here *)
            err "%s currently runs only under the passive adversary" label
          else Ok ())
end

type task_result = {
  task : int;
  task_seed : int;
  result : (Runner.outcome, string) Stdlib.result;
}

type aggregate = {
  tasks : int;
  violations : int;
  errors : int;
  timeouts : int;
  engine_errors : int;
  excused : int;
  total_rounds : int;
  total_honest_messages : int;
  total_adversary_messages : int;
  max_spread : float option;
}

type result = {
  spec : Spec.t;
  results : task_result array;
  aggregate : aggregate;
}

(* ------------------------------------------------------------------ *)
(* seed schedule *)

(* 53 bits so the seed survives a JSON round-trip ([Jsonx] numbers are
   floats) without losing a bit. *)
let seed_of_int64 i64 = Int64.to_int (Int64.shift_right_logical i64 11)

let task_seeds ~base_seed ~count =
  let rng = Rng.create base_seed in
  let seeds = Array.make (max 0 count) 0 in
  (* Explicit loop: the schedule is the SplitMix64 stream in order, and
     [Array.init]'s evaluation order is unspecified. *)
  for i = 0 to count - 1 do
    seeds.(i) <- seed_of_int64 (Rng.int64 rng)
  done;
  seeds

let split_seed ~base ~index =
  let rng = Rng.create base in
  let seed = ref 0 in
  for _ = 0 to max 0 index do
    seed := seed_of_int64 (Rng.int64 rng)
  done;
  !seed

(* ------------------------------------------------------------------ *)
(* per-task instantiation: every draw below comes from the task's own
   SplitMix64 stream, in a fixed order (tree, n, t, inputs, adversary,
   scheduler, engine seed), so a task is a pure function of its seed. *)

let draw_size rng = function
  | Spec.Exactly k -> k
  | Spec.Between (lo, hi) ->
      if hi <= lo then lo else lo + Rng.int rng (hi - lo + 1)

let draw_tree rng family =
  let size s = draw_size rng s in
  match family with
  | Spec.Path_tree s -> Generate.path (max 1 (size s))
  | Spec.Star_tree s -> Generate.star (max 3 (size s))
  | Spec.Caterpillar_tree { spine; legs } ->
      Generate.caterpillar ~spine:(max 1 (size spine)) ~legs:(max 0 (size legs))
  | Spec.Spider_tree { legs; leg_length } ->
      Generate.spider ~legs:(max 1 (size legs))
        ~leg_length:(max 1 (size leg_length))
  | Spec.Balanced_tree { arity; depth } ->
      Generate.balanced ~arity:(max 2 (size arity)) ~depth:(max 1 (size depth))
  | Spec.Random_tree s -> Generate.random rng (max 2 (size s))
  | Spec.Any_tree -> (
      (* soak's historical mix, kept verbatim so campaigns reproduce it *)
      match Rng.int rng 6 with
      | 0 -> Generate.path (2 + Rng.int rng 300)
      | 1 -> Generate.star (3 + Rng.int rng 200)
      | 2 -> Generate.caterpillar ~spine:(1 + Rng.int rng 40) ~legs:(Rng.int rng 4)
      | 3 ->
          Generate.spider ~legs:(1 + Rng.int rng 8)
            ~leg_length:(1 + Rng.int rng 20)
      | 4 -> Generate.balanced ~arity:(2 + Rng.int rng 2) ~depth:(1 + Rng.int rng 5)
      | _ -> Generate.random rng (2 + Rng.int rng 250))

let draw_t rng ~n = function
  | Spec.Fixed_t t -> max 0 t
  | Spec.Up_to_third -> Rng.int rng ((max 1 n - 1) / 3 + 1)

let draw_vertex_inputs rng ~n ~nv =
  let a = Array.make n 0 in
  for i = 0 to n - 1 do
    a.(i) <- Rng.int rng (max 1 nv)
  done;
  a

(* Returns the inputs and the range [D] they span (the agreement
   iterations budget is a function of the range). *)
let draw_real_inputs rng ~n = function
  | Spec.Linspace_reals d ->
      let d = if d <= 0. then 1. else d in
      let step = d /. float_of_int (max 1 (n - 1)) in
      (Array.init n (fun i -> step *. float_of_int i), d)
  | Spec.Log_uniform_reals { log10_min; log10_max } ->
      let lo = Float.min log10_min log10_max in
      let hi = Float.max log10_min log10_max in
      let exp = if hi > lo then lo +. Rng.float rng (hi -. lo) else lo in
      let d = Float.pow 10. exp in
      let a = Array.make n 0. in
      for i = 0 to n - 1 do
        a.(i) <- Rng.float rng d
      done;
      (a, d)
  | Spec.Random_vertices ->
      invalid_arg "Campaign: Random_vertices inputs for a real-valued protocol"

let incompatible ~protocol ~family =
  invalid_arg
    (Printf.sprintf "Campaign: adversary family %s incompatible with %s"
       family protocol)

(* The protocol-agnostic strategies are polymorphic in the wire type, so
   one constructor serves every runner. Crash parameters are drawn here,
   at instantiation — only stateful construction is deferred to the
   thunk. *)
let generic_adversary : type m.
    Rng.t ->
    t:int ->
    n:int ->
    rounds_hint:int ->
    Spec.adversary_family ->
    (unit -> m Adversary.t) option =
 fun rng ~t ~n ~rounds_hint family ->
  match family with
  | Spec.Passive -> Some (fun () -> Adversary.passive "none")
  | Spec.Random_silent -> Some (fun () -> Strategies.random_silent ~count:t)
  | Spec.Random_crash ->
      let at_round = 1 + Rng.int rng (max 1 rounds_hint) in
      let bound = max 1 (min n (t + 3)) in
      let victims = Rng.sample_without_replacement rng (min t bound) bound in
      Some (fun () -> Strategies.crash ~at_round ~victims)
  | Spec.Synth_genome g when Genome.generic g ->
      Some
        (fun () ->
          match Genome.compile_generic ~n g with
          | Some a -> a
          | None -> assert false)
  | _ -> None

(* TreeAA's two phases are RealAA instances with these schedule lengths;
   both the hand-written spoiler and genome compilation phase their attack
   across the same boundary. *)
let tree_phase_shape ~tree =
  let barrier = max 1 (Paths_finder.rounds ~tree) in
  let nv = Tree.n_vertices tree in
  let first_iterations =
    Rounds.bdh_iterations ~range:(float_of_int ((2 * nv) - 2)) ~eps:1.
  in
  let second_iterations =
    Rounds.bdh_iterations
      ~range:(float_of_int (max 2 (Metrics.diameter tree)))
      ~eps:1.
  in
  (barrier, first_iterations, second_iterations)

let tree_spoiler ~tree ~t =
  let barrier, first_iterations, second_iterations = tree_phase_shape ~tree in
  Compose.phased ~name:"spoiler" ~barrier
    ~first:(Spoiler.realaa_spoiler ~t ~iterations:first_iterations)
    ~second:(Spoiler.realaa_spoiler ~t ~iterations:second_iterations)

let tree_genome_thunk ~tree ~t ~n g =
  let barrier, first_iterations, second_iterations = tree_phase_shape ~tree in
  fun () ->
    Genome.compile_tree ~n ~t ~barrier ~first_iterations ~second_iterations g

let tree_aa_adversary rng ~tree ~t ~n ~rounds_hint family =
  let generic f =
    match generic_adversary rng ~t ~n ~rounds_hint f with
    | Some a -> a
    | None -> assert false
  in
  match family with
  | (Spec.Passive | Spec.Random_silent | Spec.Random_crash) as f -> generic f
  | Spec.Tree_spoiler -> fun () -> tree_spoiler ~tree ~t
  | Spec.Synth_genome g -> tree_genome_thunk ~tree ~t ~n g
  | Spec.Any_tree_adversary -> (
      match Rng.int rng 4 with
      | 0 -> generic Spec.Passive
      | 1 -> generic Spec.Random_silent
      | 2 -> generic Spec.Random_crash
      | _ -> fun () -> tree_spoiler ~tree ~t)
  | Spec.Real_spoiler | Spec.Gradecast_wedge | Spec.Any_real_adversary ->
      incompatible ~protocol:"tree-aa" ~family:"real-valued"

let real_adversary rng ~t ~n ~rounds_hint ~iterations family =
  let generic f =
    match generic_adversary rng ~t ~n ~rounds_hint f with
    | Some a -> a
    | None -> assert false
  in
  match family with
  | (Spec.Passive | Spec.Random_silent | Spec.Random_crash) as f -> generic f
  | Spec.Real_spoiler -> fun () -> Spoiler.realaa_spoiler ~t ~iterations
  | Spec.Gradecast_wedge -> fun () -> Wedge.gradecast_wedge ()
  | Spec.Synth_genome g -> fun () -> Genome.compile_real ~n ~t ~iterations g
  | Spec.Any_real_adversary -> (
      match Rng.int rng 3 with
      | 0 -> generic Spec.Passive
      | 1 -> generic Spec.Random_silent
      | _ -> fun () -> Spoiler.realaa_spoiler ~t ~iterations)
  | Spec.Tree_spoiler | Spec.Any_tree_adversary ->
      incompatible ~protocol:"a real-valued protocol" ~family:"tree-composed"

let draw_scheduler rng =
  match Rng.int rng 3 with
  | 0 -> Runner.Fifo
  | 1 -> Runner.Lifo
  | _ -> Runner.Random_order

let draw_engine_seed rng = Rng.int rng 0x3FFF_FFFF

(* Chaos plans are drawn from the task's own stream just before the engine
   seed, so [No_faults] specs make exactly the draws they always did (the
   benign streams — and the golden JSONL — are unchanged). *)
let draw_fault_plan rng (spec : Spec.t) ~n ~rounds_hint =
  match spec.Spec.faults with
  | Spec.No_faults -> Aat_faults.Plan.empty
  | Spec.Fault_plan p -> p
  | Spec.Chaos { intensity } ->
      Aat_faults.Plan.random rng ~n ~rounds_hint
        ~sync_only:(Spec.sync_protocol spec.Spec.protocol)
        ~intensity ()

(* Campaign cells construct every run through the unified
   [Runner.Config]: one record built from the drawn fault plan, the
   spec's watchdog flag and (for the async protocols) the drawn
   scheduler. *)
let run_config ?scheduler ~fault_plan ~watch () =
  let base = { Runner.Config.default with Runner.Config.fault_plan; watch } in
  match scheduler with
  | None -> base
  | Some s -> { base with Runner.Config.scheduler = s }

let instantiate (spec : Spec.t) ~task_seed =
  (match Spec.validate spec with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Campaign.instantiate: " ^ msg));
  let rng = Rng.create task_seed in
  let vertex_setup () =
    let tree = draw_tree rng spec.tree in
    let n = draw_size rng spec.n in
    let t = draw_t rng ~n spec.t_budget in
    let inputs = draw_vertex_inputs rng ~n ~nv:(Tree.n_vertices tree) in
    (tree, n, t, inputs)
  in
  let watch = spec.watchdogs in
  match spec.protocol with
  | Spec.Tree_aa ->
      let tree, n, t, inputs = vertex_setup () in
      let rounds_hint = max 1 (Tree_aa.rounds ~tree) in
      let adversary = tree_aa_adversary rng ~tree ~t ~n ~rounds_hint spec.adversary in
      let fault_plan = draw_fault_plan rng spec ~n ~rounds_hint in
      ( Runner.tree_aa
          ~config:(run_config ~fault_plan ~watch ())
          ~tree ~inputs ~t ~adversary (),
        draw_engine_seed rng )
  | Spec.Nr_baseline ->
      let tree, n, t, inputs = vertex_setup () in
      let rounds_hint = max 1 (3 * Nr_baseline.iterations_for tree) in
      let adversary =
        match generic_adversary rng ~t ~n ~rounds_hint spec.adversary with
        | Some a -> a
        | None ->
            incompatible ~protocol:"nr-baseline" ~family:"protocol-specific"
      in
      let fault_plan = draw_fault_plan rng spec ~n ~rounds_hint in
      ( Runner.nr_baseline
          ~config:(run_config ~fault_plan ~watch ())
          ~tree ~inputs ~t ~adversary (),
        draw_engine_seed rng )
  | Spec.Path_aa ->
      let path, n, t, inputs = vertex_setup () in
      let rounds_hint = max 1 (Path_aa.rounds ~path) in
      let iterations =
        Rounds.bdh_iterations
          ~range:(float_of_int (max 1 (Tree.n_vertices path - 1)))
          ~eps:1.
      in
      let adversary =
        real_adversary rng ~t ~n ~rounds_hint ~iterations spec.adversary
      in
      let fault_plan = draw_fault_plan rng spec ~n ~rounds_hint in
      ( Runner.path_aa
          ~config:(run_config ~fault_plan ~watch ())
          ~path ~inputs ~t ~adversary (),
        draw_engine_seed rng )
  | Spec.Known_path_aa ->
      let tree, n, t, inputs = vertex_setup () in
      let path = Paths.orient tree (Metrics.longest_path tree) in
      let rounds_hint = max 1 (Known_path_aa.rounds ~path) in
      let iterations =
        Rounds.bdh_iterations
          ~range:(float_of_int (max 2 (Metrics.diameter tree)))
          ~eps:1.
      in
      let adversary =
        real_adversary rng ~t ~n ~rounds_hint ~iterations spec.adversary
      in
      let fault_plan = draw_fault_plan rng spec ~n ~rounds_hint in
      ( Runner.known_path_aa
          ~config:(run_config ~fault_plan ~watch ())
          ~tree ~path ~inputs ~t ~adversary (),
        draw_engine_seed rng )
  | Spec.Real_aa { eps } ->
      let n = draw_size rng spec.n in
      let t = draw_t rng ~n spec.t_budget in
      let inputs, range = draw_real_inputs rng ~n spec.inputs in
      let iterations = max 1 (Rounds.bdh_iterations ~range ~eps) in
      let adversary =
        real_adversary rng ~t ~n ~rounds_hint:(3 * iterations) ~iterations
          spec.adversary
      in
      let fault_plan =
        draw_fault_plan rng spec ~n ~rounds_hint:(3 * iterations)
      in
      ( Runner.real_aa
          ~config:(run_config ~fault_plan ~watch ())
          ~eps ~inputs ~t ~iterations ~adversary (),
        draw_engine_seed rng )
  | Spec.Iterated_midpoint { eps } ->
      let n = draw_size rng spec.n in
      let t = draw_t rng ~n spec.t_budget in
      let inputs, range = draw_real_inputs rng ~n spec.inputs in
      let iterations = max 1 (Rounds.halving_iterations ~range ~eps) in
      let adversary =
        real_adversary rng ~t ~n ~rounds_hint:(3 * iterations) ~iterations
          spec.adversary
      in
      let fault_plan =
        draw_fault_plan rng spec ~n ~rounds_hint:(3 * iterations)
      in
      ( Runner.iterated_midpoint
          ~config:(run_config ~fault_plan ~watch ())
          ~eps ~inputs ~t ~iterations ~adversary (),
        draw_engine_seed rng )
  | Spec.Async_tree_aa ->
      let tree, n, t, inputs = vertex_setup () in
      (* A genome fixes the scheduler (its async gene) and compiles to a
         wire-polymorphic adversary; the passive path draws the scheduler
         exactly as before, keeping its task streams unchanged. *)
      let scheduler, adversary =
        match spec.Spec.adversary with
        | Spec.Synth_genome g ->
            let scheduler =
              match g.Genome.scheduler with
              | Genome.Fifo -> Runner.Fifo
              | Genome.Lifo -> Runner.Lifo
              | Genome.Random_order -> Runner.Random_order
            in
            ( scheduler,
              Some
                (fun () ->
                  match Genome.compile_generic ~n g with
                  | Some a -> a
                  | None -> assert false) )
        | _ -> (draw_scheduler rng, None)
      in
      (* round hints are delivery events under the async engine: roughly
         n^2 letters cross the network per protocol round *)
      let rounds_hint =
        max 1 (n * n * 3 * Nr_baseline.iterations_for tree)
      in
      let fault_plan = draw_fault_plan rng spec ~n ~rounds_hint in
      ( Runner.async_tree_aa
          ~config:(run_config ~scheduler ~fault_plan ~watch ())
          ~tree ~inputs ~t ?adversary (),
        draw_engine_seed rng )
  | Spec.Round_sim_tree_aa ->
      let tree, n, t, inputs = vertex_setup () in
      let scheduler = draw_scheduler rng in
      let rounds_hint = max 1 (n * n * Tree_aa.rounds ~tree) in
      let fault_plan = draw_fault_plan rng spec ~n ~rounds_hint in
      ( Runner.round_sim_tree_aa
          ~config:(run_config ~scheduler ~fault_plan ~watch ())
          ~tree ~inputs ~t (),
        draw_engine_seed rng )

(* ------------------------------------------------------------------ *)
(* aggregation *)

let empty_aggregate =
  {
    tasks = 0;
    violations = 0;
    errors = 0;
    timeouts = 0;
    engine_errors = 0;
    excused = 0;
    total_rounds = 0;
    total_honest_messages = 0;
    total_adversary_messages = 0;
    max_spread = None;
  }

let merge_spread a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some a, Some b -> Some (Float.max a b)

(* The one fold, over an outcome in its JSON rendering — as
   [fold_task] renders it, as the service wire ships it, or as a flight
   record resumes it. Violated is exactly "the verdict triple fails and
   the grade is not excused" (see Verdict.grade), the timeout/engine-error
   statuses come from the "status" field, and the totals read the
   always-present headline numbers. *)
let fold_outcome_json agg payload =
  match payload with
  | Error _ ->
      {
        agg with
        tasks = agg.tasks + 1;
        violations = agg.violations + 1;
        errors = agg.errors + 1;
      }
  | Ok j ->
      let b p = if p then 1 else 0 in
      let bool name =
        match Json.member name j with Some (Json.Bool v) -> v | _ -> false
      in
      let int name =
        match Option.bind (Json.member name j) Json.to_int with
        | Some v -> v
        | None -> 0
      in
      let status = Option.bind (Json.member "status" j) Json.to_str in
      let excused =
        Option.bind (Json.member "grade" j) Json.to_str = Some "excused"
      in
      let all_ok = bool "termination" && bool "validity" && bool "agreement" in
      {
        tasks = agg.tasks + 1;
        violations = agg.violations + b ((not all_ok) && not excused);
        errors = agg.errors;
        timeouts = agg.timeouts + b (status = Some "liveness-timeout");
        engine_errors = agg.engine_errors + b (status = Some "engine-error");
        excused = agg.excused + b excused;
        total_rounds = agg.total_rounds + int "rounds_used";
        total_honest_messages =
          agg.total_honest_messages + int "honest_messages";
        total_adversary_messages =
          agg.total_adversary_messages + int "adversary_messages";
        max_spread =
          merge_spread agg.max_spread
            (match Json.member "spread" j with
            | Some (Json.Num s) -> Some s
            | _ -> None);
      }

(* ------------------------------------------------------------------ *)
(* JSONL result stream *)

let num i = Json.Num (float_of_int i)

(* Fault-layer fields are emitted only when non-default, so benign
   campaign streams — and the golden JSONL locked down in the tests —
   stay byte-identical to the pre-fault format. *)
let status_fields (o : Runner.outcome) =
  match o.Runner.status with
  | Runner.Finished -> []
  | Runner.Timed_out { undecided; reason } ->
      [
        ("status", Json.Str (Runner.status_label o.Runner.status));
        ("undecided", num undecided);
        ("reason", Json.Str reason);
      ]
  | Runner.Errored { stage; exn_text } ->
      [
        ("status", Json.Str (Runner.status_label o.Runner.status));
        ("stage", Json.Str stage);
        ("error", Json.Str exn_text);
      ]

let grade_fields (o : Runner.outcome) =
  match o.Runner.grade with
  | Aat_engine.Verdict.Passed | Aat_engine.Verdict.Violated _ -> []
  | Aat_engine.Verdict.Excused { reason; _ } ->
      [ ("grade", Json.Str "excused"); ("excuse", Json.Str reason) ]

let fault_fields (o : Runner.outcome) =
  let f = o.Runner.faults in
  if not (Aat_runtime.Report.faults_active f) then []
  else
    [
      ( "faults",
        Json.Obj
          [
            ("dropped", num f.Aat_runtime.Report.dropped);
            ("duplicated", num f.Aat_runtime.Report.duplicated);
            ("delayed", num f.Aat_runtime.Report.delayed);
            ("crashed", num f.Aat_runtime.Report.crashed);
          ] );
    ]

let violation_fields (o : Runner.outcome) =
  match o.Runner.violations with
  | [] -> []
  | vs ->
      [
        ( "watchdog_violations",
          Json.Arr
            (List.map
               (fun (v : Aat_runtime.Watchdog.violation) ->
                 Json.Obj
                   [
                     ("watchdog", Json.Str v.Aat_runtime.Watchdog.watchdog);
                     ("round", num v.Aat_runtime.Watchdog.round);
                     ("detail", Json.Str v.Aat_runtime.Watchdog.detail);
                   ])
               vs) );
      ]

(* Profile numbers are wall-clock measurements: present only on --profile
   runs (so benign streams and goldens are unchanged) and deliberately
   outside the bit-identical-for-any-workers determinism contract. *)
let profile_fields (o : Runner.outcome) =
  match o.Runner.profile with
  | None -> []
  | Some p ->
      [
        ( "profile",
          Json.Obj
            [
              ("setup_ns", num p.Runner.setup_ns);
              ("rounds_ns", num p.Runner.rounds_ns);
              ("checks_ns", num p.Runner.checks_ns);
              ("alloc_bytes", Json.Num p.Runner.alloc_bytes);
            ] );
      ]

let json_of_outcome (o : Runner.outcome) =
  Json.Obj
    ([
       ("runner", Json.Str o.Runner.runner);
       ("seed", num o.Runner.seed);
       ("engine", Json.Str o.Runner.engine);
       ("ok", Json.Bool (Runner.ok o));
       ("termination", Json.Bool o.Runner.termination);
       ("validity", Json.Bool o.Runner.validity);
       ("agreement", Json.Bool o.Runner.agreement);
       ("rounds_used", num o.Runner.rounds_used);
       ("honest_messages", num o.Runner.honest_messages);
       ("adversary_messages", num o.Runner.adversary_messages);
       ("corrupted", num o.Runner.corrupted);
       ("initially_corrupted", num o.Runner.initially_corrupted);
       ( "spread",
         match o.Runner.spread with None -> Json.Null | Some s -> Json.Num s );
     ]
    @ status_fields o @ grade_fields o @ fault_fields o @ violation_fields o
    @ profile_fields o)

(* A task line from a payload in JSON form: the outcome rendered here, or
   shipped rendered over the service wire. *)
let json_of_task_line ~task ~task_seed payload =
  Json.Obj
    ([
       ("type", Json.Str "task");
       ("task", num task);
       ("task_seed", num task_seed);
     ]
    @
    match payload with
    | Ok o -> [ ("outcome", o) ]
    | Error e -> [ ("error", Json.Str e) ])

let json_of_task_result tr =
  json_of_task_line ~task:tr.task ~task_seed:tr.task_seed
    (Result.map json_of_outcome tr.result)

(* The header deliberately omits the worker count: the stream must be
   byte-identical however the campaign was scheduled. It carries the
   telemetry [format_version] gate, like every recorder/trace header. *)
let json_header (spec : Spec.t) =
  Json.Obj
    ([
       ("type", Json.Str "campaign-start");
       ( "format_version",
         Json.Str Aat_telemetry.Telemetry.format_version_string );
       ("name", Json.Str spec.name);
       ("protocol", Json.Str (Spec.protocol_label spec.protocol));
       ("repetitions", num spec.repetitions);
       ("base_seed", num spec.base_seed);
     ]
    @ (match spec.faults with
      | Spec.No_faults -> []
      | Spec.Fault_plan p ->
          [ ("fault_plan", Json.Str (Aat_faults.Plan_io.to_string p)) ]
      | Spec.Chaos { intensity } -> [ ("chaos_intensity", Json.Num intensity) ])
    @ if spec.watchdogs then [ ("watchdogs", Json.Bool true) ] else [])

let json_footer agg =
  let opt name v = if v = 0 then [] else [ (name, num v) ] in
  Json.Obj
    ([
       ("type", Json.Str "campaign-stop");
       ("tasks", num agg.tasks);
       ("violations", num agg.violations);
       ("errors", num agg.errors);
     ]
    @ opt "timeouts" agg.timeouts
    @ opt "engine_errors" agg.engine_errors
    @ opt "excused" agg.excused
    @ [
        ("total_rounds", num agg.total_rounds);
        ("total_honest_messages", num agg.total_honest_messages);
        ("total_adversary_messages", num agg.total_adversary_messages);
        ( "max_spread",
          match agg.max_spread with None -> Json.Null | Some s -> Json.Num s );
      ])

let stream_lines spec task_lines aggregate =
  (json_header spec :: task_lines) @ [ json_footer aggregate ]

let jsonl_lines r =
  stream_lines r.spec
    (List.map json_of_task_result (Array.to_list r.results))
    r.aggregate

let output_lines oc lines =
  List.iter
    (fun line ->
      output_string oc (Json.to_string line);
      output_char oc '\n')
    lines;
  flush oc

let string_of_lines lines =
  String.concat "" (List.map (fun line -> Json.to_string line ^ "\n") lines)

let write_jsonl oc r = output_lines oc (jsonl_lines r)

let jsonl_string r = string_of_lines (jsonl_lines r)

(* ------------------------------------------------------------------ *)
(* execution *)

let fold_task agg tr =
  fold_outcome_json agg (Result.map json_of_outcome tr.result)

let run_cell ?telemetry ?(profile = false) spec ~task ~task_seed =
  let result =
    try
      let runner, engine_seed = instantiate spec ~task_seed in
      let sink = match telemetry with None -> None | Some f -> f ~task in
      Ok (runner.Runner.run ~seed:engine_seed ?telemetry:sink ~profile ())
    with exn -> Error (Printexc.to_string exn)
  in
  { task; task_seed; result }

let run ?(workers = 1) ?telemetry ?(profile = false) (spec : Spec.t) =
  (match Spec.validate spec with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Campaign.run: " ^ msg));
  let seeds = task_seeds ~base_seed:spec.base_seed ~count:spec.repetitions in
  let results =
    Pool.map ~workers spec.repetitions (fun task ->
        run_cell ?telemetry ~profile spec ~task ~task_seed:seeds.(task))
  in
  (* Fold in task order: the aggregate never sees completion order. *)
  let aggregate = Array.fold_left fold_task empty_aggregate results in
  { spec; results; aggregate }

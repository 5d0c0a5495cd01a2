(* Tests for the campaign subsystem: the Pool's determinism contract
   (results and exceptions independent of worker count), the per-task seed
   schedule, the Runner facade, and the campaign driver's worker-count
   invariance — the property the whole design exists to guarantee: one
   spec, any --workers, bit-identical results and JSONL. *)

open Treeagree

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Pool *)

let test_pool_order () =
  List.iter
    (fun workers ->
      let got = Pool.map ~workers 17 (fun i -> i * i) in
      Alcotest.(check (array int))
        (Printf.sprintf "square map, %d workers" workers)
        (Array.init 17 (fun i -> i * i))
        got)
    [ 1; 2; 3; 16 ]

let test_pool_edge_cases () =
  check_int "n = 0" 0 (Array.length (Pool.map ~workers:4 0 (fun i -> i)));
  Alcotest.(check (array int)) "workers > n" [| 0; 1; 2 |]
    (Pool.map ~workers:64 3 (fun i -> i));
  Alcotest.(check (array int)) "workers clamped to >= 1" [| 7 |]
    (Pool.map ~workers:(-3) 1 (fun _ -> 7));
  check "default_workers positive" true (Pool.default_workers () >= 1)

let test_pool_exception () =
  (* Tasks 3 and 7 fail; whatever the worker count and completion order,
     the lowest-indexed failure must be the one re-raised. *)
  List.iter
    (fun workers ->
      match
        Pool.map ~workers 10 (fun i ->
            if i = 3 || i = 7 then failwith (string_of_int i) else i)
      with
      | _ -> Alcotest.fail "expected a Failure"
      | exception Failure msg ->
          check_string
            (Printf.sprintf "lowest-index failure, %d workers" workers)
            "3" msg)
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* seed schedule *)

let test_task_seeds () =
  let a = Campaign.task_seeds ~base_seed:42 ~count:64 in
  let b = Campaign.task_seeds ~base_seed:42 ~count:64 in
  Alcotest.(check (array int)) "pure function of (base_seed, count)" a b;
  let c = Campaign.task_seeds ~base_seed:43 ~count:64 in
  check "different base seed, different schedule" true (a <> c);
  let module S = Set.Make (Int) in
  check_int "64 distinct seeds" 64 (S.cardinal (S.of_list (Array.to_list a)));
  check "seeds non-negative" true (Array.for_all (fun s -> s >= 0) a);
  (* a longer schedule extends the shorter one: seeds are positional *)
  let long = Campaign.task_seeds ~base_seed:42 ~count:128 in
  Alcotest.(check (array int)) "prefix stability" a (Array.sub long 0 64)

let test_split_seed () =
  let seeds = Campaign.task_seeds ~base_seed:9 ~count:8 in
  for i = 0 to 7 do
    check_int
      (Printf.sprintf "split_seed agrees with task_seeds at %d" i)
      seeds.(i)
      (Campaign.split_seed ~base:9 ~index:i)
  done

(* ------------------------------------------------------------------ *)
(* Runner *)

let test_runner_tree_aa () =
  let tree = Generate.caterpillar ~spine:6 ~legs:1 in
  let inputs = [| 0; 3; 5; 2; 8; 1; 4 |] in
  let runner =
    Runner.tree_aa ~tree ~inputs ~t:2
      ~adversary:(fun () -> Strategies.random_silent ~count:2)
      ()
  in
  check_string "name" "tree-aa" runner.Runner.name;
  let o = runner.Runner.run ~seed:3 () in
  check "verdict ok" true (Runner.ok o);
  check_string "engine" "sync" o.Runner.engine;
  check_int "corrupted" 2 o.Runner.corrupted;
  check "tree outcomes carry no spread" true (o.Runner.spread = None);
  (* same seed, same outcome — the adversary thunk rebuilds fresh state *)
  check "runs are reproducible" true (runner.Runner.run ~seed:3 () = o);
  check "seed is live" true (runner.Runner.run ~seed:4 () <> o)

let test_runner_real_aa () =
  let inputs = [| 0.; 25.; 50.; 75.; 100. |] in
  let runner =
    Runner.real_aa ~eps:1. ~inputs ~t:1 ~iterations:7
      ~adversary:(fun () -> Adversary.passive "none")
      ()
  in
  let o = runner.Runner.run ~seed:1 () in
  check "verdict ok" true (Runner.ok o);
  check "real outcomes carry a spread" true (o.Runner.spread <> None);
  check "fault-free spread within eps" true
    (match o.Runner.spread with Some s -> s <= 1. | None -> false)

(* ------------------------------------------------------------------ *)
(* campaign driver: worker-count invariance *)

let spec_of_seed ?(chaos = false) seed =
  let open Campaign.Spec in
  let rng = Rng.create seed in
  let protocol, inputs, adversary =
    match Rng.int rng 4 with
    | 0 -> (Tree_aa, Random_vertices, Any_tree_adversary)
    | 1 -> (Nr_baseline, Random_vertices, Random_silent)
    | 2 ->
        ( Real_aa { eps = 1. },
          Log_uniform_reals { log10_min = 1.; log10_max = 3. },
          Any_real_adversary )
    | _ -> (Round_sim_tree_aa, Random_vertices, Passive)
  in
  (* with [chaos], also sweep the fault modes: per-task random plans, one
     fixed sync-compatible plan, or none — the invariance property must
     hold across all of them *)
  let faults, watchdogs =
    if not chaos then (No_faults, false)
    else
      match Rng.int rng 3 with
      | 0 -> (Chaos { intensity = 0.3 +. Rng.float rng 0.7 }, true)
      | 1 ->
          ( Fault_plan
              [
                Fault_plan.Omission { prob = 0.05; scope = Fault_plan.All };
                Fault_plan.Crash { party = 0; at_round = 2 };
              ],
            Rng.bool rng )
      | _ -> (No_faults, true)
  in
  {
    name = "prop";
    protocol;
    tree = Random_tree (Between (2, 16));
    n = Between (4, 8);
    t_budget = Up_to_third;
    inputs;
    adversary;
    faults;
    watchdogs;
    repetitions = 2 + Rng.int rng 3;
    base_seed = seed;
  }

let prop_workers_invariant =
  QCheck2.Test.make
    ~name:"campaign: workers 1/2/4 give identical results and JSONL" ~count:10
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let spec = spec_of_seed seed in
      let r1 = Campaign.run ~workers:1 spec in
      let r2 = Campaign.run ~workers:2 spec in
      let r4 = Campaign.run ~workers:4 spec in
      r1.Campaign.results = r2.Campaign.results
      && r2.Campaign.results = r4.Campaign.results
      && r1.Campaign.aggregate = r4.Campaign.aggregate
      && Campaign.jsonl_string r1 = Campaign.jsonl_string r2
      && Campaign.jsonl_string r2 = Campaign.jsonl_string r4)

(* Same property with fault injection in play: fault plans compile to
   per-run RNG streams split from the engine seed, so chaos campaigns must
   stay bit-identical for any worker count too. *)
let prop_workers_invariant_chaos =
  QCheck2.Test.make
    ~name:"campaign: worker invariance holds under fault plans and chaos"
    ~count:10
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let spec = spec_of_seed ~chaos:true seed in
      let r1 = Campaign.run ~workers:1 spec in
      let r2 = Campaign.run ~workers:2 spec in
      let r4 = Campaign.run ~workers:4 spec in
      r1.Campaign.results = r2.Campaign.results
      && r2.Campaign.results = r4.Campaign.results
      && r1.Campaign.aggregate = r4.Campaign.aggregate
      && Campaign.jsonl_string r1 = Campaign.jsonl_string r4)

let prop_task_seeds_in_results =
  QCheck2.Test.make
    ~name:"campaign: per-task seeds equal the published schedule" ~count:20
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let spec = spec_of_seed seed in
      let r = Campaign.run ~workers:2 spec in
      let schedule =
        Campaign.task_seeds ~base_seed:spec.Campaign.Spec.base_seed
          ~count:spec.Campaign.Spec.repetitions
      in
      Array.length r.Campaign.results = spec.Campaign.Spec.repetitions
      && Array.for_all
           (fun (tr : Campaign.task_result) ->
             tr.Campaign.task_seed = schedule.(tr.Campaign.task))
           r.Campaign.results)

(* ------------------------------------------------------------------ *)
(* JSONL stream *)

let golden_spec =
  {
    Campaign.Spec.name = "golden";
    protocol = Campaign.Spec.Real_aa { eps = 1. };
    tree = Campaign.Spec.Any_tree;
    n = Campaign.Spec.Exactly 5;
    t_budget = Campaign.Spec.Fixed_t 1;
    inputs = Campaign.Spec.Linspace_reals 100.;
    adversary = Campaign.Spec.Passive;
    faults = Campaign.Spec.No_faults;
    watchdogs = false;
    repetitions = 2;
    base_seed = 9;
  }

(* Locked-down stream for a tiny fixed campaign. If a protocol or engine
   change legitimately shifts message counts, regenerate with
     treeaa campaign -p realaa -i linspace:100 -a none -n 5 -t 1 \
       --reps 2 --seed 9 --name golden *)
let golden_jsonl =
  {|{"type":"campaign-start","format_version":"1.0","name":"golden","protocol":"realaa","repetitions":2,"base_seed":9}
{"type":"task","task":0,"task_seed":6146177117965836,"outcome":{"runner":"realaa","seed":590121192,"engine":"sync","ok":true,"termination":true,"validity":true,"agreement":true,"rounds_used":12,"honest_messages":300,"adversary_messages":0,"corrupted":0,"initially_corrupted":0,"spread":0}}
{"type":"task","task":1,"task_seed":6761658480391677,"outcome":{"runner":"realaa","seed":255723267,"engine":"sync","ok":true,"termination":true,"validity":true,"agreement":true,"rounds_used":12,"honest_messages":300,"adversary_messages":0,"corrupted":0,"initially_corrupted":0,"spread":0}}
{"type":"campaign-stop","tasks":2,"violations":0,"errors":0,"total_rounds":24,"total_honest_messages":600,"total_adversary_messages":0,"max_spread":0}
|}

let test_golden_jsonl () =
  let r = Campaign.run ~workers:1 golden_spec in
  check_string "golden stream" golden_jsonl (Campaign.jsonl_string r);
  (* and the stream is identical however it was scheduled *)
  check_string "golden stream, 3 workers" golden_jsonl
    (Campaign.jsonl_string (Campaign.run ~workers:3 golden_spec))

let test_jsonl_roundtrip () =
  let r = Campaign.run ~workers:2 (spec_of_seed 77) in
  let lines =
    String.split_on_char '\n' (Campaign.jsonl_string r)
    |> List.filter (fun l -> l <> "")
    |> List.map (fun l -> Result.get_ok (Telemetry.Json.of_string l))
  in
  check_int "line count" (Array.length r.Campaign.results + 2)
    (List.length lines);
  let field name json = Option.get (Telemetry.Json.member name json) in
  let ty json = Option.get (Telemetry.Json.to_str (field "type" json)) in
  check_string "header" "campaign-start" (ty (List.hd lines));
  check_string "footer" "campaign-stop" (ty (List.nth lines (List.length lines - 1)));
  List.iteri
    (fun i json ->
      if i > 0 && i < List.length lines - 1 then begin
        check_string "task line" "task" (ty json);
        check_int "tasks stream in order" (i - 1)
          (Option.get (Telemetry.Json.to_int (field "task" json)))
      end)
    lines;
  (* determinism hook the docs promise: no worker count in the header *)
  check "header carries no worker count" true
    (Telemetry.Json.member "workers" (List.hd lines) = None)

let test_validate () =
  let ok = function Ok () -> true | Error _ -> false in
  let base = golden_spec in
  check "golden spec validates" true (ok (Campaign.Spec.validate base));
  check "realaa rejects vertex inputs" false
    (ok
       (Campaign.Spec.validate
          { base with inputs = Campaign.Spec.Random_vertices }));
  check "tree-aa rejects real adversaries" false
    (ok
       (Campaign.Spec.validate
          {
            base with
            protocol = Campaign.Spec.Tree_aa;
            inputs = Campaign.Spec.Random_vertices;
            adversary = Campaign.Spec.Gradecast_wedge;
          }));
  check "async runs only passive" false
    (ok
       (Campaign.Spec.validate
          {
            base with
            protocol = Campaign.Spec.Async_tree_aa;
            inputs = Campaign.Spec.Random_vertices;
            adversary = Campaign.Spec.Random_silent;
          }));
  check "path-aa needs a path family" false
    (ok
       (Campaign.Spec.validate
          {
            base with
            protocol = Campaign.Spec.Path_aa;
            inputs = Campaign.Spec.Random_vertices;
          }));
  (* A NaN or infinite range or eps used to pass and then hang
     instantiation in [Rounds.bdh_iterations]; an eps <= 0 passed and then
     errored every task there. *)
  List.iter
    (fun (name, spec) -> check name false (ok (Campaign.Spec.validate spec)))
    [
      ("nan eps", { base with protocol = Campaign.Spec.Real_aa { eps = Float.nan } });
      ( "infinite eps",
        { base with protocol = Campaign.Spec.Iterated_midpoint { eps = Float.infinity } } );
      ("realaa eps 0", { base with protocol = Campaign.Spec.Real_aa { eps = 0. } });
      ("realaa eps -1", { base with protocol = Campaign.Spec.Real_aa { eps = -1. } });
      ( "iterated-midpoint eps 0",
        { base with protocol = Campaign.Spec.Iterated_midpoint { eps = 0. } } );
      ( "iterated-midpoint eps -1",
        { base with protocol = Campaign.Spec.Iterated_midpoint { eps = -1. } } );
      ("nan linspace", { base with inputs = Campaign.Spec.Linspace_reals Float.nan });
      ( "infinite linspace",
        { base with inputs = Campaign.Spec.Linspace_reals Float.infinity } );
      ( "nan loguniform",
        {
          base with
          inputs = Campaign.Spec.Log_uniform_reals { log10_min = Float.nan; log10_max = 3. };
        } );
      ( "-inf loguniform",
        {
          base with
          inputs =
            Campaign.Spec.Log_uniform_reals
              { log10_min = Float.neg_infinity; log10_max = 3. };
        } );
      ( "loguniform past max_float",
        {
          base with
          inputs = Campaign.Spec.Log_uniform_reals { log10_min = 0.; log10_max = 400. };
        } );
      (* A NaN chaos intensity passed the range test and wrote records
         that replay rejects. *)
      ("nan chaos", { base with faults = Campaign.Spec.Chaos { intensity = Float.nan } });
    ];
  (* A fixed t at or above the smallest n the spec draws used to pass and
     then fail those cells at instantiation ([campaign --reps 2 -n 4 -t 5]
     and [--reps 3 -n 4-6 -t 4]); budgets from n/3 up to n stay legal,
     because out-of-model cells are graded. *)
  let cli n t =
    {
      base with
      protocol = Campaign.Spec.Tree_aa;
      n;
      t_budget = Campaign.Spec.Fixed_t t;
      inputs = Campaign.Spec.Random_vertices;
    }
  in
  List.iter
    (fun (name, want, spec) ->
      check name want (ok (Campaign.Spec.validate spec)))
    [
      ("-n 4 -t 5", false, cli (Campaign.Spec.Exactly 4) 5);
      ("-n 4-6 -t 4", false, cli (Campaign.Spec.Between (4, 6)) 4);
      ("-n 4-6 -t 3", true, cli (Campaign.Spec.Between (4, 6)) 3);
      ("-n 7 -t 3", true, cli (Campaign.Spec.Exactly 7) 3);
    ]

(* ------------------------------------------------------------------ *)
(* failure containment: one bad cell must not take down the grid *)

(* Chaos at full intensity over the round simulator makes some cells
   deadlock (a planned crash starves the round barrier): those must come
   back as [Liveness_timeout] rows while every other cell still delivers
   its result. base_seed 7 is a hunted seed giving 4 completed and 2
   timed-out cells; any exception escaping a run would instead abort the
   whole [Campaign.run]. *)
let test_one_bad_cell () =
  let spec =
    {
      Campaign.Spec.name = "one-bad-cell";
      protocol = Campaign.Spec.Round_sim_tree_aa;
      tree = Campaign.Spec.Random_tree (Campaign.Spec.Between (3, 10));
      n = Campaign.Spec.Exactly 5;
      t_budget = Campaign.Spec.Fixed_t 1;
      inputs = Campaign.Spec.Random_vertices;
      adversary = Campaign.Spec.Passive;
      faults = Campaign.Spec.Chaos { intensity = 1.0 };
      watchdogs = true;
      repetitions = 6;
      base_seed = 7;
    }
  in
  let r = Campaign.run ~workers:2 spec in
  let statuses =
    Array.map
      (fun (tr : Campaign.task_result) ->
        match tr.Campaign.result with
        | Ok o -> Runner.status_label o.Runner.status
        | Error e -> Alcotest.failf "task %d escaped as Error %s" tr.Campaign.task e)
      r.Campaign.results
  in
  check_int "all six cells report" 6 (Array.length statuses);
  let count l = Array.fold_left (fun a x -> a + if x = l then 1 else 0) 0 statuses in
  check "some cells time out" true (count "liveness-timeout" > 0);
  check "the other cells still complete" true (count "completed" > 0);
  check_int "no engine errors" 0 (count "engine-error");
  let agg = r.Campaign.aggregate in
  check_int "aggregate counts the timeouts" (count "liveness-timeout")
    agg.Campaign.timeouts;
  check_int "aggregate sees no engine errors" 0 agg.Campaign.engine_errors;
  check_int "timeouts are not violations" 0 agg.Campaign.violations;
  (* the JSONL stream records the bad cells as structured rows *)
  let jsonl = Campaign.jsonl_string r in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  check "JSONL carries liveness-timeout rows" true
    (contains {|"status":"liveness-timeout"|} jsonl);
  check "JSONL footer counts timeouts" true
    (contains {|"timeouts":|} jsonl)

(* ------------------------------------------------------------------ *)
(* Report.honest_inputs: the shared hull filter *)

let prop_honest_inputs_equiv =
  QCheck2.Test.make
    ~name:"Report.honest_inputs equals the reference List.mem filter"
    ~count:40
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 4 + Rng.int rng 8 in
      let t = Rng.int rng (((n - 1) / 3) + 1) in
      let tree = Generate.random rng (2 + Rng.int rng 15) in
      let inputs = Array.init n (fun _ -> Rng.int rng (Tree.n_vertices tree)) in
      let adversary =
        if t = 0 then Adversary.passive "none"
        else
          match Rng.int rng 3 with
          | 0 -> Adversary.passive "none"
          | 1 -> Strategies.random_silent ~count:t
          | _ -> Strategies.crash ~at_round:1 ~victims:(List.init t Fun.id)
      in
      let report = Tree_aa.run ~seed ~tree ~inputs ~t ~adversary () in
      let reference =
        let initially = Report.initially_corrupted report in
        Array.to_list (Array.mapi (fun i v -> (i, v)) inputs)
        |> List.filter_map (fun (i, v) ->
               if List.mem i initially then None else Some v)
      in
      Report.honest_inputs ~inputs report = reference)

(* Regression: Quick.agree's hull filter used to be List.mem per input
   (quadratic); with the bitset it must stay instant at n = 300. *)
let test_quick_agree_large_n () =
  let tree = Generate.path 10 in
  let n = 300 in
  let t = 99 in
  let inputs = Array.init n (fun i -> i mod 10) in
  let outcome =
    Quick.agree ~tree ~inputs ~t
      ~adversary:(Strategies.silent ~victims:(List.init t (fun i -> n - 1 - i)))
      ()
  in
  check "n=300 verdict ok" true (Verdict.all_ok outcome.verdict);
  check_int "n=300 honest outputs" (n - t) (List.length outcome.outputs)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "campaign"
    [
      ( "pool",
        [
          Alcotest.test_case "slot order" `Quick test_pool_order;
          Alcotest.test_case "edge cases" `Quick test_pool_edge_cases;
          Alcotest.test_case "deterministic exception" `Quick
            test_pool_exception;
        ] );
      ( "seeds",
        [
          Alcotest.test_case "task_seeds schedule" `Quick test_task_seeds;
          Alcotest.test_case "split_seed consistency" `Quick test_split_seed;
        ] );
      ( "runner",
        [
          Alcotest.test_case "tree-aa runner" `Quick test_runner_tree_aa;
          Alcotest.test_case "realaa runner" `Quick test_runner_real_aa;
        ] );
      ( "campaign",
        [
          QCheck_alcotest.to_alcotest prop_workers_invariant;
          QCheck_alcotest.to_alcotest prop_workers_invariant_chaos;
          QCheck_alcotest.to_alcotest prop_task_seeds_in_results;
          Alcotest.test_case "golden JSONL" `Quick test_golden_jsonl;
          Alcotest.test_case "JSONL round-trip" `Quick test_jsonl_roundtrip;
          Alcotest.test_case "spec validation" `Quick test_validate;
          Alcotest.test_case "one bad cell is contained" `Quick
            test_one_bad_cell;
        ] );
      ( "hull-filter",
        [
          QCheck_alcotest.to_alcotest prop_honest_inputs_equiv;
          Alcotest.test_case "Quick.agree at n=300" `Quick
            test_quick_agree_large_n;
        ] );
    ]

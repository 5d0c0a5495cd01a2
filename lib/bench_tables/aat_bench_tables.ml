(* The experiment tables of EXPERIMENTS.md (the quantitative claims of
   the paper - see DESIGN.md section 4), the BENCH_<NAME>.json codec and
   the drift checker. [bench/main.exe] and [treeaa bench check] are thin
   front ends over this module; see the interface for the contract. *)


open Treeagree

(* ------------------------------------------------------------------ *)
(* table rendering *)

type table = string * string list * string list list

(* Under --json-out every printed table is also captured here (in print
   order) and dumped as BENCH_<GROUP>.json after the group runs; the
   committed BENCH_*.json files at the repo root are regenerated this way.
   [quiet] additionally suppresses the printing — the drift checker
   regenerates groups for their bytes alone. *)
let capturing = ref false
let quiet = ref false
let captured : table list ref = ref []

let print_table ~title ~header rows =
  if !capturing then captured := (title, header, rows) :: !captured;
  if not !quiet then begin
    let all = header :: rows in
    let widths =
      List.fold_left
        (fun acc row ->
          List.mapi
            (fun i cell -> max (List.nth acc i) (String.length cell))
            row)
        (List.map (fun _ -> 0) header)
        all
    in
    let render row =
      String.concat "  "
        (List.mapi
           (fun i cell -> Printf.sprintf "%-*s" (List.nth widths i) cell)
           row)
    in
    Printf.printf "\n== %s ==\n" title;
    Printf.printf "%s\n" (render header);
    Printf.printf "%s\n" (String.make (String.length (render header)) '-');
    List.iter (fun row -> Printf.printf "%s\n" (render row)) rows;
    flush stdout
  end

let ok_of verdict = if Verdict.all_ok verdict then "ok" else "VIOLATED"

let f2 x = Printf.sprintf "%.2f" x

let sci x = Printf.sprintf "%.2e" x

(* hull inputs: initially-honest parties (adaptive corruption keeps the
   victim's input in the provable hull) *)
let honest_inputs_of inputs (report : (_, _) Engine.report) =
  Report.honest_inputs ~inputs report

(* ------------------------------------------------------------------ *)
(* E1: RealAA convergence and round complexity (Theorem 3, Lemma 5) *)

let lemma5_log2_bound ~n ~t ~r ~d =
  (* D * t^R / (R^R * (n - 2t)^R), in log2 *)
  Float.log2 d
  +. (float_of_int r
     *. (Float.log2 (float_of_int t)
        -. Float.log2 (float_of_int r)
        -. Float.log2 (float_of_int (n - (2 * t)))))

(* E1's cells ride the campaign Pool: each (n, t, D) cell is an
   independent task, so `--workers` spreads the grid over domains without
   changing a single digit of the table. *)
let realaa_runner ~n ~t ~d ~adversary =
  let inputs =
    Array.init n (fun i -> d *. float_of_int i /. float_of_int (n - 1))
  in
  let iterations = Rounds.bdh_iterations ~range:d ~eps:1. in
  (Runner.real_aa ~eps:1. ~inputs ~t ~iterations ~adversary (), iterations)

let table_e1 ?(workers = 1) () =
  let cells =
    List.concat_map
      (fun (n, t) -> List.map (fun d -> (n, t, d)) [ 1e2; 1e3; 1e4; 1e6 ])
      [ (4, 1); (7, 2); (10, 3); (16, 5) ]
  in
  let rows =
    Pool.map ~workers (List.length cells) (fun i ->
        let n, t, d = List.nth cells i in
        let passive, iterations =
          realaa_runner ~n ~t ~d ~adversary:(fun () -> Adversary.passive "none")
        in
        let o_passive = passive.Runner.run ~seed:1 () in
        let spoiler, _ =
          realaa_runner ~n ~t ~d ~adversary:(fun () ->
              Spoiler.realaa_spoiler ~t ~iterations)
        in
        let o_spoiler = spoiler.Runner.run ~seed:1 () in
        let spread_passive = Option.value o_passive.Runner.spread ~default:nan in
        let spread_spoiler = Option.value o_spoiler.Runner.spread ~default:nan in
        let bound = Float.pow 2. (lemma5_log2_bound ~n ~t ~r:iterations ~d) in
        [
          string_of_int n;
          string_of_int t;
          sci d;
          string_of_int iterations;
          string_of_int o_spoiler.Runner.rounds_used;
          string_of_int (Rounds.paper_round_bound ~range:d ~eps:1.);
          sci spread_passive;
          sci spread_spoiler;
          sci bound;
          (if
             spread_spoiler <= bound +. 1e-9
             && Runner.ok o_passive && Runner.ok o_spoiler
           then "ok"
           else "VIOLATED");
        ])
    |> Array.to_list
  in
  print_table
    ~title:
      "E1  RealAA (Thm 3 / Lemma 5): rounds vs schedule, spread vs bound \
       (spoiler adversary)"
    ~header:
      [ "n"; "t"; "D"; "iters"; "rounds"; "Thm3-bound"; "spread(none)";
        "spread(spoiler)"; "Lemma5-bound"; "check" ]
    rows;
  (* E1b: per-iteration convergence trace with the adversary able to split
     every iteration (R = t). With R > t some iteration is necessarily
     clean, the honest values collapse to one point and no later attack can
     revive the spread — which is why the long-schedule rows above end at
     spread 0. *)
  let n = 10 and t = 3 and d = 1e3 in
  let iterations = t in
  let inputs = Array.init n (fun i -> d *. float_of_int i /. float_of_int (n - 1)) in
  let report =
    Engine.run ~n ~t ~seed:1
      ~max_rounds:(3 * iterations)
      ~protocol:(Real_aa.protocol ~inputs:(fun i -> inputs.(i)) ~t ~iterations ())
      ~adversary:(Spoiler.realaa_spoiler ~t ~iterations)
      ()
  in
  let outputs = Report.honest_outputs report in
  let rows =
    List.init iterations (fun k ->
        let spread =
          Verdict.spread
            (List.map (fun (r : Real_aa.result) -> List.nth r.trajectory k) outputs)
        in
        [ string_of_int (k + 1); sci spread ])
  in
  print_table
    ~title:
      (Printf.sprintf
         "E1b RealAA spread per iteration, spoiler splitting every iteration \
          (n=%d t=%d D=%.0e, R=t)"
         n t d)
    ~header:[ "iteration"; "honest spread" ] rows;
  (* E1c: short schedules R <= t — the regime where Lemma 5's bound is
     nonzero; measured spread must stay below it. *)
  let cells =
    List.concat_map
      (fun (n, t) ->
        List.filter_map
          (fun r -> if r > t then None else Some (n, t, r))
          [ 1; 2; 3 ])
      [ (10, 3); (16, 5); (22, 7) ]
  in
  let rows =
    Pool.map ~workers (List.length cells) (fun i ->
        let n, t, r = List.nth cells i in
        let d = 1e3 in
        let inputs =
          Array.init n (fun i -> d *. float_of_int i /. float_of_int (n - 1))
        in
        let runner =
          Runner.real_aa ~eps:1. ~inputs ~t ~iterations:r
            ~adversary:(fun () -> Spoiler.realaa_spoiler ~t ~iterations:r)
            ()
        in
        let o = runner.Runner.run ~seed:1 () in
        let spread = Option.value o.Runner.spread ~default:nan in
        let bound = Float.pow 2. (lemma5_log2_bound ~n ~t ~r ~d) in
        [
          string_of_int n;
          string_of_int t;
          string_of_int r;
          sci spread;
          sci bound;
          (if spread <= bound +. 1e-9 then "ok" else "VIOLATED");
        ])
    |> Array.to_list
  in
  print_table
    ~title:
      "E1c RealAA partial executions (R <= t, D=1000): measured spread vs \
       Lemma 5's bound"
    ~header:[ "n"; "t"; "R"; "spread(spoiler)"; "Lemma5-bound"; "check" ]
    rows

(* ------------------------------------------------------------------ *)
(* E2: TreeAA round complexity across tree families (Theorem 4) *)

let tree_verdict_of tree inputs (report : (_, _) Engine.report) =
  let honest_inputs = honest_inputs_of inputs report in
  Tree_verdict.check ~tree
    ~n_honest:(Array.length inputs - List.length report.Report.corrupted)
    ~honest_inputs
    ~honest_outputs:(Report.honest_outputs report)

let table_e2 () =
  let n = 10 and t = 3 in
  let families =
    [
      ("path", Generate.path 10);
      ("path", Generate.path 100);
      ("path", Generate.path 1_000);
      ("path", Generate.path 10_000);
      ("path", Generate.path 100_000);
      ("star", Generate.star 1_000);
      ("caterpillar", Generate.caterpillar ~spine:500 ~legs:3);
      ("spider", Generate.spider ~legs:10 ~leg_length:100);
      ("balanced-2ary", Generate.balanced ~arity:2 ~depth:12);
      ("random", Generate.random (Rng.create 42) 5_000);
    ]
  in
  let rows =
    List.map
      (fun (family, tree) ->
        let nv = Tree.n_vertices tree in
        let d = Metrics.diameter tree in
        let rng = Rng.create 7 in
        let inputs = Array.init n (fun _ -> Rng.int rng nv) in
        let run adversary = Tree_aa.run ~tree ~inputs ~t ~adversary () in
        let r_passive = run (Adversary.passive "none") in
        let r_silent = run (Strategies.silent ~victims:[ 7; 8; 9 ]) in
        let r_spoiler = run (Campaign.tree_spoiler ~tree ~t) in
        let verdicts =
          Verdict.conj
            (tree_verdict_of tree inputs r_passive)
            (Verdict.conj
               (tree_verdict_of tree inputs r_silent)
               (tree_verdict_of tree inputs r_spoiler))
        in
        [
          family;
          string_of_int nv;
          string_of_int d;
          string_of_int r_passive.Report.rounds_used;
          string_of_int (Tree_aa.rounds ~tree);
          string_of_int
            (Rounds.paper_round_bound ~range:(2. *. float_of_int nv) ~eps:1.
            + Rounds.paper_round_bound ~range:(float_of_int (max 2 d)) ~eps:1.);
          string_of_int r_passive.Report.honest_messages;
          ok_of verdicts;
        ])
      families
  in
  print_table
    ~title:
      "E2  TreeAA (Thm 4): rounds vs |V| across families; verdicts under \
       {none, silent, spoiler}"
    ~header:
      [ "family"; "|V|"; "D(T)"; "rounds"; "schedule"; "Thm4-bound";
        "msgs(none)"; "AA(all advs)" ]
    rows

(* ------------------------------------------------------------------ *)
(* E3: the lower bound (Theorem 2 / Corollary 1) vs the upper bound *)

let table_e3 ?(workers = 1) () =
  (* Pure computation, but the (1000, 333) cells dominate the wall clock —
     worth fanning over the Pool like the measured tables. *)
  let cells =
    List.concat_map
      (fun (n, t) -> List.map (fun d -> (n, t, d)) [ 1e1; 1e3; 1e6; 1e9 ])
      [ (4, 1); (10, 3); (100, 33); (1000, 333) ]
  in
  let rows =
    Pool.map ~workers (List.length cells) (fun i ->
        let n, t, d = List.nth cells i in
        let lower = Fekete.min_rounds ~n ~t ~d ~eps:1. in
        let closed = Fekete.theorem2_closed_form ~n ~t ~d in
        let upper = Rounds.bdh_rounds ~range:d ~eps:1. in
        let parts = Fekete.optimal_partition ~t ~r:(max 1 lower) in
        [
          string_of_int n;
          string_of_int t;
          sci d;
          string_of_int lower;
          f2 closed;
          string_of_int upper;
          f2 (float_of_int upper /. float_of_int (max 1 lower));
          Printf.sprintf "[%s]" (String.concat ";" (List.map string_of_int parts));
          f2 (Fekete.chain_length ~n ~t ~r:(max 1 lower));
        ])
    |> Array.to_list
  in
  print_table
    ~title:
      "E3  Lower bound (Thm 2/Cor 1): minimal rounds with K(R,D)<=1 vs \
       TreeAA's RealAA schedule"
    ~header:
      [ "n"; "t"; "D"; "lower(R)"; "Thm2-form"; "upper(rounds)"; "gap";
        "optimal t_i"; "log2(chain)" ]
    rows

(* ------------------------------------------------------------------ *)
(* E4: TreeAA vs the O(log D) baseline [33] *)

let table_e4 () =
  let n = 10 and t = 3 in
  let schedule_rows =
    List.map
      (fun size ->
        let tree = Generate.path size in
        let d = Metrics.diameter tree in
        let tree_rounds = Tree_aa.rounds ~tree in
        let nr_rounds = Nr_baseline.rounds ~tree in
        [
          string_of_int size;
          string_of_int d;
          string_of_int nr_rounds;
          string_of_int tree_rounds;
          f2 (float_of_int nr_rounds /. float_of_int tree_rounds);
        ])
      [ 100; 1_000; 10_000; 100_000; 1_000_000 ]
  in
  print_table
    ~title:"E4a TreeAA vs NR-style baseline: fixed schedules on paths"
    ~header:[ "|V|=D+1"; "D"; "NR rounds"; "TreeAA rounds"; "speedup" ]
    schedule_rows;
  let measured_rows =
    List.concat_map
      (fun (family, tree) ->
        let nv = Tree.n_vertices tree in
        let rng = Rng.create 11 in
        let inputs = Array.init n (fun _ -> Rng.int rng nv) in
        let r_tree =
          Tree_aa.run ~tree ~inputs ~t ~adversary:(Campaign.tree_spoiler ~tree ~t) ()
        in
        let r_nr =
          Nr_baseline.run ~tree ~inputs ~t
            ~adversary:(Strategies.silent ~victims:[ 7; 8; 9 ])
            ()
        in
        [
          [
            family ^ "/TreeAA";
            string_of_int nv;
            string_of_int r_tree.Report.rounds_used;
            ok_of (tree_verdict_of tree inputs r_tree);
          ];
          [
            family ^ "/NR";
            string_of_int nv;
            string_of_int r_nr.Report.rounds_used;
            ok_of (tree_verdict_of tree inputs r_nr);
          ];
        ])
      [
        ("path-100", Generate.path 100);
        ("path-2000", Generate.path 2_000);
        ("caterpillar", Generate.caterpillar ~spine:300 ~legs:2);
      ]
  in
  print_table ~title:"E4b measured executions (both protocols, Byzantine runs)"
    ~header:[ "protocol"; "|V|"; "rounds"; "AA" ]
    measured_rows

(* ------------------------------------------------------------------ *)
(* E5: the executable one-round chain (Theorem 1's inductive core) *)

let table_e5 () =
  let rows =
    List.map
      (fun (n, t) ->
        let d = 1000. in
        let f view = Option.get (Trim.trimmed_midpoint ~t (Array.to_list view)) in
        let gap = Chain.max_adjacent_gap ~f ~n ~t ~a:0. ~b:d in
        let fekete = d *. float_of_int t /. float_of_int (n + t) in
        let chain_bound = d /. float_of_int ((n + t - 1) / t) in
        [
          string_of_int n;
          string_of_int t;
          f2 gap;
          f2 chain_bound;
          f2 fekete;
          (if gap >= chain_bound -. 1e-6 then "ok" else "VIOLATED");
        ])
      [ (4, 1); (7, 2); (10, 3); (16, 5); (31, 10) ]
  in
  print_table
    ~title:
      "E5  One-round chain vs trimmed-midpoint rule (D=1000): measured gap \
       >= D/ceil(n/t) ~ K(1,D)"
    ~header:[ "n"; "t"; "measured gap"; "chain bound"; "K(1,D)"; "check" ]
    rows

(* ------------------------------------------------------------------ *)
(* E6: the resilience boundary t < n/3 *)

let table_e6 () =
  let rows =
    List.concat_map
      (fun t ->
        List.map
          (fun n ->
            let tree = Generate.path 200 in
            let rng = Rng.create 3 in
            let inputs = Array.init n (fun _ -> Rng.int rng 200) in
            let barrier = max 1 (Paths_finder.rounds ~tree) in
            let adversary =
              Compose_adversary.phased ~name:"wedge-both" ~barrier
                ~first:(Wedge.gradecast_wedge ())
                ~second:(Wedge.gradecast_wedge ())
            in
            let report = Tree_aa.run ~tree ~inputs ~t ~adversary () in
            let verdict = tree_verdict_of tree inputs report in
            let expected = if n > 3 * t then "AA holds" else "attack succeeds" in
            let observed =
              if Verdict.all_ok verdict then "AA holds" else "attack succeeds"
            in
            [
              string_of_int n;
              string_of_int t;
              (if n > 3 * t then "t < n/3" else "t >= n/3");
              observed;
              (if expected = observed then "as predicted" else "UNEXPECTED");
            ])
          [ 3 * t; (3 * t) + 1 ])
      [ 1; 2; 3 ]
  in
  print_table
    ~title:
      "E6  Resilience boundary: gradecast wedge vs TreeAA at n = 3t and 3t+1"
    ~header:[ "n"; "t"; "regime"; "outcome"; "check" ]
    rows

(* ------------------------------------------------------------------ *)
(* E7: exhaustive Lemma 2 / Lemma 3 verification on small trees *)

let table_e7 () =
  let lemma2_checked = ref 0 and lemma2_violations = ref 0 in
  let lemma3_checked = ref 0 and lemma3_violations = ref 0 in
  let check_tree tree =
    let rooted = Rooted.make tree in
    let tour = Euler_tour.compute rooted in
    let nv = Tree.n_vertices tree in
    let len = Euler_tour.length tour in
    (* Lemma 2 *)
    incr lemma2_checked;
    let prop1 =
      nv = 1
      || List.for_all
           (fun i ->
             Tree.adjacent tree (Euler_tour.vertex_at tour i)
               (Euler_tour.vertex_at tour (i + 1)))
           (List.init (len - 1) Fun.id)
    in
    let prop2 =
      len <= 2 * nv
      && List.for_all
           (fun v -> Euler_tour.occurrences tour v <> [])
           (Tree.vertices tree)
    in
    let prop3 =
      List.for_all
        (fun v ->
          let imin = Euler_tour.first_occurrence tour v in
          let imax = Euler_tour.last_occurrence tour v in
          List.for_all
            (fun u ->
              let inside =
                List.for_all
                  (fun i -> imin <= i && i <= imax)
                  (Euler_tour.occurrences tour u)
              in
              inside = Rooted.in_subtree rooted ~root_of:v u)
            (Tree.vertices tree))
        (Tree.vertices tree)
    in
    if not (prop1 && prop2 && prop3) then incr lemma2_violations;
    (* Lemma 3, over all pairs S = {u, w} *)
    List.iter
      (fun u ->
        List.iter
          (fun w ->
            if u <= w then begin
              incr lemma3_checked;
              let s = [ u; w ] in
              let hull = Convex_hull.compute rooted s in
              let imin =
                min
                  (Euler_tour.first_occurrence tour u)
                  (Euler_tour.first_occurrence tour w)
              in
              let imax =
                max
                  (Euler_tour.last_occurrence tour u)
                  (Euler_tour.last_occurrence tour w)
              in
              let ok = ref true in
              for i = imin to imax do
                let target = Euler_tour.vertex_at tour i in
                let path = Rooted.path_to_root rooted target in
                if not (List.exists (Convex_hull.mem hull) path) then ok := false
              done;
              if not !ok then incr lemma3_violations
            end)
          (Tree.vertices tree))
      (Tree.vertices tree)
  in
  for n = 1 to 7 do
    Prufer.enumerate ~n
    |> Seq.iter (fun edges ->
           let labels = Generate.labels_of_size n in
           let tree =
             if n = 1 then Tree.singleton labels.(0)
             else
               Tree.of_labeled_edges
                 (List.map (fun (u, v) -> (labels.(u), labels.(v))) edges)
           in
           check_tree tree)
  done;
  (* plus random large trees *)
  let rng = Rng.create 2024 in
  for _ = 1 to 50 do
    check_tree (Generate.random rng (50 + Rng.int rng 150))
  done;
  print_table
    ~title:
      "E7  Exhaustive Lemma 2 + Lemma 3 verification (all trees n<=7, 50 \
       random large)"
    ~header:[ "property"; "instances checked"; "violations" ]
    [
      [
        "Lemma 2 (list construction)";
        string_of_int !lemma2_checked;
        string_of_int !lemma2_violations;
      ];
      [
        "Lemma 3 (root-path intersects hull)";
        string_of_int !lemma3_checked;
        string_of_int !lemma3_violations;
      ];
    ]

(* ------------------------------------------------------------------ *)
(* E8: early-stopping RealAA — adaptive vs fixed rounds *)

let table_e8 () =
  let n = 10 and t = 3 in
  let rows =
    List.concat_map
      (fun d ->
        let values =
          Array.init n (fun i -> d *. float_of_int i /. float_of_int (n - 1))
        in
        let max_iterations = Rounds.bdh_iterations ~range:d ~eps:1. in
        let run name adversary =
          let report =
            Engine.run ~n ~t ~seed:1
              ~max_rounds:(3 * max_iterations)
              ~protocol:
                (Early_real_aa.protocol
                   ~inputs:(fun i -> values.(i))
                   ~t ~eps:1. ~max_iterations)
              ~adversary ()
          in
          let outputs = Report.honest_outputs report in
          let honest_inputs = honest_inputs_of values report in
          let verdict =
            Verdict.real ~eps:1.
              ~n_honest:(n - List.length report.Report.corrupted)
              ~honest_inputs
              ~honest_outputs:
                (List.map (fun (r : Early_real_aa.result) -> r.value) outputs)
          in
          let decision_rounds = List.map snd report.Report.termination_rounds in
          [
            sci d;
            name;
            string_of_int (List.fold_left min max_int decision_rounds);
            string_of_int report.Report.rounds_used;
            string_of_int (3 * max_iterations);
            ok_of verdict;
          ]
        in
        [
          run "none" (Adversary.passive "none");
          run "silent" (Strategies.silent ~victims:[ 8; 9 ]);
          run "spoiler"
            (Spoiler.early_stopping_spoiler ~t ~iterations:max_iterations);
        ])
      [ 1e2; 1e4; 1e6; 1e9 ]
  in
  print_table
    ~title:
      "E8  Early-stopping RealAA ([6]'s observation rule): adaptive rounds \
       vs the fixed Theorem 3 schedule (n=10, t=3)"
    ~header:
      [ "D"; "adversary"; "first decision"; "last decision"; "fixed schedule";
        "AA" ]
    rows

(* ------------------------------------------------------------------ *)
(* E9: the asynchronous model — Bracha-based iterated tree AA ([33], the
   actual prior art) vs synchronous TreeAA *)

let table_e9 () =
  let n = 7 and t = 2 in
  let rows =
    List.concat_map
      (fun (family, tree) ->
        let nv = Tree.n_vertices tree in
        let rng = Rng.create 5 in
        let inputs = Array.init n (fun _ -> Rng.int rng nv) in
        let iterations = Nr_baseline.iterations_for tree in
        List.map
          (fun (sched_name, scheduler) ->
            let report =
              Async_engine.run ~n ~t ~seed:3 ~max_events:2_000_000
                ~reactor:
                  (Async_aa.tree ~tree
                     ~inputs:(fun i -> inputs.(i))
                     ~t ~iterations)
                ~adversary:(Async_engine.passive ~scheduler "none")
                ()
            in
            let honest_inputs =
              Array.to_list inputs
              |> List.filteri (fun i _ ->
                     not (List.mem i report.Report.corrupted))
            in
            let verdict =
              Tree_verdict.check ~tree ~n_honest:(List.length honest_inputs)
                ~honest_inputs
                ~honest_outputs:
                  (List.map
                     (fun (_, (r : Tree.vertex Async_aa.result)) -> r.value)
                     report.Report.outputs)
            in
            [
              family;
              string_of_int nv;
              sched_name;
              string_of_int iterations;
              string_of_int report.Report.rounds_used;
              string_of_int report.Report.honest_messages;
              string_of_int (Tree_aa.rounds ~tree);
              ok_of verdict;
            ])
          [ ("fifo", Async_engine.Fifo); ("random", Async_engine.Random_order) ])
      [
        ("path-100", Generate.path 100);
        ("path-1000", Generate.path 1_000);
        ("star-200", Generate.star 200);
        ("random-300", Generate.random (Rng.create 12) 300);
      ]
  in
  print_table
    ~title:
      "E9  Asynchronous tree AA ([33]-style, Bracha RBC + witnesses) vs the \
       synchronous TreeAA schedule (n=7, t=2)"
    ~header:
      [ "tree"; "|V|"; "scheduler"; "async iters"; "events"; "messages";
        "sync TreeAA rounds"; "AA" ]
    rows

(* ------------------------------------------------------------------ *)
(* E10: message complexity — RealAA sends Theta(R n^2) messages ([6]
   reduces Fekete's O(n^R) to polynomial), TreeAA twice that *)

let table_e10 () =
  let d = 1e4 in
  let rows =
    List.map
      (fun (n, t) ->
        let inputs =
          Array.init n (fun i -> d *. float_of_int i /. float_of_int (n - 1))
        in
        let iterations = Rounds.bdh_iterations ~range:d ~eps:1. in
        let report =
          Engine.run ~n ~t ~seed:1
            ~max_rounds:(3 * iterations)
            ~protocol:
              (Real_aa.protocol ~inputs:(fun i -> inputs.(i)) ~t ~iterations ())
            ~adversary:(Adversary.passive "none")
            ()
        in
        let rounds = report.Report.rounds_used in
        let msgs = report.Report.honest_messages in
        let tree = Generate.path (int_of_float d + 1) in
        let vertex_inputs = Array.init n (fun i -> (i * 1013) mod (int_of_float d + 1)) in
        let tree_report =
          Tree_aa.run ~tree ~inputs:vertex_inputs ~t
            ~adversary:(Adversary.passive "none") ()
        in
        [
          string_of_int n;
          string_of_int t;
          string_of_int rounds;
          string_of_int msgs;
          f2 (float_of_int msgs /. float_of_int (rounds * n * n));
          string_of_int tree_report.Report.rounds_used;
          string_of_int tree_report.Report.honest_messages;
          f2
            (float_of_int tree_report.Report.honest_messages
            /. float_of_int (tree_report.Report.rounds_used * n * n));
        ])
      [ (4, 1); (7, 2); (10, 3); (13, 4); (16, 5); (31, 10) ]
  in
  print_table
    ~title:
      "E10 Message complexity (fault-free, D=1e4): one message per pair per \
       round — Theta(R n^2) total, vs [19]'s O(n^R)"
    ~header:
      [ "n"; "t"; "RealAA rounds"; "msgs"; "msgs/(R n^2)"; "TreeAA rounds";
        "msgs"; "msgs/(R n^2)" ]
    rows

(* ------------------------------------------------------------------ *)
(* E-chaos: fault intensity x protocol -> outcome / violation / excusal
   rates. Each cell is a chaos-mode campaign (random fault plan per task,
   watchdogs on); the point is the taxonomy, not the numbers: in-model
   failures surface as violations, out-of-model ones as excusals or
   liveness timeouts, and nothing ever escapes as an exception. *)

let table_echaos ?(workers = 1) ?(distributed = false) () =
  let reps = 12 in
  let protocols =
    [
      ("tree-aa", Campaign.Spec.Tree_aa, Campaign.Spec.Any_tree_adversary, true);
      ("nr-baseline", Campaign.Spec.Nr_baseline, Campaign.Spec.Random_silent, true);
      ("realaa", Campaign.Spec.Real_aa { eps = 1. }, Campaign.Spec.Any_real_adversary, false);
      ("async-tree-aa", Campaign.Spec.Async_tree_aa, Campaign.Spec.Passive, true);
    ]
  in
  let intensities = [ 0.0; 0.25; 0.5; 1.0 ] in
  let cells =
    List.concat_map
      (fun p -> List.map (fun i -> (p, i)) intensities)
      protocols
  in
  let rows =
    List.mapi
      (fun idx ((name, protocol, adversary, vertex_inputs), intensity) ->
        let spec =
          {
            Campaign.Spec.name;
            protocol;
            tree = Campaign.Spec.Random_tree (Campaign.Spec.Between (2, 31));
            n =
              (if name = "async-tree-aa" then Campaign.Spec.Exactly 7
               else Campaign.Spec.Between (4, 10));
            t_budget =
              (if name = "async-tree-aa" then Campaign.Spec.Fixed_t 2
               else Campaign.Spec.Up_to_third);
            inputs =
              (if vertex_inputs then Campaign.Spec.Random_vertices
               else
                 Campaign.Spec.Log_uniform_reals
                   { log10_min = 1.; log10_max = 4. });
            adversary;
            faults =
              (if intensity = 0. then Campaign.Spec.No_faults
               else Campaign.Spec.Chaos { intensity });
            watchdogs = true;
            repetitions = reps;
            base_seed = 1000 + idx;
          }
        in
        (* --distributed routes each cell campaign through the
           multi-process service; its determinism contract keeps every
           digit of the table identical. The "ok" column comes from the
           outcome JSON's "ok" field — the wire image of [Runner.ok]. *)
        let agg, ok =
          if distributed then (
            match Service.run ~workers spec with
            | Error e ->
                Printf.eprintf "E-CHAOS: campaign service failed: %s\n" e;
                exit 1
            | Ok r ->
                ( r.Service.aggregate,
                  Array.fold_left
                    (fun acc cell ->
                      match cell with
                      | Some (Ok j)
                        when Telemetry.Json.member "ok" j
                             = Some (Telemetry.Json.Bool true) ->
                          acc + 1
                      | _ -> acc)
                    0 r.Service.cells ))
          else
            let result = Campaign.run ~workers spec in
            ( result.Campaign.aggregate,
              Array.fold_left
                (fun acc (tr : Campaign.task_result) ->
                  match tr.Campaign.result with
                  | Ok o when Runner.ok o -> acc + 1
                  | _ -> acc)
                0 result.Campaign.results )
        in
        [
          name;
          f2 intensity;
          string_of_int agg.Campaign.tasks;
          string_of_int ok;
          string_of_int agg.Campaign.excused;
          string_of_int agg.Campaign.timeouts;
          string_of_int agg.Campaign.violations;
          string_of_int agg.Campaign.engine_errors;
          (if agg.Campaign.violations = 0 && agg.Campaign.engine_errors = 0
           then "ok"
           else "VIOLATED");
        ])
      cells
  in
  print_table
    ~title:
      "E-chaos  Fault-plan grid: chaos intensity x protocol -> structured \
       outcome rates (violations must stay 0)"
    ~header:
      [ "protocol"; "intensity"; "runs"; "ok"; "excused"; "timeouts";
        "violations"; "engine-errors"; "check" ]
    rows

(* ------------------------------------------------------------------ *)
(* A1-A3: ablations of RealAA's design choices (DESIGN.md section 7) *)

let table_ablations () =
  let run ~knobs ~n ~t ~d ~adversary =
    let inputs =
      Array.init n (fun i -> d *. float_of_int i /. float_of_int (n - 1))
    in
    let iterations = Rounds.bdh_iterations ~range:d ~eps:1. in
    let report =
      Engine.run ~n ~t ~seed:1
        ~max_rounds:(3 * iterations)
        ~protocol:
          (Real_aa.protocol ~knobs ~inputs:(fun i -> inputs.(i)) ~t ~iterations ())
        ~adversary ()
    in
    Verdict.spread
      (List.map
         (fun (r : Real_aa.result) -> r.value)
         (Report.honest_outputs report))
  in
  let faithful = Real_aa.faithful in
  let agreement spread =
    if spread <= 1. then "1-agreement ok" else "AGREEMENT BROKEN"
  in
  (* A1: blacklisting off, relentless splitting — every iteration diverges,
     blowing through the Lemma 5 envelope. *)
  let a1 =
    let n = 4 and t = 1 and d = 1e6 in
    let iterations = Rounds.bdh_iterations ~range:d ~eps:1. in
    let adversary () = Spoiler.relentless_spoiler ~t ~iterations in
    let bound = Float.pow 2. (lemma5_log2_bound ~n ~t ~r:iterations ~d) in
    let vs_bound s =
      if s <= bound +. 1e-9 then "within Lemma 5"
      else Printf.sprintf "EXCEEDS Lemma 5 bound %s" (sci bound)
    in
    let s_faithful = run ~knobs:faithful ~n ~t ~d ~adversary:(adversary ()) in
    let s_ablated =
      run
        ~knobs:{ faithful with blacklist = false }
        ~n ~t ~d ~adversary:(adversary ())
    in
    [
      [ "A1 no blacklisting"; "faithful"; Printf.sprintf "n=%d t=%d D=%.0e" n t d;
        sci s_faithful; vs_bound s_faithful ];
      [ "A1 no blacklisting"; "ablated"; Printf.sprintf "n=%d t=%d D=%.0e" n t d;
        sci s_ablated; vs_bound s_ablated ];
    ]
  in
  (* A2: min-max midpoint vs mean, both with the window already weakened by
     a fixed trim: one split then costs half the window and 1-Agreement
     itself falls. (With the adaptive trim the window never shrinks and the
     midpoint's endpoint-shift is neutralised — the knobs compound.) *)
  let a2 =
    let n = 16 and t = 5 and d = 1e3 in
    let iterations = Rounds.bdh_iterations ~range:d ~eps:1. in
    let adversary () = Spoiler.realaa_spoiler ~t ~iterations in
    let s_mean =
      run
        ~knobs:{ faithful with adaptive_trim = false }
        ~n ~t ~d ~adversary:(adversary ())
    in
    let s_midpoint =
      run
        ~knobs:
          { faithful with adaptive_trim = false; averaging = Real_aa.Midpoint }
        ~n ~t ~d ~adversary:(adversary ())
    in
    [
      [ "A2 midpoint averaging"; "mean (fixed trim)";
        Printf.sprintf "n=%d t=%d D=%.0e" n t d; sci s_mean; agreement s_mean ];
      [ "A2 midpoint averaging"; "midpoint (fixed trim)";
        Printf.sprintf "n=%d t=%d D=%.0e" n t d; sci s_midpoint;
        agreement s_midpoint ];
    ]
  in
  (* A3: fixed trim t — blacklisted parties shrink the averaging window and
     planted values regain leverage; the Lemma 5 envelope is exceeded even
     where eps-agreement survives. *)
  let a3 =
    let n = 16 and t = 5 and d = 1e2 in
    let iterations = Rounds.bdh_iterations ~range:d ~eps:1. in
    let adversary () = Spoiler.realaa_spoiler ~t ~iterations in
    let bound = Float.pow 2. (lemma5_log2_bound ~n ~t ~r:iterations ~d) in
    let s_faithful = run ~knobs:faithful ~n ~t ~d ~adversary:(adversary ()) in
    let s_ablated =
      run
        ~knobs:{ faithful with adaptive_trim = false }
        ~n ~t ~d ~adversary:(adversary ())
    in
    let vs_bound s =
      if s <= bound +. 1e-9 then "within Lemma 5"
      else Printf.sprintf "EXCEEDS Lemma 5 bound %s" (sci bound)
    in
    [
      [ "A3 fixed trim"; "faithful"; Printf.sprintf "n=%d t=%d D=%.0e" n t d;
        sci s_faithful; vs_bound s_faithful ];
      [ "A3 fixed trim"; "ablated"; Printf.sprintf "n=%d t=%d D=%.0e" n t d;
        sci s_ablated; vs_bound s_ablated ];
    ]
  in
  print_table
    ~title:
      "A1-A3  Ablations: each RealAA design choice, on vs off, under the \
       matching attack"
    ~header:[ "ablation"; "variant"; "parameters"; "final spread"; "outcome" ]
    (a1 @ a2 @ a3)

(* ------------------------------------------------------------------ *)
(* GAP — adversary synthesis against the Fekete lower bound. One small
   (mu+lambda) search per default target (seed 1); the champion's measured
   spread sits next to K(R, D), and the champion's flight record is
   replayed on the spot — "clean" in the replay column is bit-identity
   evidence. The search is bit-identical for any --workers, so the
   committed BENCH_GAP.json regenerates exactly. *)

let table_gap ~workers () =
  let config =
    {
      Synth.driver = Synth.Mu_plus_lambda;
      generations = 3;
      population = 6;
      seed = 1;
      workers;
    }
  in
  let rows =
    List.map
      (fun (target : Synth.target) ->
        let r = Synth.search config target in
        let replay_check =
          match Replay.run r.Synth.champion.Synth.record with
          | Error e -> "error: " ^ e
          | Ok replay -> (
              match replay.Replay.verdict with
              | Ok () -> "clean"
              | Error _ -> "DIVERGED")
        in
        [
          target.Synth.label;
          string_of_int target.Synth.n;
          string_of_int target.Synth.t;
          Printf.sprintf "%g" target.Synth.d;
          string_of_int target.Synth.rounds;
          Genome.to_string r.Synth.champion.Synth.genome;
          Verdict.graded_label r.Synth.champion.Synth.outcome.Runner.grade;
          Printf.sprintf "%.4g" r.Synth.gap.Synth.measured;
          Printf.sprintf "%.4g" r.Synth.gap.Synth.k_theory;
          Printf.sprintf "%.4g" r.Synth.gap.Synth.ratio;
          (if r.Synth.gap.Synth.sound then "yes" else "NO");
          replay_check;
        ])
      (Synth.default_targets ())
  in
  print_table
    ~title:
      "GAP synthesized worst case vs. Fekete lower bound ((mu+lambda), 3 \
       generations x 6, seed 1)"
    ~header:
      [
        "target";
        "n";
        "t";
        "D";
        "R";
        "champion";
        "grade";
        "spread";
        "K(R,D)";
        "ratio";
        "sound";
        "replay";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* SCALE — transport-core scaling after the flat-array mailbox rewrite.
   Its columns (rounds, messages, bytes/round) are deterministic functions
   of the run, so BENCH_SCALE.json regenerates exactly on any machine and
   is drift-gated in CI. Wall-clock throughput is the cost ledger's job
   (perfbench's scale-* workloads). *)

let table_scale () =
  let byte_sink bytes =
    (* a live (non-null) sink that only accumulates the byte counters *)
    {
      Telemetry.Sink.on_start = ignore;
      on_round =
        (fun (e : Telemetry.event) ->
          bytes := !bytes + e.Telemetry.honest_bytes + e.Telemetry.adversary_bytes);
      on_stop = ignore;
    }
  in
  let det = ref [] in
  let emit ~label ~n ~t ~rounds ~msgs ~bytes =
    det :=
      [
        label;
        string_of_int n;
        string_of_int t;
        string_of_int rounds;
        string_of_int msgs;
        string_of_int (bytes / max 1 rounds);
      ]
      :: !det
  in
  let tree_row label tree ~n =
    let t = (n - 1) / 3 in
    let rng = Rng.create 11 in
    let nv = Tree.n_vertices tree in
    let inputs = Array.init n (fun _ -> Rng.int rng nv) in
    let bytes = ref 0 in
    let report =
      Tree_aa.run ~tree ~inputs ~t ~seed:3 ~telemetry:(byte_sink bytes)
        ~adversary:(Adversary.passive "none")
        ()
    in
    emit ~label:("tree-aa/" ^ label) ~n ~t
      ~rounds:report.Report.rounds_used ~msgs:report.Report.honest_messages
      ~bytes:!bytes
  in
  let midpoint_row ~n =
    let t = (n - 1) / 3 in
    let inputs =
      Array.init n (fun i -> float_of_int i /. float_of_int n *. 1000.)
    in
    let bytes = ref 0 in
    let report =
      Iterated_midpoint.run_naive ~seed:3 ~telemetry:(byte_sink bytes)
        ~inputs ~t ~iterations:10
        ~adversary:(Adversary.passive "none")
        ()
    in
    emit ~label:"midpoint-naive" ~n ~t ~rounds:report.Report.rounds_used
      ~msgs:report.Report.honest_messages ~bytes:!bytes
  in
  (* Full tree-aa (gradecast transport, Θ(n²) letters of Θ(n) payload per
     round) to n = 300; a degenerate single-vertex tree carries the
     benign n = 10⁴ completion row (the engine still spins up all 10⁴
     parties); the naive midpoint protocol (n² scalar letters per round)
     stresses raw transport to n = 3000. *)
  tree_row "star-9" (Generate.star 9) ~n:100;
  tree_row "star-9" (Generate.star 9) ~n:300;
  tree_row "trivial-1" (Generate.path 1) ~n:10_000;
  midpoint_row ~n:1_000;
  midpoint_row ~n:3_000;
  print_table
    ~title:
      "SCALE transport scaling (deterministic columns only — drift-gated)"
    ~header:[ "protocol"; "n"; "t"; "rounds"; "honest msgs"; "bytes/round" ]
    (List.rev !det)

(* ------------------------------------------------------------------ *)

let tables ~workers ~distributed =
  [
    ("E1", fun () -> table_e1 ~workers ());
    ("E2", table_e2);
    ("E3", fun () -> table_e3 ~workers ());
    ("E4", table_e4);
    ("E5", table_e5);
    ("E6", table_e6);
    ("E7", table_e7);
    ("E8", table_e8);
    ("E9", table_e9);
    ("E10", table_e10);
    ("E-CHAOS", fun () -> table_echaos ~workers ~distributed ());
    ("A", table_ablations);
    ("GAP", fun () -> table_gap ~workers ());
    ("SCALE", table_scale);
  ]

(* ------------------------------------------------------------------ *)
(* the BENCH_<NAME>.json codec and the drift checker *)

let run_captured ~capture f =
  captured := [];
  capturing := capture;
  Fun.protect ~finally:(fun () -> capturing := false) f;
  let out = List.rev !captured in
  captured := [];
  out

(* One table group as BENCH_<NAME>.json: the captured tables verbatim.
   Stable field order, tables in print order, so regenerated files diff
   cleanly. *)
let group_json ~name tables_captured =
  let module Json = Telemetry.Json in
  let str_row row = Json.Arr (List.map (fun c -> Json.Str c) row) in
  Json.Obj
    [
      ("schema", Json.Str "treeagree-bench/v1");
      ("format_version", Json.Str Telemetry.format_version_string);
      ("table", Json.Str name);
      ( "tables",
        Json.Arr
          (List.map
             (fun (title, header, rows) ->
               Json.Obj
                 [
                   ("title", Json.Str title);
                   ("header", str_row header);
                   ("rows", Json.Arr (List.map str_row rows));
                 ])
             tables_captured) );
    ]

let render_group ~name tables_captured =
  Telemetry.Json.to_string (group_json ~name tables_captured) ^ "\n"

type drift = {
  path : string;
  table : string option;
  verdict : [ `Match | `Drift of string | `Error of string ];
}

let read_file path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          try Ok (really_input_string ic (in_channel_length ic))
          with End_of_file | Sys_error _ -> Error (path ^ ": short read"))

let first_difference a b =
  let n = min (String.length a) (String.length b) in
  let rec go i = if i < n && a.[i] = b.[i] then go (i + 1) else i in
  go 0

let check_files ?(distributed = false) ~workers paths =
  let groups = tables ~workers ~distributed in
  List.map
    (fun path ->
      match read_file path with
      | Error e -> { path; table = None; verdict = `Error e }
      | Ok bytes -> (
          match Telemetry.Json.of_string (String.trim bytes) with
          | Error e ->
              { path; table = None; verdict = `Error ("unparseable: " ^ e) }
          | Ok json -> (
              match
                Option.bind
                  (Telemetry.Json.member "table" json)
                  Telemetry.Json.to_str
              with
              | None ->
                  {
                    path;
                    table = None;
                    verdict = `Error "no \"table\" field";
                  }
              | Some name -> (
                  match List.assoc_opt name groups with
                  | None ->
                      {
                        path;
                        table = Some name;
                        verdict = `Error ("unknown table group " ^ name);
                      }
                  | Some f ->
                      quiet := true;
                      let regen =
                        Fun.protect
                          ~finally:(fun () -> quiet := false)
                          (fun () -> run_captured ~capture:true f)
                      in
                      let expected = render_group ~name regen in
                      if String.equal expected bytes then
                        { path; table = Some name; verdict = `Match }
                      else
                        let detail =
                          Printf.sprintf
                            "committed %d bytes, regenerated %d; first \
                             difference at byte %d"
                            (String.length bytes) (String.length expected)
                            (first_difference bytes expected)
                        in
                        { path; table = Some name; verdict = `Drift detail }))))
    paths

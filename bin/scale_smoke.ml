(* One n = 2000 engine run under injected faults, on the protocol whose
   cost is pure transport: the naive iterated-midpoint (O(1) float
   payloads, n² letters per round). Every campaign-exposed protocol
   distributes values by gradecast, whose Θ(n)-array payloads and Θ(n²)
   per-party plurality scans swamp the transport at this size — fine for
   the protocols, useless as a transport smoke. So this driver goes to
   the engine directly: a passive adversary, a seeded omission + crash
   plan compiled onto the mailbox, and the structural checks a lossy
   plan still owes us (termination inside the round budget, outputs
   inside the honest input hull, crash accounting). Exits non-zero on
   any violation; `dune build @scale-smoke` runs it. *)

open Treeagree

let () =
  let n = 2_000 and t = 600 and iterations = 12 and seed = 11 in
  let inputs =
    Array.init n (fun i -> float_of_int i /. float_of_int n *. 1000.)
  in
  let plan =
    match Fault_plan_io.parse "omission:0.001;crash:3@2;crash:5@4" with
    | Ok p -> p
    | Error e -> failwith e
  in
  let report =
    Engine.run ~n ~t ~seed ~max_rounds:iterations
      ~fault_filter:(Fault_inject.filter ~engine:`Sync ~seed plan)
      ~crash_faults:(Fault_inject.crashes plan)
      ~protocol:
        (Iterated_midpoint.naive ~inputs:(fun i -> inputs.(i)) ~t ~iterations)
      ~adversary:(Adversary.passive "none")
      ()
  in
  let values =
    List.map (fun (_, r) -> r.Iterated_midpoint.value) report.Report.outputs
  in
  let spread =
    List.fold_left Float.max neg_infinity values
    -. List.fold_left Float.min infinity values
  in
  let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt in
  if report.Report.rounds_used > iterations then
    fail "rounds_used %d > budget %d" report.Report.rounds_used iterations;
  let crashed = List.length report.Report.corrupted in
  if crashed <> 2 then fail "expected 2 crashed parties, saw %d" crashed;
  if List.length values <> n - crashed then
    fail "only %d of %d honest parties decided" (List.length values)
      (n - crashed);
  List.iter
    (fun v ->
      if not (v >= 0. && v <= 1000.) then fail "output %g outside hull" v)
    values;
  if report.Report.fault_stats.Report.dropped = 0 then
    fail "omission plan dropped nothing — fault filter not applied";
  Printf.printf
    "scale smoke clean: n=%d rounds=%d msgs=%d dropped=%d crashed=%d \
     spread=%g\n"
    n report.Report.rounds_used report.Report.honest_messages
    report.Report.fault_stats.Report.dropped crashed spread

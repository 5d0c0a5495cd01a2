(* The traced run's instrumentation. Every span and timer is opened here,
   in benchmark code, around a call into one layer's public functions;
   nothing inside the library is traced. Off (the default) every wrapper
   is a plain call, and the untraced run never installs a wrapper at all.

   Two granularities share one accounting model:
   - [span] opens a Chrome trace-event span ({!Treeagree.Obs_span}) — for
     coarse layer calls (tree generation, a runner run, a verdict);
   - [timed] only accumulates — for the per-party calls an engine makes
     hundreds of thousands of times (protocol send/receive, adversary
     moves, reactor handlers), which would swamp a trace file.
   Both charge their duration and minor words to the innermost open span,
   so a span's self time is its duration minus everything its children
   (spans and timers) consumed. All times are read from
   [Service_clock.now] (CLOCK_MONOTONIC). *)

open Treeagree

let enabled = ref false
let tracer = ref Obs_span.null
let now = Service_clock.now

type stat = {
  mutable seconds : float;
  mutable self : float;
  mutable words : float;
  mutable self_words : float;
  mutable calls : int;
}

let stats : (string, stat) Hashtbl.t = Hashtbl.create 64
let counts : (string, float) Hashtbl.t = Hashtbl.create 64

let reset () =
  Hashtbl.reset stats;
  Hashtbl.reset counts

let stat name =
  match Hashtbl.find_opt stats name with
  | Some s -> s
  | None ->
      let s = { seconds = 0.; self = 0.; words = 0.; self_words = 0.; calls = 0 } in
      Hashtbl.replace stats name s;
      s

let count name = Option.value (Hashtbl.find_opt counts name) ~default:0.
let add name v = Hashtbl.replace counts name (count name +. v)

let record name ~dur ~words ~child_s ~child_w =
  let s = stat name in
  s.seconds <- s.seconds +. dur;
  s.self <- s.self +. dur -. child_s;
  s.words <- s.words +. words;
  s.self_words <- s.self_words +. words -. child_w;
  s.calls <- s.calls + 1

(* An open span and what its children have consumed so far. *)
type frame = {
  name : string;
  handle : Obs_span.span;
  t0 : float;
  w0 : float;
  mutable child_s : float;
  mutable child_w : float;
}

let stack : frame list ref = ref []

let charge ~dur ~words =
  match !stack with
  | f :: _ ->
      f.child_s <- f.child_s +. dur;
      f.child_w <- f.child_w +. words
  | [] -> ()

let enter name =
  let parent =
    match !stack with f :: _ -> Some (Obs_span.id f.handle) | [] -> None
  in
  let handle = Obs_span.enter !tracer ?parent ~cat:"layer" name in
  let f =
    { name; handle; t0 = now (); w0 = Gc.minor_words (); child_s = 0.; child_w = 0. }
  in
  stack := f :: !stack;
  f

let leave f =
  let dur = now () -. f.t0 and words = Gc.minor_words () -. f.w0 in
  if List.memq f !stack then begin
    (* a span a failing callee left open closes with its parent *)
    let rec pop = function
      | g :: rest when g != f ->
          Obs_span.close !tracer g.handle;
          pop rest
      | _ :: rest -> rest
      | [] -> []
    in
    stack := pop !stack;
    Obs_span.close !tracer f.handle;
    record f.name ~dur ~words ~child_s:f.child_s ~child_w:f.child_w;
    charge ~dur ~words
  end

let span name f =
  if not !enabled then f ()
  else
    let fr = enter name in
    match f () with
    | v ->
        leave fr;
        v
    | exception e ->
        leave fr;
        raise e

(* [also] books the same interval under a second name (the gradecast
   sub-round of a TreeAA call) without charging the parent twice. *)
let timed ?also name f =
  if not !enabled then f ()
  else begin
    let t0 = now () and w0 = Gc.minor_words () in
    let v = f () in
    let dur = now () -. t0 and words = Gc.minor_words () -. w0 in
    record name ~dur ~words ~child_s:0. ~child_w:0.;
    Option.iter (fun n -> record n ~dur ~words ~child_s:0. ~child_w:0.) also;
    charge ~dur ~words;
    v
  end

(* The engine span of a runner built with [Runner.of_protocol]: the runner
   forces its watchdog thunk last before entering [Sync_engine.run_outcome]
   and calls [check] first after it returns, so [open_engine] and
   [close_engine] hook those two callbacks. *)
let engine : frame option ref = ref None

let open_engine () = if !enabled then engine := Some (enter "sync_engine.run_outcome")

let close_engine () =
  Option.iter leave !engine;
  engine := None

(* ------------------------------------------------------------------ *)
(* layer wrappers *)

(* Position of a TreeAA round in its 3-round [Gradecast.Multi] batch (0
   for the filler round of a PathsFinder-free schedule), read from the
   fixed schedule: PathsFinder's batches, the barrier, then RealAA's. *)
let gradecast_round ~tree =
  let pf = Paths_finder.rounds ~tree in
  let barrier = max 1 pf in
  fun round ->
    if round <= barrier then if pf = 0 then 0 else ((round - 1) mod 3) + 1
    else ((round - barrier - 1) mod 3) + 1

let round_names = [| "gradecast.round0"; "gradecast.round1"; "gradecast.round2"; "gradecast.round3" |]

let protocol ~tree (p : ('s, 'm, 'o) Protocol.t) : ('s, 'm, 'o) Protocol.t =
  let sub = gradecast_round ~tree in
  {
    p with
    Protocol.init = (fun ~self ~n -> timed "tree_aa.init" (fun () -> p.init ~self ~n));
    send =
      (fun ~round ~self s ->
        timed ~also:round_names.(sub round) "tree_aa.send" (fun () ->
            p.send ~round ~self s));
    receive =
      (fun ~round ~self ~inbox s ->
        timed ~also:round_names.(sub round) "tree_aa.receive" (fun () ->
            p.receive ~round ~self ~inbox s));
  }

(* The [passive] flag is kept: the engine's streamed fast path depends on
   it, and a passive adversary's [deliver] is never called. *)
let adversary (a : 'm Adversary.t) : 'm Adversary.t =
  {
    a with
    Adversary.initial_corruptions =
      (fun ~n ~t rng ->
        timed "adversary.corrupt" (fun () -> a.initial_corruptions ~n ~t rng));
    corrupt_more = (fun v -> timed "adversary.corrupt" (fun () -> a.corrupt_more v));
    deliver =
      (fun v ->
        let letters = timed "adversary.deliver" (fun () -> a.deliver v) in
        if !enabled then add "adversary.letters" (float_of_int (List.length letters));
        letters);
  }

let reactor (r : ('s, 'm, 'o) Async_engine.reactor) : ('s, 'm, 'o) Async_engine.reactor =
  {
    r with
    Async_engine.init = (fun ~self ~n -> timed "async_aa.init" (fun () -> r.init ~self ~n));
    on_message =
      (fun ~self env s -> timed "async_aa.on_message" (fun () -> r.on_message ~self env s));
  }

(* Runner.stage_profile of a profiled run, booked as counts. *)
let stage_profile (o : Runner.outcome) =
  match o.Runner.profile with
  | Some p when !enabled ->
      let ms ns = float_of_int ns /. 1e6 in
      add "runner.setup_ms" (ms p.Runner.setup_ns);
      add "runner.rounds_ms" (ms p.Runner.rounds_ns);
      add "runner.checks_ms" (ms p.Runner.checks_ns)
  | _ -> ()

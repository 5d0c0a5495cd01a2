(* Deterministic wire-fault injection for the campaign service. See
   chaos.mli for the plan grammar and the determinism story. *)

module Rng = Aat_util.Rng

type t = {
  corrupt_frame : float;
  torn_write : float;
  drop_frame : float;
  dup_frame : float;
  stall_prob : float;
  stall_seconds : float;
  seed : int;
}

let none =
  {
    corrupt_frame = 0.;
    torn_write = 0.;
    drop_frame = 0.;
    dup_frame = 0.;
    stall_prob = 0.;
    stall_seconds = 0.;
    seed = 0;
  }

let is_none t = { t with seed = 0 } = none

(* ------------------------------------------------------------------ *)
(* the plan grammar *)

module C = Aat_util.Codec

let in_range what lo hi =
  C.conv
    (fun x ->
      if x >= lo && x <= hi then Ok x
      else Error (Printf.sprintf "%s %g not in [%g, %g]" what x lo hi))
    Fun.id C.float

let prob = in_range "probability" 0. 1.
let active p = if p > 0. then Some p else None

(* [to_string] prints the active faults in this order, then a non-zero
   seed *)
let codec =
  C.fields "wire-chaos clause" "+;" none
    [
      C.field "corrupt-frame" prob
        (fun t -> active t.corrupt_frame)
        (fun t p -> { t with corrupt_frame = p });
      C.field "torn-write" prob
        (fun t -> active t.torn_write)
        (fun t p -> { t with torn_write = p });
      C.field "drop-frame" prob
        (fun t -> active t.drop_frame)
        (fun t p -> { t with drop_frame = p });
      C.field "dup-frame" prob
        (fun t -> active t.dup_frame)
        (fun t p -> { t with dup_frame = p });
      C.field "stall"
        (C.pair ':' prob (in_range "duration" 0. infinity))
        (fun t -> Option.map (fun p -> (p, t.stall_seconds)) (active t.stall_prob))
        (fun t (p, d) -> { t with stall_prob = p; stall_seconds = d });
      C.field "seed" C.int
        (fun t -> if t.seed <> 0 then Some t.seed else None)
        (fun t seed -> { t with seed });
    ]

let parse = C.parse codec
let to_string = C.print codec

(* ------------------------------------------------------------------ *)
(* seeded per-endpoint streams *)

type role = Coordinator | Worker

type counts = {
  mutable corrupted : int;
  mutable torn : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable stalled : int;
}

type state = {
  plan : t;
  corrupt : Rng.t;
  torn : Rng.t;
  drop : Rng.t;
  dup : Rng.t;
  stall : Rng.t;
  sleep : float -> unit;
  counts : counts;
}

(* One independent SplitMix64 stream per fault kind per endpoint: which
   faults fire on endpoint A never perturbs the schedule on endpoint B,
   and within an endpoint every kind draws once per frame, so the
   schedules are a pure function of (plan seed, role, slot, incarnation,
   frame index) — independent of worker count and of which faults
   actually fired. *)
let endpoint ?(sleep = Unix.sleepf) plan ~role ~slot ~incarnation =
  let role_tag = match role with Coordinator -> 1 | Worker -> 2 in
  let stream kind =
    (* distinct odd multipliers decorrelate the lanes; Rng.create mixes
       the result through SplitMix64's full avalanche anyway *)
    Rng.create
      (plan.seed
      + (0x9E3779B1 * role_tag)
      + (0x85EBCA77 * (slot + 1))
      + (0xC2B2AE3D * (incarnation + 1))
      + (0x27D4EB2F * kind))
  in
  {
    plan;
    corrupt = stream 1;
    torn = stream 2;
    drop = stream 3;
    dup = stream 4;
    stall = stream 5;
    sleep;
    counts = { corrupted = 0; torn = 0; dropped = 0; duplicated = 0; stalled = 0 };
  }

let counts st = st.counts

let fires rng prob =
  (* always draw, so the stream position is frame-indexed *)
  let x = Rng.float rng 1.0 in
  prob > 0. && x < prob

let apply st frame ~write =
  let plan = st.plan in
  if is_none plan then write frame
  else begin
    let len = Bytes.length frame in
    let corrupt = fires st.corrupt plan.corrupt_frame in
    let corrupt_at = Rng.int st.corrupt (max 1 len) in
    let torn = fires st.torn plan.torn_write in
    let torn_at = 1 + Rng.int st.torn (max 1 (len - 1)) in
    let drop = fires st.drop plan.drop_frame in
    let dup = fires st.dup plan.dup_frame in
    let stall = fires st.stall plan.stall_prob in
    let k = st.counts in
    if corrupt then k.corrupted <- k.corrupted + 1;
    if torn then k.torn <- k.torn + 1;
    if drop then k.dropped <- k.dropped + 1;
    if dup then k.duplicated <- k.duplicated + 1;
    if stall then k.stalled <- k.stalled + 1;
    if not drop then begin
      if stall then st.sleep plan.stall_seconds;
      let mangled =
        if corrupt then begin
          let b = Bytes.copy frame in
          Bytes.set b corrupt_at
            (Char.chr (Char.code (Bytes.get b corrupt_at) lxor 0x55));
          b
        end
        else frame
      in
      if torn then write (Bytes.sub mangled 0 torn_at) else write mangled;
      (* a duplicate ships the intact frame: exercises the receiver's
         dedup path without conflating it with the corruption paths *)
      if dup then write frame
    end
  end

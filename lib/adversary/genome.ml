open Aat_engine
module Rng = Aat_util.Rng

type placement = Top | Bottom | Spread

type victims = { count : int; placement : placement }

type attack =
  | Passive
  | Silent of victims
  | Crash of { victims : victims; at_round : int }
  | Spoiler of { relentless : bool }
  | Wedge

type scheduler = Fifo | Lifo | Random_order

type t = { first : attack; second : attack; scheduler : scheduler }

let equal (a : t) (b : t) = a = b

let attack_generic = function
  | Passive | Silent _ | Crash _ -> true
  | Spoiler _ | Wedge -> false

let generic g = attack_generic g.first && attack_generic g.second

let victims_valid ~t v = v.count >= 1 && v.count <= max 1 t

let attack_valid ~t ~max_round = function
  | Passive | Spoiler _ | Wedge -> true
  | Silent v -> victims_valid ~t v
  | Crash { victims; at_round } ->
      victims_valid ~t victims && at_round >= 1 && at_round <= max_round

let valid ~t ~max_round g =
  attack_valid ~t ~max_round g.first && attack_valid ~t ~max_round g.second

(* ------------------------------------------------------------------ *)
(* search operators *)

let random_placement rng =
  match Rng.int rng 3 with 0 -> Top | 1 -> Bottom | _ -> Spread

let random_scheduler rng =
  match Rng.int rng 3 with 0 -> Fifo | 1 -> Lifo | _ -> Random_order

let random_victims rng ~t =
  { count = 1 + Rng.int rng (max 1 t); placement = random_placement rng }

let random_attack ~generic_only rng ~t ~max_round =
  match Rng.int rng (if generic_only then 3 else 5) with
  | 0 -> Passive
  | 1 -> Silent (random_victims rng ~t)
  | 2 ->
      Crash
        {
          victims = random_victims rng ~t;
          at_round = 1 + Rng.int rng (max 1 max_round);
        }
  | 3 -> Spoiler { relentless = Rng.bool rng }
  | _ -> Wedge

let random ?(generic_only = false) rng ~t ~max_round =
  {
    first = random_attack ~generic_only rng ~t ~max_round;
    second = random_attack ~generic_only rng ~t ~max_round;
    scheduler = random_scheduler rng;
  }

let clamp lo hi x = max lo (min hi x)

let tweak_victims rng ~t v =
  if Rng.bool rng then
    let step = if Rng.bool rng then 1 else -1 in
    { v with count = clamp 1 (max 1 t) (v.count + step) }
  else { v with placement = random_placement rng }

(* Small, validity-preserving perturbation of one attack slot. [Passive]
   and [Wedge] have no parameters, so their tweak steps to a neighbouring
   kind instead of being a no-op. *)
let tweak_attack rng ~t ~max_round = function
  | Passive -> Silent (random_victims rng ~t)
  | Silent v ->
      if Rng.bool rng then Silent (tweak_victims rng ~t v)
      else
        Crash
          { victims = v; at_round = 1 + Rng.int rng (max 1 max_round) }
  | Crash { victims; at_round } ->
      if Rng.bool rng then Crash { victims = tweak_victims rng ~t victims; at_round }
      else
        let step = if Rng.bool rng then 1 else -1 in
        Crash { victims; at_round = clamp 1 (max 1 max_round) (at_round + step) }
  | Spoiler { relentless } -> Spoiler { relentless = not relentless }
  | Wedge -> Spoiler { relentless = false }

let mutate_attack ~generic_only rng ~t ~max_round a =
  if Rng.bool rng then random_attack ~generic_only rng ~t ~max_round
  else
    let a' = tweak_attack rng ~t ~max_round a in
    if generic_only && not (attack_generic a') then
      random_attack ~generic_only rng ~t ~max_round
    else a'

let mutate ?(generic_only = false) rng ~t ~max_round g =
  (* bias toward the first slot: it is the only live gene on the
     single-phase protocols *)
  match Rng.int rng 4 with
  | 0 | 1 -> { g with first = mutate_attack ~generic_only rng ~t ~max_round g.first }
  | 2 -> { g with second = mutate_attack ~generic_only rng ~t ~max_round g.second }
  | _ -> { g with scheduler = random_scheduler rng }

let crossover rng a b =
  {
    first = (if Rng.bool rng then a.first else b.first);
    second = (if Rng.bool rng then a.second else b.second);
    scheduler = (if Rng.bool rng then a.scheduler else b.scheduler);
  }

(* ------------------------------------------------------------------ *)
(* codec *)

module C = Aat_util.Codec

let at_least lo =
  C.conv
    (fun n ->
      if n >= lo then Ok n else Error (Printf.sprintf "%d is below %d" n lo))
    Fun.id C.int

let victims =
  C.conv
    (fun (count, placement) -> Ok { count; placement })
    (fun v -> (v.count, v.placement))
    (C.suffix (at_least 1) [ ("t", Top); ("b", Bottom); ("s", Spread) ])

let attack =
  C.cases "attack"
    [
      C.const "none" Passive;
      C.case "silent" victims
        (fun v -> Silent v)
        (function Silent v -> Some v | _ -> None);
      C.case "crash" (C.pair '@' victims (at_least 1))
        (fun (victims, at_round) -> Crash { victims; at_round })
        (function
          | Crash { victims; at_round } -> Some (victims, at_round) | _ -> None);
      C.const "spoiler" (Spoiler { relentless = false });
      C.const "spoiler!" (Spoiler { relentless = true });
      C.const "wedge" Wedge;
    ]

let scheduler =
  C.cases "scheduler"
    [ C.const "fifo" Fifo; C.const "lifo" Lifo; C.const "rand" Random_order ]

(* the parts split at the first and second '+' *)
let codec =
  C.conv
    (fun (first, (second, scheduler)) -> Ok { first; second; scheduler })
    (fun g -> (g.first, (g.second, g.scheduler)))
    (C.pair '+' attack (C.pair '+' attack scheduler))

let to_string = C.print codec
let of_string = C.parse codec

(* ------------------------------------------------------------------ *)
(* compilation *)

let select_victims ~n v =
  let count = clamp 0 n v.count in
  if count = 0 then []
  else
    match v.placement with
    | Top -> List.init count (fun i -> n - count + i)
    | Bottom -> List.init count (fun i -> i)
    | Spread -> List.init count (fun i -> i * n / count)

let compile_attack ~n ~t ~iterations = function
  | Passive -> Adversary.passive "none"
  | Silent v -> Strategies.silent ~victims:(select_victims ~n v)
  | Crash { victims; at_round } ->
      Strategies.crash ~at_round ~victims:(select_victims ~n victims)
  | Spoiler { relentless } ->
      if relentless then Spoiler.relentless_spoiler ~t ~iterations
      else Spoiler.realaa_spoiler ~t ~iterations
  | Wedge -> Wedge.gradecast_wedge ()

let compile_real ~n ~t ~iterations g =
  { (compile_attack ~n ~t ~iterations g.first) with name = "genome:" ^ to_string g }

let compile_tree ~n ~t ~barrier ~first_iterations ~second_iterations g =
  Compose.phased
    ~name:("genome:" ^ to_string g)
    ~barrier
    ~first:(compile_attack ~n ~t ~iterations:first_iterations g.first)
    ~second:(compile_attack ~n ~t ~iterations:second_iterations g.second)

let compile_generic : type msg. n:int -> t -> msg Adversary.t option =
 fun ~n g ->
  let name = "genome:" ^ to_string g in
  match g.first with
  | Passive -> Some { (Adversary.passive "none") with name }
  | Silent v -> Some { (Strategies.silent ~victims:(select_victims ~n v)) with name }
  | Crash { victims; at_round } ->
      Some
        {
          (Strategies.crash ~at_round ~victims:(select_victims ~n victims)) with
          name;
        }
  | Spoiler _ | Wedge -> None

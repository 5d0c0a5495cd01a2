open Aat_engine

type grade = G0 | G1 | G2

let grade_to_int = function G0 -> 0 | G1 -> 1 | G2 -> 2

type 'v result = { value : 'v option; grade : grade }

module Multi = struct
  type 'v msg =
    | Value of 'v (* round 1: leader's value for its own instance *)
    | Echo of 'v option array (* round 2: echo.(leader) *)
    | Vote of 'v option array (* round 3: vote.(leader) *)

  type 'v state = {
    n : int;
    t : int;
    self : Types.party_id;
    own : 'v;
    heard : 'v option array; (* round-1 value per leader *)
    echoes : 'v option array array; (* echoes.(sender).(leader) *)
    votes : 'v option array array; (* votes.(sender).(leader) *)
    finished : 'v result array option;
  }

  let rounds = 3

  let start ~n ~t ~self ~own =
    (* [echoes] and [votes] start with every sender slot pointing at one
       shared all-[None] row: a slot is only ever {e replaced} wholesale
       when that sender's row arrives (see [receive]), never mutated in
       place, so the sharing is invisible — and state creation is O(n)
       instead of the O(n²) of two materialised matrices (which made
       running n parallel instances Θ(n³) before a single message moved). *)
    let empty : 'v option array = Array.make n None in
    {
      n;
      t;
      self;
      own;
      heard = Array.make n None;
      echoes = Array.make n empty;
      votes = Array.make n empty;
      finished = None;
    }

  (* The plurality of column [leader] of [table]: the most frequent [Some]
     value, ties broken toward the smaller value under polymorphic
     [compare] (a total order) so every honest party resolves them
     identically. The first row carrying a value is its representative.

     Equality ([same]) checks physical identity before anything else.
     Honest echo and vote rows carry the leader's round-1 value by
     reference, so an honest column is one physical value and
     [caml_compare] only runs on boxes a Byzantine party forged and on
     tie-breaks. [compare x x = 0] for every value (nan included), so the
     shortcut never splits or merges a group.

     Distinct values are tracked as row indices: [first.(i)] is the row
     that first carried value [i], [count.(i)] its multiplicity. Both are
     [int] scratch arrays of length n, allocated once per round-3 call by
     the caller, and the winner comes back as its index [i] (or [-1] for
     an all-[None] column), so the n columns of a round cost no buffer,
     closure, option or tuple each. Reading the winner back out of its row
     keeps its physical identity, which [Telemetry.payload_bytes] (a
     reachable-words count) observes: a ['v array] scratch would be a flat
     float array for floats and re-box every value read from it. *)
  let entry (table : 'v option array array) row leader =
    match table.(row).(leader) with Some v -> v | None -> assert false

  let[@inline] same u v = u == v || compare u v = 0

  let plurality ~first ~count (table : 'v option array array) leader =
    let d = ref 0 in
    for row = 0 to Array.length table - 1 do
      match table.(row).(leader) with
      | None -> ()
      | Some v ->
          let i = ref 0 in
          while !i < !d && not (same (entry table first.(!i) leader) v) do
            incr i
          done;
          if !i = !d then begin
            first.(!d) <- row;
            count.(!d) <- 0;
            incr d
          end;
          count.(!i) <- count.(!i) + 1
    done;
    let best = ref (-1) in
    for i = 0 to !d - 1 do
      if
        !best < 0
        || count.(i) > count.(!best)
        || count.(i) = count.(!best)
           && compare
                (entry table first.(i) leader)
                (entry table first.(!best) leader)
              < 0
      then best := i
    done;
    !best

  let send ~round st =
    match round with
    | 1 -> Protocol.To_all (Value st.own)
    | 2 -> Protocol.To_all (Echo (Array.copy st.heard))
    | 3 ->
        (* Vote for each leader's value that at least n - t parties echoed;
           otherwise abstain on that instance. *)
        let first = Array.make st.n 0 and count = Array.make st.n 0 in
        let vote = Array.make st.n None in
        for leader = 0 to st.n - 1 do
          let w = plurality ~first ~count st.echoes leader in
          (* A fresh [Some] per entry, never the winning row's own box:
             [payload_bytes] counts a block shared across leaders once, so
             reusing a box a Byzantine row repeated would shrink the
             vote's counted size. *)
          if w >= 0 && count.(w) >= st.n - st.t then
            vote.(leader) <- Some (entry st.echoes first.(w) leader)
        done;
        Protocol.To_all (Vote vote)
    | _ -> invalid_arg "Gradecast.Multi.send: round out of range"

  (* State updates are in place: both engines treat protocol state
     linearly (the pre-receive state is discarded as soon as the
     post-receive one exists), so copying the full echo/vote matrix per
     received letter — Θ(n²) each, Θ(n³) per round across parties — bought
     nothing. Received rows are stored {e by reference}: the sender built
     (or copied) the row before broadcast and no reader ever mutates a
     stored row, so one physical row may back many parties' tables. An
     adversary crafting [Echo]/[Vote] payloads must hand over fresh rows
     it does not mutate afterwards — every in-repo strategy does. *)
  let receive ~round ~inbox st =
    match round with
    | 1 ->
        Inbox.iter
          (fun sender -> function
            | Value v -> st.heard.(sender) <- Some v
            | Echo _ | Vote _ -> ())
          inbox;
        st
    | 2 ->
        Inbox.iter
          (fun sender -> function
            | Echo row when Array.length row = st.n -> st.echoes.(sender) <- row
            | Echo _ | Value _ | Vote _ -> ())
          inbox;
        st
    | 3 ->
        Inbox.iter
          (fun sender -> function
            | Vote row when Array.length row = st.n -> st.votes.(sender) <- row
            | Vote _ | Value _ | Echo _ -> ())
          inbox;
        let first = Array.make st.n 0 and count = Array.make st.n 0 in
        let finished =
          Array.init st.n (fun leader ->
              match plurality ~first ~count st.votes leader with
              | -1 -> { value = None; grade = G0 }
              | w ->
                  let c = count.(w) in
                  if c >= st.n - st.t then
                    { value = Some (entry st.votes first.(w) leader); grade = G2 }
                  else if c >= st.t + 1 then
                    { value = Some (entry st.votes first.(w) leader); grade = G1 }
                  else { value = None; grade = G0 })
        in
        (if Aat_telemetry.Telemetry.Probe.active () then begin
           let g0 = ref 0 and g1 = ref 0 and g2 = ref 0 in
           Array.iter
             (fun r ->
               match r.grade with
               | G0 -> incr g0
               | G1 -> incr g1
               | G2 -> incr g2)
             finished;
           Aat_telemetry.Telemetry.Probe.grade_histogram ~g0:!g0 ~g1:!g1 ~g2:!g2
         end);
        { st with finished = Some finished }
    | _ -> invalid_arg "Gradecast.Multi.receive: round out of range"

  let results st =
    match st.finished with
    | Some r -> Array.copy r
    | None -> invalid_arg "Gradecast.Multi.results: protocol not finished"
end

let protocol ~leader ~inputs ~t =
  {
    Protocol.name = "gradecast";
    init = (fun ~self ~n -> Multi.start ~n ~t ~self ~own:(inputs self));
    send = (fun ~round ~self:_ st -> Multi.send ~round st);
    receive = (fun ~round ~self:_ ~inbox st -> Multi.receive ~round ~inbox st);
    output =
      (fun st ->
        match st.Multi.finished with
        | Some results -> Some results.(leader)
        | None -> None);
  }

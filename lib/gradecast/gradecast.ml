open Aat_engine

type grade = G0 | G1 | G2

let grade_to_int = function G0 -> 0 | G1 -> 1 | G2 -> 2

type 'v result = { value : 'v option; grade : grade }

module Multi = struct
  type 'v msg =
    | Value of 'v (* round 1: leader's value for its own instance *)
    | Echo of 'v option array (* round 2: echo.(leader) *)
    | Vote of 'v option array (* round 3: vote.(leader) *)

  (* A round-3 vote or grading, with the [t] and a copy of the row pointers
     it came from. Each share field holds one immutable value, replaced by
     one store and read once per use, so parties driven from two domains
     at once can only miss. *)
  type ('v, 'a) memo = { mt : int; rows : 'v option array array; out : 'a }

  type 'v share = {
    mutable empty : 'v option array;
    mutable vote : ('v, 'v option array) memo;
    mutable grades : ('v, 'v result array) memo;
  }

  type 'v state = {
    n : int;
    t : int;
    self : Types.party_id;
    own : 'v;
    share : 'v share;
    heard : 'v option array; (* round-1 value per leader *)
    echoes : 'v option array array; (* echoes.(sender).(leader) *)
    votes : 'v option array array; (* votes.(sender).(leader) *)
    finished : 'v result array option;
  }

  let rounds = 3

  let no_memo = { mt = -1; rows = [||]; out = [||] }

  let share () = { empty = [||]; vote = no_memo; grades = no_memo }

  let start ~share ~n ~t ~self ~own =
    (* [echoes] and [votes] start with every sender slot pointing at the
       share's all-[None] row: a slot is only ever {e replaced} wholesale
       when that sender's row arrives (see [receive]), never mutated in
       place, so the sharing is invisible — and state creation is O(n)
       instead of the O(n²) of two materialised matrices (which made
       running n parallel instances Θ(n³) before a single message moved).
       Every party of a run points at the same row, so parties that heard
       from the same senders hold physically equal tables. *)
    let empty =
      match share.empty with
      | e when Array.length e = n -> e
      | _ ->
          let e = Array.make n None in
          share.empty <- e;
          e
    in
    {
      n;
      t;
      self;
      own;
      share;
      heard = Array.make n None;
      echoes = Array.make n empty;
      votes = Array.make n empty;
      finished = None;
    }

  let next st ~own = start ~share:st.share ~n:st.n ~t:st.t ~self:st.self ~own

  (* [m] was computed from [table] iff it ran at the same [t] over the very
     same rows: physical equality of the length and of every slot, never a
     content comparison, so a hit returns exactly what recomputing would. *)
  let rec same_rows (a : 'v option array array) b i =
    i < 0 || (a.(i) == b.(i) && same_rows a b (i - 1))

  let hits m ~t table =
    m.mt = t
    && Array.length m.rows = Array.length table
    && same_rows m.rows table (Array.length table - 1)

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
           otherwise abstain on that instance. A party whose echo table
           is the one the share last voted on sends that very vote. *)
        let m = st.share.vote in
        if hits m ~t:st.t st.echoes then Protocol.To_all (Vote m.out)
        else begin
          let first = Array.make st.n 0 and count = Array.make st.n 0 in
          let vote = Array.make st.n None in
          for leader = 0 to st.n - 1 do
            let w = plurality ~first ~count st.echoes leader in
            (* A fresh [Some] per entry, never the winning row's own box:
               [payload_bytes] counts a block shared across leaders once,
               so reusing a box a Byzantine row repeated would shrink the
               vote's counted size. *)
            if w >= 0 && count.(w) >= st.n - st.t then
              vote.(leader) <- Some (entry st.echoes first.(w) leader)
          done;
          st.share.vote <- { mt = st.t; rows = Array.copy st.echoes; out = vote };
          Protocol.To_all (Vote vote)
        end
    | _ -> invalid_arg "Gradecast.Multi.send: round out of range"

  (* State updates are in place: both engines treat protocol state
     linearly (the pre-receive state is discarded as soon as the
     post-receive one exists), so copying the full echo/vote matrix per
     received letter — Θ(n²) each, Θ(n³) per round across parties — bought
     nothing. Received rows are stored {e by reference}: the sender built
     (or copied) the row before broadcast and no reader ever mutates a
     stored row, so one physical row may back many parties' tables, and
     the share's memos key on those pointers. An adversary crafting
     [Echo]/[Vote] payloads must hand over fresh rows it does not mutate
     afterwards — every in-repo strategy does. *)
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
        let m = st.share.grades in
        let finished =
          if hits m ~t:st.t st.votes then m.out
          else begin
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
            st.share.grades <- { mt = st.t; rows = Array.copy st.votes; out = finished };
            finished
          end
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
    (* The array may be the share's, so callers get their own copy. *)
    | Some r -> Array.copy r
    | None -> invalid_arg "Gradecast.Multi.results: protocol not finished"
end

let protocol ~leader ~inputs ~t =
  let share = Multi.share () in
  {
    Protocol.name = "gradecast";
    init = (fun ~self ~n -> Multi.start ~share ~n ~t ~self ~own:(inputs self));
    send = (fun ~round ~self:_ st -> Multi.send ~round st);
    receive = (fun ~round ~self:_ ~inbox st -> Multi.receive ~round ~inbox st);
    output =
      (fun st ->
        match st.Multi.finished with
        | Some results -> Some results.(leader)
        | None -> None);
  }

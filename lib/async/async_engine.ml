open Aat_engine
module Runtime = Aat_runtime

type ('state, 'msg, 'out) reactor = {
  name : string;
  init : self:Types.party_id -> n:int -> 'state * (Types.party_id * 'msg) list;
  on_message :
    self:Types.party_id ->
    'msg Types.envelope ->
    'state ->
    'state * (Types.party_id * 'msg) list;
  output : 'state -> 'out option;
}

let to_all ~n m rest =
  let rec go p acc = if p < 0 then acc else go (p - 1) ((p, m) :: acc) in
  go (n - 1) rest

type scheduler =
  | Fifo
  | Lifo
  | Random_order
  | Laggards of Types.party_id list

type 'msg adversary = {
  core : 'msg Adversary.t;
  scheduler : scheduler;
}

let passive ?(scheduler = Fifo) name =
  { core = Adversary.passive name; scheduler }

let with_scheduler ?(scheduler = Fifo) core = { core; scheduler }

type ('out, 'msg) report = ('out, 'msg) Runtime.Report.t

exception Exceeded_max_events of string

let pick_index ~scheduler ~patience ~step ~rng pool =
  (* patience override: the longest-waiting message must go out *)
  let oldest = Pending.oldest_slot pool in
  if step - Pending.key pool oldest >= patience then oldest
  else
    let len = Pending.length pool in
    match scheduler with
    | Fifo -> oldest
    | Lifo -> len - 1
    | Random_order -> Aat_util.Rng.int rng len
    | Laggards lagging ->
        (* prefer any message not touching the lagging set *)
        let rec find i =
          if i >= len then Aat_util.Rng.int rng len
          else if
            List.mem (Pending.src pool i) lagging
            || List.mem (Pending.dst pool i) lagging
          then find (i + 1)
          else i
        in
        find 0

module Telemetry = Aat_telemetry.Telemetry

let run_outcome (type s m o) ~n ~t ?(max_events = Runtime.Defaults.max_events)
    ?patience ?(seed = 0) ?(record_trace = false)
    ?(telemetry = Telemetry.Sink.null)
    ?(telemetry_stride = Runtime.Defaults.telemetry_stride)
    ?(observe : (s -> float option) option)
    ?(fault_filter : Runtime.Mailbox.fault_filter option)
    ?(crash_faults : (Types.party_id * Types.round) list = [])
    ?(watchdogs : s Runtime.Watchdog.t list = [])
    ~(reactor : (s, m, o) reactor) ~(adversary : m adversary) () =
  if n < 1 then invalid_arg "Async_engine.run: n < 1";
  if t < 0 || t >= n then invalid_arg "Async_engine.run: need 0 <= t < n";
  if telemetry_stride < 1 then
    invalid_arg "Async_engine.run: telemetry_stride < 1";
  let patience =
    match patience with Some p -> p | None -> Runtime.Defaults.patience ~n
  in
  let rng = Aat_util.Rng.create seed in
  let corruption = Runtime.Corruption.create ~n ~t in
  let mailbox : m Runtime.Mailbox.t = Runtime.Mailbox.create ~n in
  (match fault_filter with
  | Some f -> Runtime.Mailbox.set_fault_filter mailbox f
  | None -> ());
  let crashed = ref 0 in
  Runtime.Corruption.corrupt_all corruption ~at:0
    (adversary.core.initial_corruptions ~n ~t rng);
  let corrupted p = Runtime.Corruption.is_corrupted corruption p in
  (* A passive adversary never corrupts, injects, or reads its view, so
     the per-event view is skipped wholesale. The delivered-letter history
     is kept only for its two readers, an adversary that declares it reads
     history and the recorded trace: a run that kept it regardless grew
     with total deliveries rather than pool size. *)
  let passive = adversary.core.Adversary.passive in
  let reads_history = adversary.core.Adversary.reads_history in
  let track_history = reads_history || record_trace in
  let states : s option array = Array.make n None in
  let outputs : o option array = Array.make n None in
  let decided_at = Array.make n (-1) in
  (* Count of honest-and-undecided parties, kept incrementally so the
     per-event termination check is O(1) instead of an O(n) scan. *)
  let undecided = ref 0 in
  let counting = ref false in
  let crash p ~at =
    let was_undecided = !counting && p >= 0 && p < n && outputs.(p) = None in
    (* [force_corrupt] returning true means [p] was honest until now, so
       [was_undecided] is exactly the honest-and-undecided test. *)
    if Runtime.Corruption.force_corrupt corruption ~at p then begin
      if was_undecided then decr undecided;
      incr crashed;
      states.(p) <- None;
      outputs.(p) <- None;
      decided_at.(p) <- -1
    end
  in
  (* Crashes scheduled at or before event 0 take effect before reactor
     initialization: the party never runs at all. *)
  List.iter (fun (p, at) -> if at <= 0 then crash p ~at:0) crash_faults;
  let pool : m Pending.t = Pending.create () in
  let step = ref 0 in
  (* Delivered-letter history, most recent first, one singleton list per
     delivery event — the adversary view's [history] (and, reversed, the
     trace). *)
  let history = ref [] in
  (* Telemetry: there are no rounds here, so delivery events are aggregated
     into chunks of [telemetry_stride] events, one telemetry event per
     chunk. With the null sink all of this is skipped. *)
  let live = not (Telemetry.Sink.is_null telemetry) in
  if live then
    telemetry.Telemetry.Sink.on_start
      {
        Telemetry.engine = "async";
        protocol = reactor.name;
        adversary = adversary.core.name;
        n;
        t;
        seed;
        initial_corruptions = Runtime.Corruption.corrupted_list corruption;
      };
  let chunk = ref 0 in
  let chunk_start = ref 0 in
  let chunk_honest = ref 0 in
  let chunk_injected = ref 0 in
  let chunk_forgeries = ref 0 in
  let chunk_honest_bytes = ref 0 in
  let chunk_adversary_bytes = ref 0 in
  let chunk_sent_by = if live then Array.make n 0 else [||] in
  let chunk_faults_mark = ref 0 in
  let flush_chunk () =
    (* a chunk is emitted if anything happened in it — including messages
       posted at init but never delivered (everyone decided immediately) *)
    if
      live
      && (!step > !chunk_start || !chunk_honest > 0 || !chunk_injected > 0
         || !chunk_forgeries > 0)
    then begin
      incr chunk;
      let snapshot =
        match observe with
        | None -> []
        | Some f ->
            let acc = ref [] in
            for p = n - 1 downto 0 do
              if not (corrupted p) then
                match states.(p) with
                | Some s -> (
                    match f s with
                    | Some v -> acc := (p, v) :: !acc
                    | None -> ())
                | None -> ()
            done;
            !acc
      in
      telemetry.Telemetry.Sink.on_round
        {
          Telemetry.round = !chunk;
          honest_msgs = !chunk_honest;
          adversary_msgs = !chunk_injected;
          delivered_msgs = !step - !chunk_start;
          rejected_forgeries = !chunk_forgeries;
          honest_bytes = !chunk_honest_bytes;
          adversary_bytes = !chunk_adversary_bytes;
          sent_by = Array.copy chunk_sent_by;
          corruptions = [];
          grades = None;
          marks =
            (* fault accounting rides the free-form [marks] channel, only on
               chunks where the filter actually touched a letter — benign
               streams are byte-identical to before *)
            (if !chunk_faults_mark > 0 then
               [ ("fault_events", !chunk_faults_mark) ]
             else []);
          snapshot;
        };
      chunk_start := !step;
      chunk_honest := 0;
      chunk_injected := 0;
      chunk_forgeries := 0;
      chunk_honest_bytes := 0;
      chunk_adversary_bytes := 0;
      chunk_faults_mark := 0;
      Array.fill chunk_sent_by 0 n 0
    end
  in
  (* Enqueue one screened/accounted letter through the fault filter: an
     omitted letter vanishes, a duplicated one enters the pool twice, a
     delayed one is backdated into the future — clamped to the patience
     bound so the scheduler's fairness override still guarantees eventual
     delivery. *)
  let enqueue ~src ~dst body =
    match Runtime.Mailbox.decide mailbox ~round:!step ~src ~dst with
    | Runtime.Mailbox.Deliver -> Pending.add pool ~src ~dst ~key:!step body
    | Runtime.Mailbox.Drop -> incr chunk_faults_mark
    | Runtime.Mailbox.Duplicate ->
        incr chunk_faults_mark;
        Pending.add pool ~src ~dst ~key:!step body;
        Pending.add pool ~src ~dst ~key:!step body
    | Runtime.Mailbox.Delay d ->
        incr chunk_faults_mark;
        let d = max 0 (min d (patience - 1)) in
        Pending.add pool ~src ~dst ~key:(!step + d) body
  in
  let rec post_from src = function
    | [] -> ()
    | (dst, body) :: rest ->
        if dst >= 0 && dst < n then begin
          Runtime.Mailbox.note_honest mailbox 1;
          if live then begin
            incr chunk_honest;
            chunk_sent_by.(src) <- chunk_sent_by.(src) + 1;
            chunk_honest_bytes :=
              !chunk_honest_bytes + Telemetry.payload_bytes body
          end;
          enqueue ~src ~dst body
        end;
        post_from src rest
  in
  (* initialize honest reactors *)
  for p = 0 to n - 1 do
    if not (corrupted p) then begin
      let st, letters = reactor.init ~self:p ~n in
      states.(p) <- Some st;
      (match reactor.output st with
      | Some o ->
          outputs.(p) <- Some o;
          decided_at.(p) <- 0
      | None -> ());
      post_from p letters
    end
  done;
  for p = 0 to n - 1 do
    if (not (corrupted p)) && outputs.(p) = None then incr undecided
  done;
  counting := true;
  let all_decided () = !undecided = 0 in
  let undecided_parties () =
    let acc = ref [] in
    for p = n - 1 downto 0 do
      if (not (corrupted p)) && outputs.(p) = None then acc := p :: !acc
    done;
    !acc
  in
  let watch = Runtime.Watchdog.start watchdogs in
  let honest_states () =
    let acc = ref [] in
    for p = n - 1 downto 0 do
      match states.(p) with
      | Some s when not (corrupted p) -> acc := (p, s) :: !acc
      | _ -> ()
    done;
    !acc
  in
  let view () =
    {
      Adversary.round = !step;
      n;
      t;
      corrupted = Runtime.Corruption.flags corruption;
      honest_outbox = Lazy.from_val [];
      history = (if reads_history then !history else []);
      rng;
    }
  in
  let stall = ref None in
  while !stall = None && not (all_decided ()) do
    if !step >= max_events then
      stall :=
        Some
          (Printf.sprintf "%s: undecided after %d delivery events" reactor.name
             max_events)
    else begin
      incr step;
      (* fault-plan crashes land before the adversary moves; like an
         adaptive corruption, a crashed party stops reacting but its
         in-flight messages stay deliverable *)
      List.iter
        (fun (p, at) -> if at = !step then crash p ~at:!step)
        crash_faults;
      (* adaptive corruptions: a party corrupted at event [e] stops
         reacting — its in-flight messages were sent while honest and stay
         deliverable. Skipped outright for a passive adversary, which
         neither corrupts nor injects and never reads the view. *)
      if not passive then begin
        List.iter
          (fun p ->
            let was_undecided = p >= 0 && p < n && outputs.(p) = None in
            if Runtime.Corruption.corrupt corruption ~at:!step p then begin
              if was_undecided then decr undecided;
              states.(p) <- None;
              outputs.(p) <- None;
              decided_at.(p) <- -1
            end)
          (adversary.core.corrupt_more (view ()));
        (* adversarial injections, authenticated-channel screening *)
        let forgeries_before = Runtime.Mailbox.rejected_forgeries mailbox in
        let injected =
          Runtime.Mailbox.screen mailbox ~adversary:adversary.core.name
            ~corrupted:(Runtime.Corruption.set corruption)
            (adversary.core.deliver (view ()))
        in
        if live then
          chunk_forgeries :=
            !chunk_forgeries
            + (Runtime.Mailbox.rejected_forgeries mailbox - forgeries_before);
        List.iter
          (fun (l : m Types.letter) ->
            Runtime.Mailbox.note_adversary mailbox 1;
            if live then begin
              incr chunk_injected;
              chunk_sent_by.(l.Types.src) <- chunk_sent_by.(l.Types.src) + 1;
              chunk_adversary_bytes :=
                !chunk_adversary_bytes + Telemetry.payload_bytes l.Types.body
            end;
            enqueue ~src:l.Types.src ~dst:l.Types.dst l.Types.body)
          injected
      end;
      if Pending.is_empty pool then
        stall :=
          Some
            (Printf.sprintf
               "%s: no pending messages but honest parties undecided \
                (deadlock)"
               reactor.name)
      else begin
        let idx =
          pick_index ~scheduler:adversary.scheduler ~patience ~step:!step ~rng
            pool
        in
        let src = Pending.src pool idx
        and dst = Pending.dst pool idx
        and body = Pending.body pool idx in
        Pending.remove pool idx;
        if track_history then
          history := [ { Types.src; dst; body } ] :: !history;
        (* A decided party keeps reacting: in the asynchronous model "output"
           does not mean "halt" — its echoes may still be needed for other
           parties' liveness (e.g. the READY quorums of reliable broadcast).
           The run ends once every honest party has decided. *)
        if not (corrupted dst) then begin
          match states.(dst) with
          | None -> ()
          | Some st ->
              let st', letters =
                reactor.on_message ~self:dst
                  { Types.sender = src; payload = body }
                  st
              in
              (* reactors that update in place return the same state:
                 keep its box *)
              if st' != st then states.(dst) <- Some st';
              let st = st' in
              (if outputs.(dst) = None then
                 match reactor.output st with
                 | Some o ->
                     outputs.(dst) <- Some o;
                     decided_at.(dst) <- !step;
                     decr undecided
                 | None -> ());
              post_from dst letters
        end;
        if Runtime.Watchdog.armed watch then
          Runtime.Watchdog.step watch ~round:!step ~states:(honest_states ())
            ~corrupted:(Runtime.Corruption.set corruption);
        if live && !step - !chunk_start >= telemetry_stride then flush_chunk ()
      end
    end
  done;
  if live then begin
    flush_chunk ();
    telemetry.Telemetry.Sink.on_stop
      {
        Telemetry.rounds = !chunk;
        honest_messages = Runtime.Mailbox.honest_messages mailbox;
        adversary_messages = Runtime.Mailbox.adversary_messages mailbox;
      }
  end;
  let outs = ref [] and terms = ref [] in
  for p = n - 1 downto 0 do
    match outputs.(p) with
    | Some o when not (corrupted p) ->
        outs := (p, o) :: !outs;
        terms := (p, decided_at.(p)) :: !terms
    | _ -> ()
  done;
  let report =
    {
      Runtime.Report.engine = "async";
      n;
      t;
      outputs = !outs;
      termination_rounds = !terms;
      rounds_used = !step;
      corrupted = Runtime.Corruption.corrupted_list corruption;
      corruption_rounds = Runtime.Corruption.rounds_list corruption;
      honest_messages = Runtime.Mailbox.honest_messages mailbox;
      adversary_messages = Runtime.Mailbox.adversary_messages mailbox;
      rejected_forgeries = Runtime.Mailbox.rejected_forgeries mailbox;
      trace = (if record_trace then List.rev !history else []);
      fault_stats = Runtime.Mailbox.fault_stats mailbox ~crashed:!crashed;
      watchdog_violations = Runtime.Watchdog.violations watch;
    }
  in
  match !stall with
  | None -> Runtime.Outcome.Completed report
  | Some reason ->
      Runtime.Outcome.Liveness_timeout
        { Runtime.Outcome.report; undecided = undecided_parties (); reason }

let run ~n ~t ?max_events ?patience ?seed ?record_trace ?telemetry
    ?telemetry_stride ?observe ?fault_filter ?crash_faults ?watchdogs ~reactor
    ~adversary () =
  match
    run_outcome ~n ~t ?max_events ?patience ?seed ?record_trace ?telemetry
      ?telemetry_stride ?observe ?fault_filter ?crash_faults ?watchdogs
      ~reactor ~adversary ()
  with
  | Runtime.Outcome.Completed report -> report
  | Runtime.Outcome.Liveness_timeout { reason; _ } ->
      raise (Exceeded_max_events reason)
  | Runtime.Outcome.Engine_error _ ->
      (* [run_outcome] lets reactor/adversary exceptions escape; only
         [Runner.run] folds them into [Engine_error]. *)
      assert false

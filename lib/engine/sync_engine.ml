module Runtime = Aat_runtime

type ('out, 'msg) report = ('out, 'msg) Runtime.Report.t

exception Exceeded_max_rounds of string

module Telemetry = Aat_telemetry.Telemetry

type ('s, 'o) slot =
  | Live of 's
  | Done of 'o * Types.round
  | Corrupt

let run_outcome (type s m o) ~n ~t ?max_rounds ?(seed = 0)
    ?(record_trace = false) ?(telemetry = Telemetry.Sink.null)
    ?(observe : (s -> float option) option)
    ?(fault_filter : Runtime.Mailbox.fault_filter option)
    ?(crash_faults : (Types.party_id * Types.round) list = [])
    ?(watchdogs : s Runtime.Watchdog.t list = [])
    ~(protocol : (s, m, o) Protocol.t) ~(adversary : m Adversary.t) () =
  if n < 1 then invalid_arg "Sync_engine.run: n < 1";
  if t < 0 || t >= n then invalid_arg "Sync_engine.run: need 0 <= t < n";
  let max_rounds =
    match max_rounds with Some r -> r | None -> Runtime.Defaults.max_rounds ~n
  in
  let rng = Aat_util.Rng.create seed in
  let corruption = Runtime.Corruption.create ~n ~t in
  let mailbox : m Runtime.Mailbox.t = Runtime.Mailbox.create ~n in
  (match fault_filter with
  | Some f -> Runtime.Mailbox.set_fault_filter mailbox f
  | None -> ());
  let crashed = ref 0 in
  let crash p ~at =
    if Runtime.Corruption.force_corrupt corruption ~at p then incr crashed
  in
  let round = ref 0 in
  Runtime.Corruption.corrupt_all corruption ~at:0
    (adversary.initial_corruptions ~n ~t rng);
  (* Fault-plan crashes scheduled at or before round 0 are in effect from
     the start: the party never runs. The environment's crashes land before
     the adversary moves, and do not consume its corruption budget. *)
  List.iter (fun (p, at) -> if at <= 0 then crash p ~at:0) crash_faults;
  let corrupted p = Runtime.Corruption.is_corrupted corruption p in
  (* This round's outboxes, [To []] for a party that did not send, held
     until the next round's sends: the adversary's view lists them from
     here. *)
  let outboxes = Array.make n (Protocol.To []) in
  (* The delivered-letter list has two readers: an adversary that declares
     it reads its history, and the recorded trace. Without either the
     mailbox builds no letter per delivery; counters cover the rest. *)
  let reads_history = adversary.Adversary.reads_history in
  let track_delivered = reads_history || record_trace in
  Runtime.Mailbox.set_delivered_tracking mailbox track_delivered;
  (* Telemetry: with the null sink every per-round emission below is skipped
     wholesale ([live] is false), so untelemetered runs pay nothing. *)
  let live = not (Telemetry.Sink.is_null telemetry) in
  if live then
    telemetry.Telemetry.Sink.on_start
      {
        Telemetry.engine = "sync";
        protocol = protocol.name;
        adversary = adversary.name;
        n;
        t;
        seed;
        initial_corruptions = Runtime.Corruption.corrupted_list corruption;
      };
  let probe = if live then Some (Telemetry.Probe.fresh ()) else None in
  let saved_probe = if live then Some (Telemetry.Probe.swap probe) else None in
  let restore_probe () =
    match saved_probe with
    | Some prev -> ignore (Telemetry.Probe.swap prev)
    | None -> ()
  in
  Fun.protect ~finally:restore_probe @@ fun () ->
  let slots =
    Array.init n (fun p ->
        if corrupted p then Corrupt else Live (protocol.init ~self:p ~n))
  in
  (* Delivered letters, most recent round first: the adversary view's
     [history] and, reversed, the trace. *)
  let history = ref [] in
  let watch = Runtime.Watchdog.start watchdogs in
  let undecided () =
    Array.exists (function Live _ -> true | Done _ | Corrupt -> false) slots
  in
  let undecided_parties () =
    let acc = ref [] in
    for p = n - 1 downto 0 do
      match slots.(p) with
      | Live _ -> acc := p :: !acc
      | Done _ | Corrupt -> ()
    done;
    !acc
  in
  (* Degenerate protocols may decide with zero communication (e.g. AA on a
     single-vertex tree): honor outputs available at initialization. *)
  Array.iteri
    (fun p slot ->
      match slot with
      | Live s -> (
          match protocol.output s with
          | Some o -> slots.(p) <- Done (o, 0)
          | None -> ())
      | Done _ | Corrupt -> ())
    slots;
  let timed_out = ref false in
  while undecided () && not !timed_out do
    if !round >= max_rounds then timed_out := true
    else begin
      incr round;
      let r = !round in
      let forgeries_before = Runtime.Mailbox.rejected_forgeries mailbox in
      let dropped_before =
        (Runtime.Mailbox.fault_stats mailbox ~crashed:0).Runtime.Report.dropped
      in
      (* Per-round telemetry accumulators. [sent_by] is handed to the
         sink, which may retain it: fresh per round. *)
      let sent_by = if live then Array.make n 0 else [||] in
      let honest_bytes = ref 0 and adversary_bytes = ref 0 in
      let honest_count = ref 0 in
      (* 1. Fault-plan crashes land at the start of the round, before any
         send: a party crashing in round [r] is a corrupted party that is
         silent from [r] on. *)
      List.iter
        (fun (p, at) ->
          if at = r then begin
            crash p ~at:r;
            if p >= 0 && p < n && corrupted p then slots.(p) <- Corrupt
          end)
        crash_faults;
      (* 2. The round begins before any send, so an inbox from an earlier
         round is stale from here on, whatever reads it. *)
      Runtime.Mailbox.begin_round ~round:r mailbox;
      (* 3. honest outboxes, each [To] recipient checked once *)
      Array.iteri
        (fun p slot ->
          outboxes.(p) <-
            (match slot with
            | Live s ->
                let outbox = protocol.send ~round:r ~self:p s in
                (match outbox with
                | Protocol.To letters ->
                    List.iter
                      (fun (dst, _) ->
                        if dst < 0 || dst >= n then
                          invalid_arg
                            (Printf.sprintf "%s: p%d sent to invalid party %d"
                               protocol.name p dst))
                      letters
                | Protocol.To_all _ -> ());
                outbox
            | Done _ | Corrupt -> Protocol.To []))
        slots;
      (* 4. The adversary's rushing view. Its [honest_outbox] lists the
         outboxes as letters in send order when a strategy forces it,
         which it may do only in round [r]: the next round overwrites
         [outboxes]. The view made after [corrupt_more] corrupted someone
         leaves their letters out; until the next round no one else is
         corrupted. *)
      let view ~retracted =
        let honest_outbox =
          lazy
            (if !round <> r then
               invalid_arg
                 (Printf.sprintf
                    "Sync_engine: the round-%d view's honest_outbox was \
                     forced in round %d"
                    r !round);
             let letters = ref [] in
             for p = n - 1 downto 0 do
               if not (retracted && corrupted p) then
                 match outboxes.(p) with
                 | Protocol.To_all body ->
                     for dst = n - 1 downto 0 do
                       letters := { Types.src = p; dst; body } :: !letters
                     done
                 | Protocol.To l ->
                     letters :=
                       List.fold_right
                         (fun (dst, body) acc -> { Types.src = p; dst; body } :: acc)
                         l !letters
             done;
             !letters)
        in
        {
          Adversary.round = r;
          n;
          t;
          corrupted = Runtime.Corruption.flags corruption;
          honest_outbox;
          history = (if reads_history then !history else []);
          rng;
        }
      in
      (* Adaptive corruptions: newly corrupted parties' messages of this
         round are retracted (they are no longer live, so their outboxes
         are neither listed nor posted) and their state handed to the
         adversary (conceptually — we just drop it). *)
      let rushing = view ~retracted:false in
      let extra = adversary.corrupt_more rushing in
      List.iter
        (fun p ->
          ignore (Runtime.Corruption.corrupt corruption ~at:r p);
          if p >= 0 && p < n && corrupted p then slots.(p) <- Corrupt)
        extra;
      (* The adversary's letters, screened for forged senders
         (authenticated channels). *)
      let byz_letters =
        Runtime.Mailbox.screen mailbox ~adversary:adversary.name
          ~corrupted:(Runtime.Corruption.set corruption)
          (adversary.deliver
             (if extra = [] then rushing else view ~retracted:true))
      in
      (* 5. Delivery through the shared mailbox: at most one letter per
         (src, dst) pair. Adversary letters are posted first so that a
         Byzantine double-send to the same recipient resolves to the
         adversary's *last* choice, and an adversary letter from a
         newly-corrupted party overrides the retracted honest one. The
         honest outboxes follow in send order: a broadcast is one loop
         over recipients with one payload, a [To] list is posted in
         order, and the mailbox keeps the first letter per recipient it
         delivers. The installed fault filter (if any) is consulted
         inside [post]. *)
      Runtime.Mailbox.post_last_wins mailbox byz_letters;
      Array.iteri
        (fun p slot ->
          match slot with
          | Live _ -> (
              match outboxes.(p) with
              | Protocol.To_all body ->
                  for dst = 0 to n - 1 do
                    Runtime.Mailbox.post_direct mailbox ~src:p ~dst body
                  done;
                  honest_count := !honest_count + n;
                  if live then begin
                    sent_by.(p) <- sent_by.(p) + n;
                    honest_bytes :=
                      !honest_bytes + (n * Telemetry.payload_bytes body)
                  end
              | Protocol.To letters ->
                  List.iter
                    (fun (dst, body) ->
                      Runtime.Mailbox.post_direct mailbox ~src:p ~dst body;
                      incr honest_count;
                      if live then begin
                        sent_by.(p) <- sent_by.(p) + 1;
                        honest_bytes :=
                          !honest_bytes + Telemetry.payload_bytes body
                      end)
                    letters)
          | Done _ | Corrupt -> ())
        slots;
      let byz_count = List.length byz_letters in
      Runtime.Mailbox.note_honest mailbox !honest_count;
      Runtime.Mailbox.note_adversary mailbox byz_count;
      if live then
        List.iter
          (fun (l : m Types.letter) ->
            sent_by.(l.src) <- sent_by.(l.src) + 1;
            adversary_bytes :=
              !adversary_bytes + Telemetry.payload_bytes l.body)
          byz_letters;
      if track_delivered then
        history := Runtime.Mailbox.delivered mailbox :: !history;
      (* 6. honest receive + termination. On telemetered runs with an
         [observe] function, each party's post-receive state is sampled here —
         including parties deciding this round, whose state is about to be
         discarded. Watchdogs see the same post-receive states. *)
      let snapshot_rev = ref [] in
      let wd_states_rev = ref [] in
      let wd_live = Runtime.Watchdog.armed watch in
      Array.iteri
        (fun p slot ->
          match slot with
          | Live s ->
              let inbox = Runtime.Mailbox.inbox mailbox p in
              let s' = protocol.receive ~round:r ~self:p ~inbox s in
              (if live then
                 match observe with
                 | Some f -> (
                     match f s' with
                     | Some v -> snapshot_rev := (p, v) :: !snapshot_rev
                     | None -> ())
                 | None -> ());
              if wd_live then wd_states_rev := (p, s') :: !wd_states_rev;
              (match protocol.output s' with
              | Some o -> slots.(p) <- Done (o, r)
              | None -> slots.(p) <- Live s')
          | Done _ | Corrupt -> ())
        slots;
      if wd_live then
        Runtime.Watchdog.step watch ~round:r
          ~states:(List.rev !wd_states_rev)
          ~corrupted:(Runtime.Corruption.set corruption);
      (* 7. telemetry: one event per round, after receives so that probes
         fired inside [receive] and post-round state snapshots are included *)
      if live then begin
        let grades, marks =
          match probe with
          | Some c -> Telemetry.Probe.flush c
          | None -> (None, [])
        in
        let marks =
          (* Fault accounting rides the existing free-form [marks] channel,
             and only when the filter actually dropped something this round —
             benign streams are byte-identical to before. *)
          let dropped_now =
            (Runtime.Mailbox.fault_stats mailbox ~crashed:0)
              .Runtime.Report.dropped - dropped_before
          in
          if dropped_now > 0 then ("fault_dropped", dropped_now) :: marks
          else marks
        in
        telemetry.Telemetry.Sink.on_round
          {
            Telemetry.round = r;
            honest_msgs = !honest_count;
            adversary_msgs = byz_count;
            delivered_msgs = Runtime.Mailbox.delivered_count mailbox;
            rejected_forgeries =
              Runtime.Mailbox.rejected_forgeries mailbox - forgeries_before;
            honest_bytes = !honest_bytes;
            adversary_bytes = !adversary_bytes;
            sent_by;
            corruptions =
              List.filter_map
                (fun (p, cr) -> if cr = r then Some p else None)
                (Runtime.Corruption.rounds_list corruption);
            grades;
            marks;
            snapshot = List.rev !snapshot_rev;
          }
      end
    end
  done;
  if live then
    telemetry.Telemetry.Sink.on_stop
      {
        Telemetry.rounds = !round;
        honest_messages = Runtime.Mailbox.honest_messages mailbox;
        adversary_messages = Runtime.Mailbox.adversary_messages mailbox;
      };
  let outputs = ref [] and terms = ref [] in
  Array.iteri
    (fun p slot ->
      match slot with
      | Done (o, r) ->
          outputs := (p, o) :: !outputs;
          terms := (p, r) :: !terms
      | Corrupt | Live _ -> ())
    slots;
  let report =
    {
      Runtime.Report.engine = "sync";
      n;
      t;
      outputs = List.rev !outputs;
      termination_rounds = List.rev !terms;
      rounds_used = !round;
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
  if !timed_out then
    Runtime.Outcome.Liveness_timeout
      {
        Runtime.Outcome.report;
        undecided = undecided_parties ();
        reason =
          Printf.sprintf "%s: honest party undecided after %d rounds"
            protocol.name max_rounds;
      }
  else Runtime.Outcome.Completed report

let run ~n ~t ?max_rounds ?seed ?record_trace ?telemetry ?observe
    ?fault_filter ?crash_faults ?watchdogs ~protocol ~adversary () =
  match
    run_outcome ~n ~t ?max_rounds ?seed ?record_trace ?telemetry ?observe
      ?fault_filter ?crash_faults ?watchdogs ~protocol ~adversary ()
  with
  | Runtime.Outcome.Completed report -> report
  | Runtime.Outcome.Liveness_timeout { reason; _ } ->
      raise (Exceeded_max_rounds reason)
  | Runtime.Outcome.Engine_error _ ->
      (* [run_outcome] lets protocol/adversary exceptions escape; only
         [Runner.run] folds them into [Engine_error]. *)
      assert false

let log_src = Logs.Src.create "aat.runtime" ~doc:"unified runtime transport core"

module Log = (val Logs.src_log log_src)

type fault_decision = Deliver | Drop | Duplicate | Delay of int

type fault_filter =
  round:Types.round -> src:Types.party_id -> dst:Types.party_id ->
  fault_decision

(* Flat-array transport: the per-round delivery state is an n×n seen
   bitmatrix (one bit per (src, dst) pair, recipient-major so a
   recipient's inbox is one contiguous bit row) plus one lazily-allocated
   payload row per recipient, indexed by sender. [post] is a couple of
   array writes; an [inbox] view walks the recipient's bit row ascending
   when read, so the sorted-by-sender contract costs no sort and no copy.
   Rows keep their capacity across rounds — [begin_round] only clears the
   bitmatrix and bumps [epoch], which is how a view knows it is stale. *)
type 'msg t = {
  n : int;
  stride : int; (* bytes per recipient row in [seen] *)
  mutable honest_messages : int;
  mutable adversary_messages : int;
  mutable rejected_forgeries : int;
  seen : Bytes.t; (* bit (dst * stride * 8) + src: pair delivered this round *)
  rows : 'msg array option array; (* rows.(dst).(src): payload, if seen *)
  mutable delivered_rev : 'msg Types.letter list;
  mutable delivered_count : int;
  mutable track_delivered : bool;
  mutable scratch : 'msg Types.letter array; (* [post_last_wins] staging *)
  mutable fault_filter : fault_filter option;
  mutable round : Types.round;
  mutable epoch : int; (* [begin_round] calls so far *)
  mutable fault_dropped : int;
  mutable fault_duplicated : int;
  mutable fault_delayed : int;
}

let create ~n =
  if n < 0 then invalid_arg "Mailbox.create: n < 0";
  let stride = (n + 7) lsr 3 in
  {
    n;
    stride;
    honest_messages = 0;
    adversary_messages = 0;
    rejected_forgeries = 0;
    seen = Bytes.make (n * stride) '\000';
    rows = Array.make n None;
    delivered_rev = [];
    delivered_count = 0;
    track_delivered = true;
    scratch = [||];
    fault_filter = None;
    round = 0;
    epoch = 0;
    fault_dropped = 0;
    fault_duplicated = 0;
    fault_delayed = 0;
  }

let set_fault_filter mb f = mb.fault_filter <- Some f

let set_delivered_tracking mb on = mb.track_delivered <- on

let decide mb ~round ~src ~dst =
  match mb.fault_filter with
  | None -> Deliver
  | Some f -> (
      match f ~round ~src ~dst with
      | Deliver -> Deliver
      | Drop ->
          mb.fault_dropped <- mb.fault_dropped + 1;
          Drop
      | Duplicate ->
          mb.fault_duplicated <- mb.fault_duplicated + 1;
          Duplicate
      | Delay d ->
          mb.fault_delayed <- mb.fault_delayed + 1;
          Delay d)

let fault_stats mb ~crashed =
  {
    Report.dropped = mb.fault_dropped;
    duplicated = mb.fault_duplicated;
    delayed = mb.fault_delayed;
    crashed;
  }

let screen mb ~adversary ~corrupted letters =
  List.filter
    (fun (l : _ Types.letter) ->
      if l.dst < 0 || l.dst >= mb.n then false
      else if Party_set.mem corrupted l.src then true
      else begin
        mb.rejected_forgeries <- mb.rejected_forgeries + 1;
        Log.warn (fun f ->
            f "adversary %s tried to forge honest sender p%d" adversary l.src);
        false
      end)
    letters

let note_honest mb k = mb.honest_messages <- mb.honest_messages + k

let note_adversary mb k = mb.adversary_messages <- mb.adversary_messages + k

let begin_round ~round mb =
  mb.round <- round;
  mb.epoch <- mb.epoch + 1;
  Bytes.fill mb.seen 0 (Bytes.length mb.seen) '\000';
  mb.delivered_rev <- [];
  mb.delivered_count <- 0

let post_direct mb ~src ~dst body =
  if src < 0 || src >= mb.n || dst < 0 || dst >= mb.n then
    invalid_arg
      (Printf.sprintf "Mailbox.post: pair (%d, %d) outside [0, %d)" src dst
         mb.n);
  (* The fault decision comes before per-pair dedup: a dropped first
     submission does not occupy the pair's delivery slot, so a later
     duplicate submission may still get through. [Duplicate]/[Delay] have
     no synchronous reading and deliver normally (the compiler in
     [Aat_faults.Inject] never emits them for the sync engine). *)
  let deliver =
    match decide mb ~round:mb.round ~src ~dst with
    | Drop -> false
    | Deliver | Duplicate | Delay _ -> true
  in
  if deliver then begin
    let byte = (dst * mb.stride) + (src lsr 3) in
    let mask = 1 lsl (src land 7) in
    let c = Char.code (Bytes.unsafe_get mb.seen byte) in
    if c land mask = 0 then begin
      Bytes.unsafe_set mb.seen byte (Char.unsafe_chr (c lor mask));
      (match mb.rows.(dst) with
      | Some row -> Array.unsafe_set row src body
      | None ->
          (* First delivery to this recipient ever: allocate its payload
             row, using the payload itself as the (never-read) filler. *)
          mb.rows.(dst) <- Some (Array.make mb.n body));
      mb.delivered_count <- mb.delivered_count + 1;
      if mb.track_delivered then
        mb.delivered_rev <- { Types.src; dst; body } :: mb.delivered_rev
    end
  end

let post mb (l : _ Types.letter) = post_direct mb ~src:l.src ~dst:l.dst l.body

let post_last_wins mb letters =
  (* Last submitted wins = post in reverse submission order under
     first-posted-wins. The batch is staged into a reusable scratch array
     and walked end-to-start: no [List.rev] allocation, and the fault
     filter sees its decisions in exactly the order it always did (one
     draw per submission, most recent first). *)
  match letters with
  | [] -> ()
  | first :: _ ->
      let k = List.length letters in
      if Array.length mb.scratch < k then
        mb.scratch <- Array.make (max 64 (2 * k)) first;
      let scratch = mb.scratch in
      let i = ref 0 in
      List.iter
        (fun l ->
          scratch.(!i) <- l;
          incr i)
        letters;
      for j = k - 1 downto 0 do
        post mb scratch.(j)
      done

let inbox mb p =
  if p < 0 || p >= mb.n then Inbox.empty
  else
    let epoch = mb.epoch and round = mb.round in
    Inbox.make (fun f ->
        if mb.epoch <> epoch then
          invalid_arg
            (Printf.sprintf
               "Mailbox.inbox: p%d's round-%d inbox read in round %d (an \
                inbox is valid only during its round)"
               p round mb.round);
        match mb.rows.(p) with
        | None -> ()
        | Some row ->
            (* Walk the recipient's seen-bit row ascending: senders come
               out sorted, O(n/8) byte scans plus one call per letter. *)
            let base = p * mb.stride in
            for byte = 0 to mb.stride - 1 do
              let c = Char.code (Bytes.unsafe_get mb.seen (base + byte)) in
              if c <> 0 then
                for bit = 0 to 7 do
                  if c land (1 lsl bit) <> 0 then begin
                    let src = (byte lsl 3) lor bit in
                    f src (Array.unsafe_get row src)
                  end
                done
            done)

let delivered mb = mb.delivered_rev

let delivered_count mb = mb.delivered_count

let honest_messages mb = mb.honest_messages

let adversary_messages mb = mb.adversary_messages

let rejected_forgeries mb = mb.rejected_forgeries

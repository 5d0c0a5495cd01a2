module Json = Aat_telemetry.Jsonx

let sort_labels labels =
  List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) labels

(* ------------------------------------------------------------------ *)
(* snapshots *)

module Snapshot = struct
  type value =
    | Counter of float
    | Gauge of float
    | Histogram of {
        bounds : float list;
        counts : int list;
        overflow : int;
        sum : float;
        count : int;
      }

  type series = { name : string; labels : (string * string) list; value : value }
  type t = series list

  let series ?(labels = []) name value =
    { name; labels = sort_labels labels; value }

  let compare_series a b =
    match String.compare a.name b.name with
    | 0 -> compare a.labels b.labels
    | c -> c

  let merge_values a b =
    match (a, b) with
    | Counter x, Counter y -> Counter (x +. y)
    | Gauge x, Gauge y -> Gauge (Float.max x y)
    | ( Histogram h1,
        Histogram h2 )
      when h1.bounds = h2.bounds ->
        Histogram
          {
            bounds = h1.bounds;
            counts = List.map2 ( + ) h1.counts h2.counts;
            overflow = h1.overflow + h2.overflow;
            sum = h1.sum +. h2.sum;
            count = h1.count + h2.count;
          }
    | left, _ -> left

  let of_list series =
    let sorted = List.stable_sort compare_series series in
    let rec squash = function
      | a :: b :: rest when compare_series a b = 0 ->
          squash ({ a with value = merge_values a.value b.value } :: rest)
      | a :: rest -> a :: squash rest
      | [] -> []
    in
    squash sorted

  let merge a b = of_list (a @ b)

  let equal a b = a = b

  let format_version = 1

  let json_of_series s =
    let labels =
      if s.labels = [] then []
      else
        [
          ( "labels",
            Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) s.labels) );
        ]
    in
    let body =
      match s.value with
      | Counter v -> [ ("kind", Json.Str "counter"); ("value", Json.Num v) ]
      | Gauge v -> [ ("kind", Json.Str "gauge"); ("value", Json.Num v) ]
      | Histogram h ->
          [
            ("kind", Json.Str "histogram");
            ("bounds", Json.Arr (List.map (fun b -> Json.Num b) h.bounds));
            ( "counts",
              Json.Arr (List.map (fun c -> Json.Num (float_of_int c)) h.counts)
            );
            ("overflow", Json.Num (float_of_int h.overflow));
            ("sum", Json.Num h.sum);
            ("count", Json.Num (float_of_int h.count));
          ]
    in
    Json.Obj ((("name", Json.Str s.name) :: labels) @ body)

  let to_json t =
    Json.Obj
      [
        ("type", Json.Str "metrics-snapshot");
        ("format_version", Json.Num (float_of_int format_version));
        ("series", Json.Arr (List.map json_of_series t));
      ]

  let series_of_json j =
    let open Json in
    let ( let* ) = Option.bind in
    let* name = Option.bind (member "name" j) to_str in
    let labels =
      match member "labels" j with
      | Some (Obj kvs) ->
          List.filter_map
            (fun (k, v) -> Option.map (fun s -> (k, s)) (to_str v))
            kvs
      | _ -> []
    in
    let* kind = Option.bind (member "kind" j) to_str in
    let* value =
      match kind with
      | "counter" ->
          Option.map (fun v -> Counter v) (Option.bind (member "value" j) to_float)
      | "gauge" ->
          Option.map (fun v -> Gauge v) (Option.bind (member "value" j) to_float)
      | "histogram" ->
          let nums field =
            Option.bind (member field j) to_list
            |> Option.map (List.filter_map to_float)
          in
          let ints field =
            Option.bind (member field j) to_list
            |> Option.map (List.filter_map to_int)
          in
          let* bounds = nums "bounds" in
          let* counts = ints "counts" in
          let* overflow = Option.bind (member "overflow" j) to_int in
          let* sum = Option.bind (member "sum" j) to_float in
          let* count = Option.bind (member "count" j) to_int in
          if List.length bounds <> List.length counts then None
          else Some (Histogram { bounds; counts; overflow; sum; count })
      | _ -> None
    in
    Some { name; labels = sort_labels labels; value }

  let of_json j =
    match Json.member "series" j with
    | Some (Json.Arr items) ->
        let rec go acc = function
          | [] -> Ok (of_list (List.rev acc))
          | item :: rest -> (
              match series_of_json item with
              | Some s -> go (s :: acc) rest
              | None -> Error "metrics-snapshot: malformed series entry")
        in
        go [] items
    | _ -> Error "metrics-snapshot: missing series array"

  (* render a sample value with the Jsonx number rule so the exposition
     is as deterministic as the JSON twin *)
  let num f =
    let buf = Buffer.create 24 in
    Json.add buf (Json.Num f);
    Buffer.contents buf

  let escape_label_value v =
    let buf = Buffer.create (String.length v) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string buf "\\\\"
        | '"' -> Buffer.add_string buf "\\\""
        | '\n' -> Buffer.add_string buf "\\n"
        | c -> Buffer.add_char buf c)
      v;
    Buffer.contents buf

  let render_labels = function
    | [] -> ""
    | labels ->
        "{"
        ^ String.concat ","
            (List.map
               (fun (k, v) ->
                 Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
               labels)
        ^ "}"

  let to_prometheus t =
    let buf = Buffer.create 1024 in
    let typed = Hashtbl.create 16 in
    List.iter
      (fun s ->
        let kind =
          match s.value with
          | Counter _ -> "counter"
          | Gauge _ -> "gauge"
          | Histogram _ -> "histogram"
        in
        if not (Hashtbl.mem typed s.name) then begin
          Hashtbl.add typed s.name ();
          Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" s.name kind)
        end;
        match s.value with
        | Counter v | Gauge v ->
            Buffer.add_string buf
              (Printf.sprintf "%s%s %s\n" s.name (render_labels s.labels)
                 (num v))
        | Histogram h ->
            let cumulative = ref 0 in
            List.iter2
              (fun bound count ->
                cumulative := !cumulative + count;
                Buffer.add_string buf
                  (Printf.sprintf "%s_bucket%s %d\n" s.name
                     (render_labels (s.labels @ [ ("le", num bound) ]))
                     !cumulative))
              h.bounds h.counts;
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket%s %d\n" s.name
                 (render_labels (s.labels @ [ ("le", "+Inf") ]))
                 h.count);
            Buffer.add_string buf
              (Printf.sprintf "%s_sum%s %s\n" s.name (render_labels s.labels)
                 (num h.sum));
            Buffer.add_string buf
              (Printf.sprintf "%s_count%s %d\n" s.name
                 (render_labels s.labels) h.count))
      t;
    Buffer.contents buf
end

(* ------------------------------------------------------------------ *)
(* campaign series: each cell contributes its own series, and
   [Snapshot.of_list] sums the counters and histograms and keeps the
   largest spread *)

let rounds_buckets = [ 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256. ]

(* one observation of [r]: a 1 in the first bucket whose bound is >= r,
   or in the +Inf bucket past the last *)
let rounds_used r =
  let v = float_of_int r in
  let rec place lower = function
    | [] -> []
    | b :: rest -> (if lower < v && v <= b then 1 else 0) :: place b rest
  in
  let counts = place neg_infinity rounds_buckets in
  let overflow = 1 - List.fold_left ( + ) 0 counts in
  Snapshot.Histogram
    { bounds = rounds_buckets; counts; overflow; sum = v; count = 1 }

let cell_series payload =
  let count ?labels name v =
    Snapshot.series ?labels name (Counter (float_of_int v))
  in
  let outcome =
    match payload with
    | Error _ ->
        [
          count "campaign_cell_errors_total" 1;
          count ~labels:[ ("status", "engine-error") ] "campaign_statuses_total" 1;
        ]
    | Ok j ->
        let int name = Option.bind (Json.member name j) Json.to_int in
        let str name = Option.bind (Json.member name j) Json.to_str in
        let holds name = Json.member name j <> Some (Json.Bool false) in
        let grade =
          if str "grade" = Some "excused" then "excused"
          else if holds "termination" && holds "validity" && holds "agreement"
          then "passed"
          else "violated"
        in
        let status = Option.value (str "status") ~default:"completed" in
        let total name field = Option.to_list (Option.map (count name) (int field)) in
        count ~labels:[ ("grade", grade) ] "campaign_grades_total" 1
        :: count ~labels:[ ("status", status) ] "campaign_statuses_total" 1
        :: (match int "rounds_used" with
           | Some r ->
               [
                 count "campaign_rounds_total" r;
                 Snapshot.series "campaign_rounds_used" (rounds_used r);
               ]
           | None -> [])
        @ total "campaign_honest_messages_total" "honest_messages"
        @ total "campaign_adversary_messages_total" "adversary_messages"
        @ (match Json.member "faults" j with
          | Some (Json.Obj kinds) ->
              List.filter_map
                (fun (kind, v) ->
                  match Json.to_int v with
                  | Some n when n > 0 ->
                      Some
                        (count ~labels:[ ("kind", kind) ]
                           "campaign_faults_injected_total" n)
                  | _ -> None)
                kinds
          | _ -> [])
        @ (match Json.member "watchdog_violations" j with
          | Some (Json.Arr vs) ->
              [ count "campaign_watchdog_violations_total" (List.length vs) ]
          | _ -> [])
        @
        match Option.bind (Json.member "spread" j) Json.to_float with
        | Some s -> [ Snapshot.series "campaign_spread_max" (Gauge s) ]
        | None -> []
  in
  count "campaign_cells_total" 1 :: outcome

let campaign payloads = Snapshot.of_list (List.concat_map cell_series payloads)

(* ------------------------------------------------------------------ *)
(* atomic file writes (stdlib only — same temp+rename discipline as the
   service checkpoints) *)

let write_atomic ~path contents =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc contents;
  close_out oc;
  Sys.rename tmp path

(* Grammars as values: every combinator builds its parser and its printer
   side by side. The shared lexical rules are listed in codec.mli. *)

type 'a t = { parse : string -> ('a, string) result; print : 'a -> string }

let parse c = c.parse
let print c = c.print
let ( let* ) = Result.bind
let fail fmt = Printf.ksprintf (fun m -> Error m) fmt

(* the one number reader *)
let number what read print =
  let parse s =
    match read (String.trim s) with
    | Some v -> Ok v
    | None -> fail "expected %s, got %S" what s
  in
  { parse; print }

let int = number "an integer" int_of_string_opt string_of_int
let float = number "a number" float_of_string_opt (Printf.sprintf "%.12g")

let conv check back c =
  {
    parse = (fun s -> Result.bind (c.parse s) check);
    print = (fun v -> c.print (back v));
  }

(* split at the first [sep] *)
let cut sep s =
  Option.map
    (fun i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1)))
    (String.index_opt s sep)

let pair_opt sep a b =
  let parse s =
    match cut sep s with
    | None -> Result.map (fun x -> (x, None)) (a.parse s)
    | Some (x, y) ->
        let* x = a.parse x in
        let* y = b.parse y in
        Ok (x, Some y)
  in
  let print = function
    | x, None -> a.print x
    | x, Some y -> Printf.sprintf "%s%c%s" (a.print x) sep (b.print y)
  in
  { parse; print }

let pair sep a b =
  conv
    (function x, Some y -> Ok (x, y) | _, None -> fail "missing '%c'" sep)
    (fun (x, y) -> (x, Some y))
    (pair_opt sep a b)

(* the first error wins *)
let all results =
  List.fold_right
    (fun r acc -> Result.bind r (fun x -> Result.map (List.cons x) acc))
    results (Ok [])

let join sep xs = String.concat (String.make 1 sep) xs

let list sep a =
  {
    parse = (fun s -> all (List.map a.parse (String.split_on_char sep s)));
    print = (fun xs -> join sep (List.map a.print xs));
  }

let suffix a names =
  let parse s =
    match List.find_opt (fun (n, _) -> String.ends_with ~suffix:n s) names with
    | None ->
        fail "expected %S to end in one of %s" s
          (String.concat ", " (List.map fst names))
    | Some (n, v) ->
        let* x = a.parse (String.sub s 0 (String.length s - String.length n)) in
        Ok (x, v)
  in
  let print (x, v) =
    a.print x ^ fst (List.find (fun (_, w) -> compare v w = 0) names)
  in
  { parse; print }

let print_clauses seps = function [] -> "none" | xs -> join seps.[0] xs

(* the one clause splitter *)
let clauses seps a =
  let split s =
    String.fold_left
      (fun parts sep -> List.concat_map (String.split_on_char sep) parts)
      [ s ] seps
  in
  let parse s =
    match String.trim s with
    | "" | "none" -> Ok []
    | s ->
        split s |> List.map String.trim
        |> List.filter (( <> ) "")
        |> List.map a.parse |> all
  in
  { parse; print = (fun xs -> print_clauses seps (List.map a.print xs)) }

type 'a case = {
  name : string;
  headed : bool;  (* [name:BODY] rather than the bare name *)
  read : string -> ('a, string) result;
  show : 'a -> string option;
}

let const name v =
  let show x = if compare x v = 0 then Some name else None in
  { name; headed = false; read = (fun _ -> Ok v); show }

let case name body inject project =
  let read s = Result.map inject (body.parse s) in
  let show x = Option.map (fun y -> name ^ ":" ^ body.print y) (project x) in
  { name; headed = true; read; show }

let cases what table =
  let find headed name =
    List.find_opt (fun c -> c.headed = headed && c.name = name) table
  in
  let unknown s =
    let names =
      List.map (fun c -> if c.headed then c.name ^ ":..." else c.name) table
    in
    fail "unknown %s %S (want %s)" what s (String.concat ", " names)
  in
  let parse s =
    match (find false s, cut ':' s) with
    | Some c, _ -> c.read s
    | None, Some (head, body) -> (
        match find true head with
        | Some c -> Result.map_error (fun m -> head ^ ": " ^ m) (c.read body)
        | None -> unknown s)
    | None, None -> unknown s
  in
  let print v =
    match List.find_map (fun c -> c.show v) table with
    | Some s -> s
    | None -> invalid_arg ("Codec.print: no case of " ^ what ^ " fits")
  in
  { parse; print }

type 'r field = { set : ('r -> 'r) case; get : 'r -> string option }

let field name body get set =
  {
    set = case name body (fun b r -> set r b) (fun _ -> None);
    get = (fun r -> Option.map (fun b -> name ^ ":" ^ body.print b) (get r));
  }

let fields what seps init table =
  let clause = cases what (List.map (fun f -> f.set) table) in
  let parse s =
    Result.map
      (fun sets -> List.fold_right (fun set r -> set r) sets init)
      ((clauses seps clause).parse s)
  in
  let print r = print_clauses seps (List.filter_map (fun f -> f.get r) table) in
  { parse; print }

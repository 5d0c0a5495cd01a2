type 'msg view = {
  round : Types.round;
  n : int;
  t : int;
  corrupted : bool array;
  honest_outbox : 'msg Types.letter list Lazy.t;
  history : 'msg Types.letter list list;
  rng : Aat_util.Rng.t;
}

type 'msg t = {
  name : string;
  passive : bool;
  reads_history : bool;
  initial_corruptions : n:int -> t:int -> Aat_util.Rng.t -> Types.party_id list;
  corrupt_more : 'msg view -> Types.party_id list;
  deliver : 'msg view -> 'msg Types.letter list;
}

let passive name =
  {
    name;
    passive = true;
    reads_history = false;
    initial_corruptions = (fun ~n:_ ~t:_ _ -> []);
    corrupt_more = (fun _ -> []);
    deliver = (fun _ -> []);
  }

let static ~name ~pick ~deliver =
  {
    name;
    passive = false;
    reads_history = false;
    initial_corruptions = pick;
    corrupt_more = (fun _ -> []);
    deliver;
  }

let corrupted_parties view =
  List.filter (fun p -> view.corrupted.(p)) (List.init view.n Fun.id)

let honest_parties view =
  List.filter (fun p -> not view.corrupted.(p)) (List.init view.n Fun.id)

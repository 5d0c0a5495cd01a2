(* A fixed reference kernel, timed before every repetition to read how fast
   the machine runs at that moment. On a shared host the speed of the same
   code drifts by tens of percent over seconds and minutes (the guest sees
   no steal time: the loss shows up as user time); dividing a run's time by
   the kernel's time over the same stretch cancels the common part.

   The kernel uses nothing from the library, so no library change moves it.
   Its mix follows the workloads' profile: random read-modify-writes over a
   32 MB buffer outside the OCaml heap (cache and memory pressure), and
   short-lived boxed allocation with a small hash table and a list sort
   (minor GC). It keeps nothing alive on the OCaml heap between calls, so it
   neither sets [heap_peak_mb] nor slows the workloads' major GC. *)

let buffer = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (4 * 1024 * 1024)
let () = Bigarray.Array1.fill buffer 0

let kernel () =
  let x = ref 12345 and s = ref 0 in
  let next () =
    x := ((!x * 1103515245) + 12345) land 0x3FFF_FFFF;
    !x
  in
  let mask = Bigarray.Array1.dim buffer - 1 in
  for _ = 1 to 1 lsl 20 do
    let j = next () land mask in
    s := !s + Bigarray.Array1.unsafe_get buffer j;
    Bigarray.Array1.unsafe_set buffer j (!s land 0xFFFF)
  done;
  let keys = 1 lsl 13 in
  let h = Hashtbl.create keys in
  for i = 0 to keys - 1 do
    Hashtbl.replace h (next () land 0xFFFFF) (i, string_of_int i)
  done;
  for _ = 1 to 8 do
    for _ = 1 to keys do
      match Hashtbl.find_opt h (next () land 0xFFFFF) with
      | Some (i, _) -> s := !s + i
      | None -> ()
    done;
    let l = List.init keys (fun _ -> next () land 0xFFFF) in
    s := !s + List.hd (List.sort compare l)
  done;
  !s

(* Seconds one kernel call takes now. *)
let sample () =
  let t0 = Treeagree.Service_clock.now () in
  ignore (Sys.opaque_identity (kernel ()));
  Treeagree.Service_clock.now () -. t0

(* Kernel calls for about [budget] seconds, at least one: their times. *)
let samples ~budget =
  let rec go acc spent =
    if acc <> [] && spent >= budget then acc
    else
      let s = sample () in
      go (s :: acc) (spent +. s)
  in
  go [] 0.

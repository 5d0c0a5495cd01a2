(* Parallel slot arrays plus an argmin tree over [key].

   [tree] holds [2 * base] node entries: leaf [base + j] is fixed at slot
   [j] and every internal node holds the argmin of its children's slots,
   ties to the left. Leaf order is slot order, so the root is the
   leftmost slot with the minimal key. Freed slots are keyed [max_int].

   A FIFO ring would do if keys were monotone, but [Delay] faults stamp
   letters into the future, so the minimum is not always the oldest
   insertion and an argmin structure is needed.

   Changing one slot's key only invalidates the nodes on its leaf-to-root
   path, and the walk can stop early: once a node's recomputed argmin
   equals its old value and that value is not the changed slot, the node
   reports the same slot with the same key as before, so no ancestor can
   change. If the old value {e is} the changed slot, its key moved, and
   the ancestors must be recomputed even though the slot stayed put. An
   add (a free [max_int] slot taking a key at the end) and the freed tail
   slot of a removal usually stop within a level or two; moving the tail
   into the removed oldest slot walks to the root. *)

type 'msg t = {
  mutable len : int;
  mutable base : int; (* capacity; a power of two, or 0 before the first add *)
  mutable src : int array;
  mutable dst : int array;
  mutable body : 'msg array;
  mutable key : int array;
  mutable tree : int array;
}

let create () =
  { len = 0; base = 0; src = [||]; dst = [||]; body = [||]; key = [||];
    tree = [||] }

let length p = p.len

let is_empty p = p.len = 0

(* Recompute node [v] and its ancestors after slot [j]'s key changed. *)
let rec update_from (tree : int array) (key : int array) j v =
  if v >= 1 then begin
    let l = tree.(2 * v) and r = tree.((2 * v) + 1) in
    let m = if key.(l) <= key.(r) then l else r in
    let old = tree.(v) in
    if m <> old || old = j then begin
      tree.(v) <- m;
      update_from tree key j (v lsr 1)
    end
  end

let update p j = update_from p.tree p.key j ((p.base + j) lsr 1)

let grow p filler =
  let cap = max 16 (2 * p.base) in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 p.len;
    b
  in
  p.src <- extend p.src 0;
  p.dst <- extend p.dst 0;
  p.body <- extend p.body filler;
  p.key <- extend p.key max_int;
  p.base <- cap;
  let tree = Array.make (2 * cap) 0 in
  for j = 0 to cap - 1 do
    tree.(cap + j) <- j
  done;
  for v = cap - 1 downto 1 do
    let l = tree.(2 * v) and r = tree.((2 * v) + 1) in
    tree.(v) <- (if p.key.(l) <= p.key.(r) then l else r)
  done;
  p.tree <- tree

let add p ~src ~dst ~key body =
  if p.len = p.base then grow p body;
  let j = p.len in
  p.src.(j) <- src;
  p.dst.(j) <- dst;
  p.body.(j) <- body;
  p.key.(j) <- key;
  p.len <- j + 1;
  update p j

let remove p i =
  if i < 0 || i >= p.len then invalid_arg "Pending.remove";
  let last = p.len - 1 in
  p.len <- last;
  if i < last then begin
    p.src.(i) <- p.src.(last);
    p.dst.(i) <- p.dst.(last);
    p.body.(i) <- p.body.(last);
    p.key.(i) <- p.key.(last);
    update p i
  end;
  p.key.(last) <- max_int;
  update p last

let oldest_slot p = p.tree.(1)

let src p i = p.src.(i)

let dst p i = p.dst.(i)

let body p i = p.body.(i)

let key p i = p.key.(i)

(* Per-tid slots built on first use (tid_table.mli).  The sentinel is
   the caller's, so entries need no option box.  [get] loads [slots] and
   [absent] from the record; ['a array] makes the slot read generic. *)

type 'a t = { slots : 'a array; absent : 'a; build : int -> 'a }

let create ~absent build = { slots = Array.make Topology.max_cores absent; absent; build }

let fill t tid =
  let x = t.build tid in
  t.slots.(tid) <- x;
  x

let[@inline] get t tid =
  let x = t.slots.(tid) in
  if x != t.absent then x else fill t tid

let iter f t = Array.iter (fun x -> if x != t.absent then f x) t.slots

let fold f acc t =
  Array.fold_left (fun acc x -> if x == t.absent then acc else f acc x) acc t.slots

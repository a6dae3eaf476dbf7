(* A lazily populated table of modelled cache lines (DESIGN.md §12).

   The paper's lock table is a flat array of adjacent lock words, one
   entry per stripe.  Built eagerly, every entry costs separate heap
   blocks (the cells, their [Atomic]s and the modelled line), which made
   engine construction the largest host cost of short simulations.  Here
   construction allocates only the slot array; a line and its cells are
   allocated on first touch.

   The slot of a line is written exactly once, from [absent] to a fully
   built line, under [lock] after a re-check, so every caller obtains the
   physically same cells.  The fast path reads the slot plainly: a racing
   reader sees either the sentinel (and takes the mutex, where it finds
   the line) or the line, whose fields were initialized before it was
   published — OCaml 5 never exposes an uninitialized block through a
   data race.  A first touch charges no simulated cycles and a fresh line
   equals [Tmatomic.fresh_line ()], so laziness is schedule-invisible. *)

type t = {
  slots : Tmatomic.t array array;
  init : int array;
  lock : Mutex.t;
}

(* The empty array: no built line is empty, so the compare is exact. *)
let absent : Tmatomic.t array = [||]

let create n ~init =
  if Array.length init = 0 then invalid_arg "Line_table.create: empty line";
  { slots = Array.make n absent; init = Array.copy init; lock = Mutex.create () }

(* A fresh line: its cells share one new modelled cache line. *)
let build init =
  let line = Tmatomic.fresh_line () in
  let e = Array.make (Array.length init) (Tmatomic.make_shared line init.(0)) in
  for j = 1 to Array.length init - 1 do
    e.(j) <- Tmatomic.make_shared line init.(j)
  done;
  e

(* Nothing between [lock] and [unlock] can raise but [Out_of_memory]. *)
let touch t i =
  Mutex.lock t.lock;
  let e = t.slots.(i) in
  let e =
    if e != absent then e
    else begin
      let e = build t.init in
      t.slots.(i) <- e;
      e
    end
  in
  Mutex.unlock t.lock;
  e

let cell t i j =
  let e = t.slots.(i) in
  (if e != absent then e else touch t i).(j)

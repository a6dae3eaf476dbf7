(* A lazily populated table of modelled cache lines (DESIGN.md §12).

   The paper's lock table is a flat array of lock words, one per stripe.
   Here the slots come in chunks of 512: construction allocates only the
   chunk index, a chunk is allocated on the first touch of one of its
   slots and a line on the first touch of its own slot.

   Chunk and line are each written once, under [lock] after a re-check,
   so every caller obtains the physically same cells.  [line] reads
   plainly: a racing reader sees a sentinel (and takes the mutex) or a
   fully built block, which OCaml 5 never exposes uninitialized.
   Touching charges no simulated cycles and a fresh line equals
   [Tmatomic.fresh_line ()], so laziness is schedule-invisible. *)

type t = {
  chunks : Tmatomic.t array array array;
  init : int array;
  lock : Mutex.t;
}

let chunk_bits = 9
let chunk_mask = (1 lsl chunk_bits) - 1

(* No line is empty, so the compare is exact; [absent_chunk] is never written. *)
let absent : Tmatomic.t array = [||]
let absent_chunk = Array.make (1 lsl chunk_bits) absent

let create n ~init =
  if Array.length init = 0 then invalid_arg "Line_table.create: empty line";
  let chunks = Array.make ((n + chunk_mask) lsr chunk_bits) absent_chunk in
  { chunks; init = Array.copy init; lock = Mutex.create () }

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
  let k = i lsr chunk_bits and j = i land chunk_mask in
  if t.chunks.(k) == absent_chunk then
    t.chunks.(k) <- Array.make (1 lsl chunk_bits) absent;
  let c = t.chunks.(k) in
  if c.(j) == absent then c.(j) <- build t.init;
  let e = c.(j) in
  Mutex.unlock t.lock;
  e

let[@inline] slot t i = Array.unsafe_get t.chunks.(i lsr chunk_bits) (i land chunk_mask)

(* The per-access path: two loads and a compare, inlined into callers. *)
let[@inline] line t i =
  let e = slot t i in
  if e != absent then e else touch t i

let[@inline] cell t i j = (line t i).(j)

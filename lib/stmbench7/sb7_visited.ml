(* The visited set of one thread's part-graph walks.

   An open-addressing set of heap addresses with linear probing.  Each
   slot carries the generation stamp of the walk that filled it, and a
   slot whose stamp is not the current walk's is empty, so starting a
   walk is one increment: the table is reused, never cleared.  The load
   factor stays at most 1/2 (the table doubles when an insertion passes
   it), so every probe meets an empty slot and any graph size is correct;
   once a thread's largest walk fits, walks allocate nothing.

   There is no bloom filter and no journal, as [Stm_intf.Rset] has: a
   DFS asks only "first time here?". *)

type t = {
  mutable slots : int array;  (* [2i]: address, [2i+1]: stamp of slot [i] *)
  mutable bits : int;  (* capacity = 2^bits slots *)
  mutable count : int;  (* members of the current walk *)
  mutable gen : int;  (* the current walk's stamp; fresh slots hold 0 *)
}

let create () = { slots = Array.make (2 lsl 6) 0; bits = 6; count = 0; gen = 1 }

(* Multiplicative hashing: the top [bits] bits of [addr * k].  Part
   addresses are a fixed stride apart, which the multiply spreads. *)
let[@inline] home addr bits = (addr * 0x2545F4914F6CDD1D) lsr (63 - bits)

(* Claims [addr]'s slot for walk [gen]: [true] if [addr] was not yet a
   member (and is now), [false] if it was.  Top level over explicit
   arguments, so a call allocates no closure; typed [int], so its
   compares are machine compares, not polymorphic ones. *)
let rec claim (slots : int array) mask (gen : int) (addr : int) i =
  let j = 2 * i in
  if Array.unsafe_get slots (j + 1) <> gen then begin
    Array.unsafe_set slots j addr;
    Array.unsafe_set slots (j + 1) gen;
    true
  end
  else if Array.unsafe_get slots j = addr then false
  else claim slots mask gen addr ((i + 1) land mask)

let claim_in slots bits gen addr =
  claim slots ((1 lsl bits) - 1) gen addr (home addr bits)

(* Double the table, moving the current walk's members. *)
let grow t =
  let old = t.slots and bits = t.bits + 1 in
  let slots = Array.make (2 lsl bits) 0 in
  for i = 0 to (Array.length old / 2) - 1 do
    if old.((2 * i) + 1) = t.gen then
      ignore (claim_in slots bits t.gen old.(2 * i) : bool)
  done;
  t.slots <- slots;
  t.bits <- bits

(** Start a new walk: the set is empty again. *)
let start t =
  t.gen <- t.gen + 1;
  t.count <- 0

(** [add t addr] is [true] if [addr] was not yet visited in this walk,
    and marks it visited. *)
let add t addr =
  if claim_in t.slots t.bits t.gen addr then begin
    t.count <- t.count + 1;
    if 2 * t.count > 1 lsl t.bits then grow t;
    true
  end
  else false

(* Per-thread table: one slot per logical thread, each holding the shared
   sentinel [absent] until that thread's first walk builds its set (as
   [Kernel.Driver] builds descriptors), so building a model costs the slot
   array, not a set per thread.  A slot is written and read only by the
   thread running as its tid. *)
let absent = create ()
let make_table () = Array.make Stm_intf.Stats.max_threads absent

let build table tid =
  let s = create () in
  table.(tid) <- s;
  s

let[@inline] for_tid table tid =
  let s = table.(tid) in
  if s != absent then s else build table tid

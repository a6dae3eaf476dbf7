(* Allocation-free read/ownership set for the transactional fast path.

   Engines keep three kinds of stripe sets besides the redo log: the read
   set (stripe or stripe/version pairs appended per read, validated or
   truncated wholesale), the lazy write-stripe set (stripes deduplicated at
   write time, acquired at commit), and visible-reader sets.  PR-5 spread
   these over [Ivec] pairs plus a shadow [Wlog] used only for dedup; this
   merges each into one structure with [Wlog]'s cost model:

   - an interleaved (key, value) journal over one unboxed [int array]:
     appends preserve insertion order (validation and publication iterate
     the journal, never the index, so probe-order changes can't perturb
     engine behaviour), reads are two unchecked loads;

   - an open-addressing key index (linear probing, power-of-two capacity,
     fibonacci multiplicative hashing) used only by the dedup entry point
     [add_unique] and by [mem] — pure read-set users never pay for it;

   - generation-stamped index slots and a word-sized bloom filter, so
     wholesale [clear] is one counter bump and most [mem] misses skip the
     probe loop entirely;

   - no deletion and no tombstones: sets only grow within a transaction
     and die at commit/abort, which keeps probing simpler than [Wlog]'s.

   A given set is used in exactly one mode per descriptor field: journal
   mode ([push]/[truncate], duplicates allowed, index empty) or index mode
   ([add_unique]/[mem], duplicates rejected).  Mixing modes on one value
   would desynchronize journal and index.

   The per-access entry points ([push], [length], [key], [value]) are
   [[@inline]], so an engine's per-read append and validation walk
   compile to the loads and stores themselves.  The probe loops are
   top-level functions over explicit arguments: a local [let rec] would
   allocate its closure on every call. *)

type t = {
  mutable data : int array;  (* interleaved (key, value) journal *)
  mutable len : int;  (* live pairs *)
  mutable keys : int array;  (* membership index, [add_unique]/[mem] only *)
  mutable gens : int array;  (* index slot live iff = gen *)
  mutable bits : int;  (* index capacity = 1 lsl bits *)
  mutable mask : int;  (* index capacity - 1 *)
  mutable gen : int;  (* current generation, starts at 1, only grows *)
  mutable ilen : int;  (* live index entries *)
  mutable bloom : int;  (* filter over current-generation index keys *)
}

(* Same odd 62-bit multipliers as [Wlog]: well-mixed high bits even for
   sequential stripe indices. *)
let fib = 0x2545F4914F6CDD1D
let fib2 = 0x27220A95FE97B331

let[@inline] bloom_bit k =
  (* top 6 bits of an independent mix, squeezed to 0..62: [1 lsl 63] is
     unspecified for 63-bit OCaml ints *)
  let b = (k * fib2) lsr 57 in
  1 lsl (b * 63 lsr 6)

let create ?(bits = 6) () =
  let bits = max bits 2 in
  let cap = 1 lsl bits in
  {
    data = Array.make (2 * cap) 0;
    len = 0;
    keys = Array.make cap 0;
    gens = Array.make cap 0;
    bits;
    mask = cap - 1;
    gen = 1;
    ilen = 0;
    bloom = 0;
  }

let[@inline] length t = t.len
let[@inline] is_empty t = t.len = 0

let clear t =
  t.len <- 0;
  t.ilen <- 0;
  t.gen <- t.gen + 1;
  t.bloom <- 0

let[@inline] slot_base t k = (k * fib) lsr (63 - t.bits)
let[@inline] key t i = Array.unsafe_get t.data (2 * i)
let[@inline] value t i = Array.unsafe_get t.data ((2 * i) + 1)

let[@inline never] grow_journal t =
  let bigger = Array.make (2 * Array.length t.data) 0 in
  Array.blit t.data 0 bigger 0 (2 * t.len);
  t.data <- bigger

let[@inline] push t k v =
  if 2 * t.len = Array.length t.data then grow_journal t;
  let base = 2 * t.len in
  Array.unsafe_set t.data base k;
  Array.unsafe_set t.data (base + 1) v;
  t.len <- t.len + 1

let truncate t n =
  if n < 0 || n > t.len then invalid_arg "Rset.truncate";
  t.len <- n

let iter f t =
  let data = t.data in
  for i = 0 to t.len - 1 do
    f (Array.unsafe_get data (2 * i)) (Array.unsafe_get data ((2 * i) + 1))
  done

let rec mem_from keys gens mask g k i =
  Array.unsafe_get gens i = g
  && (Array.unsafe_get keys i = k
     || mem_from keys gens mask g k ((i + 1) land mask))

let mem t k =
  t.bloom land bloom_bit k <> 0
  && mem_from t.keys t.gens t.mask t.gen k (slot_base t k)

(* Insert a key known to be absent from slot [i] on (rehash path: no dup
   check). *)
let rec index_fresh t k i =
  if t.gens.(i) = t.gen then index_fresh t k ((i + 1) land t.mask)
  else begin
    t.keys.(i) <- k;
    t.gens.(i) <- t.gen
  end

(* Rehash the index into a doubled table: only current-generation keys
   carry over, so clear-heavy reuse never inflates capacity. *)
let grow_index t =
  let old_keys = t.keys and old_gens = t.gens and old_mask = t.mask in
  let g = t.gen in
  t.bits <- t.bits + 1;
  let cap = 1 lsl t.bits in
  t.mask <- cap - 1;
  t.keys <- Array.make cap 0;
  t.gens <- Array.make cap 0;
  for i = 0 to old_mask do
    if old_gens.(i) = g then begin
      let k = old_keys.(i) in
      index_fresh t k (slot_base t k)
    end
  done

let rec add_from t keys gens mask g k v i =
  if Array.unsafe_get gens i = g then
    Array.unsafe_get keys i <> k
    && add_from t keys gens mask g k v ((i + 1) land mask)
  else begin
    Array.unsafe_set keys i k;
    Array.unsafe_set gens i g;
    t.bloom <- t.bloom lor bloom_bit k;
    t.ilen <- t.ilen + 1;
    (* keep index load below 1/2 so probe chains stay short and the
       probe loop always finds a free slot *)
    if t.ilen lsl 1 > t.mask then grow_index t;
    push t k v;
    true
  end

let add_unique t k v = add_from t t.keys t.gens t.mask t.gen k v (slot_base t k)

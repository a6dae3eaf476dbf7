(* Specialized int->int write log for the transactional redo path.

   Every engine pays one redo-log lookup per transactional read and one
   append per write, so this is the hottest data structure in the system.
   A boxed [Hashtbl] costs a generic-hash C call, an option allocation per
   [find_opt], a cons cell per [add] and a bucket-array allocation per
   [reset].  This replaces it with:

   - open addressing over unboxed [int array]s (linear probing,
     power-of-two capacity, fibonacci multiplicative hashing) — no
     allocation on any lookup or overwrite, one amortized array growth on
     capacity doubling only;

   - generation-stamped slots: a slot is live iff its generation equals the
     table's, so wholesale [clear] is a single counter bump (no rehash, no
     bucket zeroing) — transactions clear the log on every commit/abort;

   - a word-sized bloom filter over the keys of the current generation:
     a read-after-write miss (the common case — reads that hit a stripe the
     transaction wrote but a word it did not) tests one bit and skips the
     probe loop entirely, the same trick TL2 uses for its write-set filter;

   - per-slot mark stamps for closed-nesting savepoints: [record_once]
     tells the caller in O(1) whether an address was already shadow-logged
     in the current scope, replacing an O(n) assoc-list scan per write.

   Deletion ([remove], needed only by savepoint rollback) uses tombstones
   ([-gen]); they die with the generation at the next [clear]. *)

type t = {
  mutable keys : int array;
  mutable vals : int array;
  mutable gens : int array;  (* live iff = gen; tombstone iff = -gen *)
  mutable stamps : int array;  (* savepoint mark of last [record_once] *)
  mutable bits : int;  (* capacity = 1 lsl bits *)
  mutable mask : int;  (* capacity - 1 *)
  mutable len : int;  (* live entries *)
  mutable dead : int;  (* tombstones of the current generation *)
  mutable gen : int;  (* current generation, starts at 1, only grows *)
  mutable mark : int;  (* savepoint mark counter, only grows *)
  mutable bloom : int;  (* filter over current-generation keys *)
}

(* Odd 62-bit multipliers (splitmix64 / golden-ratio constants): the high
   bits of [k * fib] are well mixed even for sequential addresses. *)
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
    keys = Array.make cap 0;
    vals = Array.make cap 0;
    gens = Array.make cap 0;
    stamps = Array.make cap 0;
    bits;
    mask = cap - 1;
    len = 0;
    dead = 0;
    gen = 1;
    mark = 1;
    bloom = 0;
  }

let length t = t.len
let[@inline] is_empty t = t.len = 0

let clear t =
  t.gen <- t.gen + 1;
  t.len <- 0;
  t.dead <- 0;
  t.bloom <- 0

let[@inline] slot_base t k = (k * fib) lsr (63 - t.bits)

(* The probe loops below are top-level functions over explicit arguments:
   a local [let rec] would allocate its closure on every call, and a
   function that builds a closure is never inlined. *)
let rec probe_from keys gens mask g k i =
  let gi = Array.unsafe_get gens i in
  if gi = g && Array.unsafe_get keys i = k then i
  else if gi = g || gi = -g then
    probe_from keys gens mask g k ((i + 1) land mask)
  else -1

(** Slot of [k], or -1 if absent.  The bloom test rejects most misses
    before touching the arrays. *)
let[@inline] probe t k =
  if t.bloom land bloom_bit k = 0 then -1
  else probe_from t.keys t.gens t.mask t.gen k (slot_base t k)

let[@inline] slot_value t s = Array.unsafe_get t.vals s
let mem t k = probe t k >= 0

let iter f t =
  let g = t.gen in
  for i = 0 to t.mask do
    if Array.unsafe_get t.gens i = g then f t.keys.(i) t.vals.(i)
  done

let fold f t init =
  let g = t.gen in
  let acc = ref init in
  for i = 0 to t.mask do
    if Array.unsafe_get t.gens i = g then acc := f t.keys.(i) t.vals.(i) !acc
  done;
  !acc

(* Insert a key known to be absent from slot [i] on (rehash path: no
   tombstones, no dup check, bloom already set). *)
let rec insert_fresh t k v stamp i =
  if t.gens.(i) = t.gen then insert_fresh t k v stamp ((i + 1) land t.mask)
  else begin
    t.keys.(i) <- k;
    t.vals.(i) <- v;
    t.gens.(i) <- t.gen;
    t.stamps.(i) <- stamp
  end

(* Rehash into a clean table: doubled when growth is driven by live
   entries, same-sized when only tombstones filled it up (savepoint
   rollback churn).  Either way tombstones are dropped. *)
let grow t =
  let old_keys = t.keys
  and old_vals = t.vals
  and old_gens = t.gens
  and old_stamps = t.stamps
  and old_mask = t.mask
  and g = t.gen in
  if t.len lsl 2 > old_mask then t.bits <- t.bits + 1;
  t.dead <- 0;
  let cap = 1 lsl t.bits in
  t.mask <- cap - 1;
  t.keys <- Array.make cap 0;
  t.vals <- Array.make cap 0;
  t.gens <- Array.make cap 0;
  t.stamps <- Array.make cap 0;
  for i = 0 to old_mask do
    if old_gens.(i) = g then begin
      let k = old_keys.(i) in
      insert_fresh t k old_vals.(i) old_stamps.(i) (slot_base t k)
    end
  done

(* Overwrite [k] or insert it at the first free slot from [i] on, reusing
   the first tombstone [free] passed on the way. *)
let rec replace_from t keys gens mask g k v i free =
  let gi = Array.unsafe_get gens i in
  if gi = g && Array.unsafe_get keys i = k then Array.unsafe_set t.vals i v
  else if gi = g then
    replace_from t keys gens mask g k v ((i + 1) land mask) free
  else if gi = -g then
    replace_from t keys gens mask g k v ((i + 1) land mask)
      (if free >= 0 then free else i)
  else begin
    let j = if free >= 0 then free else i in
    keys.(j) <- k;
    t.vals.(j) <- v;
    gens.(j) <- g;
    t.stamps.(j) <- t.mark;
    if free >= 0 then t.dead <- t.dead - 1;
    t.bloom <- t.bloom lor bloom_bit k;
    t.len <- t.len + 1;
    (* keep live + tombstone load below 1/2 so probe chains stay short
       and the probe loop always finds a free slot *)
    if (t.len + t.dead) lsl 1 > t.mask then grow t
  end

let replace t k v =
  replace_from t t.keys t.gens t.mask t.gen k v (slot_base t k) (-1)

let remove t k =
  let s = probe t k in
  if s >= 0 then begin
    t.gens.(s) <- -t.gen;
    t.len <- t.len - 1;
    t.dead <- t.dead + 1
    (* the bloom bit stays set: false positives only *)
  end

let bump_mark t = t.mark <- t.mark + 1

let record_once t k =
  let s = probe t k in
  if s < 0 then -1
  else if t.stamps.(s) = t.mark then -2
  else begin
    t.stamps.(s) <- t.mark;
    s
  end

(* The word-addressable transactional heap.

   The paper's STMs operate on raw memory words; here the universe of a
   benchmark is one [Heap.t]: a flat buffer of 64-bit words holding OCaml
   [int]s.  An *address* is a word index into that buffer; address 0 is
   reserved as the null pointer (the first word is never handed out by the
   allocator).

   Plain [read]/[write] are non-transactional and are meant for data
   structure construction before threads start and for verification after
   they join; during a run all accesses must go through an STM engine,
   which guards them with its lock table.  In native mode each word access
   is one aligned 64-bit load or store, so concurrent accesses do not tear
   on 64-bit hosts, the same assumption word-based C STMs make about
   aligned word accesses.  The buffer is [Bytes], which the GC never
   scans (an [int array] was marked word by word in every major cycle).

   Allocation is a bump pointer sharded into per-thread chunks so that
   parallel allocation does not create a synthetic hot spot.  The buffer
   is not cleared when the heap is built: a chunk, or a block too large
   for one, is zeroed when the bump pointer hands it out, so building a
   heap costs nothing per word and only the words a run allocates are
   ever written (a heap is sized for the largest run).  Memory
   allocated by transactions that later abort is leaked, as in TL2's
   simple mode.

   [free] recycles privatized blocks through per-thread exact-size free
   lists (sizes 1..[max_free_words]; larger blocks are leaked and
   counted).  A freed block's first word threads the list, and a thread's
   row of list heads is built on its first [free], so a heap that is
   never freed into costs no list storage.  When the epoch reclaimer is armed ([epoch_on],
   installed by [Epoch.arm] — a hook reference, since [Epoch] sits above
   this module), [free] defers the block to the caller's limbo list
   instead and it reaches [free_now] only after a grace period. *)

type t = {
  words : Bytes.t;  (* word [a] is bytes [8a, 8a + 8) *)
  brk : Runtime.Tmatomic.t;  (* next unshared word *)
  chunk_next : int array;  (* per-thread bump pointer *)
  chunk_limit : int array;  (* per-thread chunk end *)
  free_heads : int array array;  (* per-thread size-class free lists *)
  guard_tbl : (int, unit) Hashtbl.t;  (* addresses currently freed *)
}

let chunk_words = 8192
let max_threads = Runtime.Topology.max_cores
let max_free_words = 64

exception Out_of_memory of { capacity : int; requested : int }

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] word t addr = Int64.to_int (get64 t.words (addr lsl 3))
let[@inline] set_word t addr v = set64 t.words (addr lsl 3) (Int64.of_int v)

let null = 0

(* Every thread's free-list row until its first [free]: all lists empty.
   Only a non-empty list is ever written, so this row never is. *)
let no_frees = Array.make max_free_words 0

let create ~words =
  if words < 1 then invalid_arg "Heap.create";
  let buf = Bytes.create (words lsl 3) in
  set64 buf 0 0L (* the null word; [alloc] zeroes the rest *);
  {
    words = buf;
    brk = Runtime.Tmatomic.make 1 (* skip the null word *);
    chunk_next = Array.make max_threads 0;
    chunk_limit = Array.make max_threads 0;
    free_heads = Array.make max_threads no_frees;
    guard_tbl = Hashtbl.create 64;
  }

let capacity t = Bytes.length t.words lsr 3

let out_of_bounds t addr =
  invalid_arg
    (Printf.sprintf "Heap: address %d out of bounds (capacity %d)" addr
       (capacity t))

let check t addr =
  if addr <= 0 || addr >= capacity t then out_of_bounds t addr

(** Non-transactional read (setup / verification only during quiescence). *)
let read t addr =
  check t addr;
  word t addr

(** Non-transactional write (setup / verification only during quiescence). *)
let write t addr v =
  check t addr;
  set_word t addr v

(* Raw accessors used by STM engines on addresses they have already
   validated; bounds were checked when the address was allocated. *)
let unsafe_read = word
let unsafe_write = set_word

(* --- free lists and epoch hooks (DESIGN.md §12) ------------------------ *)

(* Process-wide counters (across heaps), surfaced as [Obs.Metrics]
   gauges.  Plain non-atomic increments: they are diagnostics, and a
   rare lost update under native races costs nothing. *)
let frees = ref 0
let reuses = ref 0
let leaked_frees = ref 0
let double_frees = ref 0

let frees_total () = !frees
let reuses_total () = !reuses
let leaked_frees_total () = !leaked_frees
let double_frees_total () = !double_frees

(* Debug guard: when on, [free] records the address and refuses a second
   free of a block that has not been re-allocated since — the classic
   use-after-privatization bug a stale transactional snapshot causes.
   Off by default: the table admission is a hash insert per free. *)
let guard_on = ref false

(* [true] = this free is a double free: count and drop it. *)
let guard_hit t addr =
  if Hashtbl.mem t.guard_tbl addr then begin
    incr double_frees;
    true
  end
  else begin
    Hashtbl.add t.guard_tbl addr ();
    false
  end

(* Epoch-reclaimer hooks, installed by [Epoch.arm].  References rather
   than direct calls: [Epoch] depends on [Heap] (it hands grace-expired
   blocks back to [free_now]), so [Heap] cannot name it. *)
let epoch_on = ref false
let epoch_defer : (t -> int -> int -> unit) ref = ref (fun _ _ _ -> ())

(** Immediate reclamation: thread the block onto the caller's exact-size
    free list.  Only safe when no other thread can still hold a
    transactional snapshot of the block — callers go through {!free},
    which defers to the epoch reclaimer when it is armed. *)
let free_now t addr n =
  if n >= 1 && n <= max_free_words then begin
    let tid = Runtime.Exec.self () land (max_threads - 1) in
    let row = Array.unsafe_get t.free_heads tid in
    let row =
      if row != no_frees then row
      else begin
        let row = Array.make max_free_words 0 in
        Array.unsafe_set t.free_heads tid row;
        row
      end
    in
    set_word t addr (Array.unsafe_get row (n - 1));
    Array.unsafe_set row (n - 1) addr
  end
  else incr leaked_frees

let check_free t addr n =
  if n <= 0 then invalid_arg "Heap.free: size must be positive";
  check t addr

(** Free [n] words at [addr].  With the epoch reclaimer armed the block
    goes to the caller's limbo list and is recycled only after a grace
    period; otherwise it is recycled immediately (the caller asserts
    quiescence, e.g. after SwissTM's commit-time quiescence barrier). *)
let free t addr n =
  check_free t addr n;
  incr frees;
  if !guard_on && guard_hit t addr then ()
  else if !epoch_on then !epoch_defer t addr n
  else free_now t addr n

(** Allocate [n] words and return the address of the first.  Thread-safe;
    the caller's logical thread id shards the bump pointer.  Exact-size
    free-list hits are recycled (and re-zeroed) before the bump pointer
    advances. *)
let rec alloc t n =
  if n <= 0 then invalid_arg "Heap.alloc: size must be positive";
  let tid = Runtime.Exec.self () land (max_threads - 1) in
  if n <= max_free_words then begin
    let row = Array.unsafe_get t.free_heads tid in
    let head = Array.unsafe_get row (n - 1) in
    if head <> 0 then begin
      Array.unsafe_set row (n - 1) (word t head);
      Bytes.fill t.words (head lsl 3) (n lsl 3) '\000';
      incr reuses;
      if !guard_on then Hashtbl.remove t.guard_tbl head;
      head
    end
    else alloc_fresh t tid n
  end
  else alloc_fresh t tid n

and alloc_fresh t tid n =
  if n > chunk_words then begin
    (* Large block: grab it directly from the shared break. *)
    let addr = Runtime.Tmatomic.fetch_and_add t.brk n in
    if addr + n > capacity t then
      raise (Out_of_memory { capacity = capacity t; requested = n });
    Bytes.fill t.words (addr lsl 3) (n lsl 3) '\000';
    addr
  end
  else begin
    if t.chunk_next.(tid) + n > t.chunk_limit.(tid) then begin
      (* Claim a whole chunk; the claimed range is exclusively ours, so if
         it sticks out past the end we can still use its in-bounds prefix —
         small heaps stay usable down to their last words. *)
      let base = Runtime.Tmatomic.fetch_and_add t.brk chunk_words in
      let limit = min (base + chunk_words) (capacity t) in
      (* Record the claimed range even when [n] does not fit: the chunk is
         ours whether or not this particular allocation succeeds, and its
         in-bounds prefix must stay reachable for smaller requests.  Raising
         first leaked a full chunk per failed retry near exhaustion. *)
      t.chunk_next.(tid) <- min base limit;
      t.chunk_limit.(tid) <- limit;
      if base < limit then
        Bytes.fill t.words (base lsl 3) ((limit - base) lsl 3) '\000';
      if base + n > limit then
        raise (Out_of_memory { capacity = capacity t; requested = n })
    end;
    let addr = t.chunk_next.(tid) in
    t.chunk_next.(tid) <- addr + n;
    addr
  end

(** Words handed out so far (upper bound; includes unused chunk tails). *)
let used t = Runtime.Tmatomic.unsafe_get t.brk

(* Atomic integer cells with a cache-coherence cost model.

   In a simulation, every access charges virtual cycles according to a small
   MESI-style approximation.  Cells can *share a cache line* ([make_shared]):
   SwissTM's r/w lock pair occupies adjacent words of one lock-table entry,
   and RSTM's ownership record packs owner/version/readers together — the
   second access to the same line is a cheap hit, which matters for the
   paper's single-thread overhead comparisons (Figure 5).

   Reads hit if this thread already touched the line since its last writer;
   writes are cheap only with the line held exclusively.  This is the
   mechanism that reproduces the paper's hot-spot effects (Greedy's shared
   timestamp counter, Figure 10; the intruder queue head, Figure 11).

   Under a multi-socket [Topology] a miss is additionally distance-keyed
   (DESIGN.md §16): a line last touched by this very core is refetched at
   [miss_local], a transfer from a same-socket core costs [miss_socket],
   and a cross-socket transfer costs [miss_cross] plus a queuing penalty
   at the directory of the line's *home socket* (first-touch policy).
   Under the default flat topology the only miss cost is [miss_socket] —
   bit-identical to the pre-topology model.

   In native mode the model fields are never touched and operations reduce
   to plain [Atomic] calls (real caches provide the behaviour). *)

(* The reader set is a bitset over simulated thread ids: the low 63 tids
   live in one immediate [readers] word, tids >= 63 in a lazily allocated
   overflow array ([Topology.max_cores] needs 8 more 63-bit words).  Runs
   that never exceed 63 threads never allocate the overflow. *)

let bits_per_word = 63
let hi_words = (Topology.max_cores - bits_per_word + bits_per_word - 1) / bits_per_word

type line = {
  mutable owner : int;  (** last writing thread, or -1 *)
  mutable readers : int;  (** bitmask of threads < 63 that read since last write *)
  mutable readers_hi : int array;
      (** overflow reader words for tids >= 63; [||] until one appears *)
  mutable last_miss : int;  (** virtual time of the last coherence miss *)
  mutable queue : int;  (** back-to-back misses: queuing on a hot line *)
  mutable last_accessor : int;
      (** consecutive accesses by one thread to one line cost ~a register
          compare, not a fresh L1 probe — this is what makes SwissTM's
          two-locks-in-one-entry layout nearly as cheap as a single lock *)
  mutable home : int;
      (** home socket (first-touch), or -1; only read multi-socket *)
}

(* One block per cell: the value is field 0 of the cell itself, not an
   [int Atomic.t] box behind one more dependent load (in another major-heap
   size class).  Every access to [v] goes through [atomic]: OCaml 5.1.1's
   [%atomic_load], [%atomic_cas], [%atomic_exchange] and [%atomic_fetch_add]
   act on field 0 of any block, as OCaml 5.4's atomic record fields do. *)
type t = { mutable v : int; line : line } [@@warning "-69"]

let[@inline] atomic (t : t) : int Atomic.t = Obj.magic t

let fresh_line () =
  (* [last_miss] must be far in the past, with a magnitude small enough
     that [now - last_miss] cannot overflow for any reachable virtual
     time. *)
  {
    owner = -1;
    readers = 0;
    readers_hi = [||];
    last_miss = -(1 lsl 50);
    queue = 0;
    last_accessor = -1;
    home = -1;
  }

(* --- reader-set helpers ------------------------------------------------- *)

let[@inline] reader_mem line c =
  if c < bits_per_word then line.readers land (1 lsl c) <> 0
  else
    let hi = line.readers_hi in
    let w = (c - bits_per_word) / bits_per_word in
    w < Array.length hi
    && hi.(w) land (1 lsl ((c - bits_per_word) mod bits_per_word)) <> 0

let reader_add line c =
  if c < bits_per_word then line.readers <- line.readers lor (1 lsl c)
  else begin
    if Array.length line.readers_hi = 0 then
      line.readers_hi <- Array.make hi_words 0;
    let w = (c - bits_per_word) / bits_per_word in
    line.readers_hi.(w) <-
      line.readers_hi.(w) lor (1 lsl ((c - bits_per_word) mod bits_per_word))
  end

(* Is [c] the sole reader?  (The exclusivity test for cheap writes.) *)
let only_reader line c =
  let hi = line.readers_hi in
  let hi_clear_except w_keep bit_keep =
    let ok = ref true in
    for w = 0 to Array.length hi - 1 do
      let expect = if w = w_keep then bit_keep else 0 in
      if hi.(w) <> expect then ok := false
    done;
    !ok
  in
  if c < bits_per_word then
    line.readers = 1 lsl c && hi_clear_except (-1) 0
  else
    line.readers = 0
    && Array.length hi > 0
    && hi_clear_except
         ((c - bits_per_word) / bits_per_word)
         (1 lsl ((c - bits_per_word) mod bits_per_word))

(* Clear the set and leave [c] as the only reader (a write invalidates
   every other copy). *)
let set_sole_reader line c =
  if Array.length line.readers_hi > 0 then
    Array.fill line.readers_hi 0 (Array.length line.readers_hi) 0;
  if c < bits_per_word then line.readers <- 1 lsl c
  else begin
    line.readers <- 0;
    reader_add line c
  end

(* --- miss costs --------------------------------------------------------- *)

(* A line whose coherence misses arrive within [queue_window] virtual
   cycles of each other is being fought over by several cores; each
   waiter queues behind the previous transfer.  This superlinear penalty
   on genuinely hot lines is what makes a single shared counter (Greedy's
   timestamp, an eagerly retried queue head) collapse scalability, as in
   the paper's Figures 10 and 11. *)
let queue_window = 1000
let max_queue = 16

let[@inline] bump_queue line now =
  if now - line.last_miss < queue_window then
    line.queue <- Int.min (line.queue + 1) max_queue
  else line.queue <- 0;
  line.last_miss <- now

(* Flat topology: one miss cost, exactly the pre-topology model. *)
let miss_cost_flat (costs : Costs.t) line =
  bump_queue line (Exec.now ());
  costs.miss_socket * (1 + line.queue)

(* Multi-socket: key the transfer on where the line last was.  The first
   toucher becomes the line's home socket; cross-socket transfers queue
   at the home socket's directory on top of the per-line queue. *)
let miss_cost_numa (costs : Costs.t) line c =
  let now = Exec.now () in
  bump_queue line now;
  let sock = Topology.socket_of_tid c in
  if line.home < 0 then line.home <- sock;
  let base =
    let la = line.last_accessor in
    if la = c then costs.miss_local
    else if la < 0 then
      (* Cold miss: served from the home socket's memory. *)
      if line.home = sock then costs.miss_socket else costs.miss_cross
    else if Topology.socket_of_tid la = sock then costs.miss_socket
    else
      let q = Topology.dir_charge ~socket:line.home ~now in
      costs.miss_cross + costs.miss_cross * q / 4
  in
  base * (1 + line.queue)

let[@inline] miss_cost costs line c =
  if Topology.is_flat () then miss_cost_flat costs line
  else miss_cost_numa costs line c

let make init = { v = init; line = fresh_line () }

(** A cell placed on an existing cache line (adjacent metadata words). *)
let make_shared line init = { v = init; line }

let[@inline] charge_read t =
  let c = !Exec.cur in
  if c >= 0 then begin
    let costs = Costs.get () in
    let line = t.line in
    if reader_mem line c then begin
      Topology.count_hit ~socket:(Topology.socket_of_tid c);
      Exec.tick (if line.last_accessor = c then 1 else costs.atomic_hit);
      line.last_accessor <- c
    end
    else begin
      Topology.count_miss ~socket:(Topology.socket_of_tid c);
      (* Price the transfer against the PREVIOUS accessor, then record
         ourselves; state is settled before the tick can yield. *)
      let cost = miss_cost costs line c in
      reader_add line c;
      line.last_accessor <- c;
      Exec.tick cost
    end
  end

let[@inline] charge_write t ~rmw =
  let c = !Exec.cur in
  if c >= 0 then begin
    let costs = Costs.get () in
    let line = t.line in
    let exclusive = line.owner = c && only_reader line c in
    let base =
      if exclusive then begin
        Topology.count_hit ~socket:(Topology.socket_of_tid c);
        if line.last_accessor = c then 1 else costs.atomic_hit
      end
      else begin
        Topology.count_miss ~socket:(Topology.socket_of_tid c);
        miss_cost costs line c
      end
    in
    line.owner <- c;
    set_sole_reader line c;
    line.last_accessor <- c;
    Exec.tick (base + if rmw then costs.cas else 0)
  end

let[@inline] get t =
  charge_read t;
  Atomic.get (atomic t)

let[@inline] set t x =
  charge_write t ~rmw:false;
  Atomic.set (atomic t) x

let[@inline] cas t ~expect ~replace =
  charge_write t ~rmw:true;
  Atomic.compare_and_set (atomic t) expect replace

let fetch_and_add t n =
  charge_write t ~rmw:true;
  Atomic.fetch_and_add (atomic t) n

let incr_get t = fetch_and_add t 1 + 1

(* Cost-free accessors for initialisation and for assertions in tests. *)
let unsafe_get t = Atomic.get (atomic t)
let unsafe_set t x = Atomic.set (atomic t) x

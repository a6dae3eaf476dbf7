(** The word-addressable transactional heap.

    A heap is the universe of one benchmark/application: a flat buffer of
    words holding OCaml [int]s, which the GC does not scan.  An {e address} is a word index; address 0 is the
    reserved null pointer.

    Plain {!read}/{!write} are non-transactional and intended for
    construction before threads start and verification after they stop;
    during a run, all shared accesses must go through an STM engine.
    Only words that {!alloc} handed out hold defined values: the buffer
    is zeroed as the allocator reaches it, not when the heap is built. *)

type t

exception Out_of_memory of { capacity : int; requested : int }

val null : int

val create : words:int -> t
(** [create ~words] is a heap of [words] words; building it writes only
    the null word. *)

val capacity : t -> int

val read : t -> int -> int
(** Bounds-checked non-transactional read (quiescent state only). *)

val write : t -> int -> int -> unit
(** Bounds-checked non-transactional write (quiescent state only). *)

val alloc : t -> int -> int
(** [alloc t n] returns n fresh zeroed words.  Thread-safe (per-thread
    sharded bump pointer); words allocated by transactions that abort are
    leaked, as in TL2's simple allocator.  Freed blocks of the exact size
    are recycled before the bump pointer advances. *)

val free : t -> int -> int -> unit
(** [free t addr n] returns the [n]-word block at [addr] to the
    allocator.  With the epoch reclaimer armed ({!Epoch.arm}) the block
    sits in the caller's limbo list until a grace period passes;
    otherwise it is recycled immediately and the caller asserts no other
    thread still holds a transactional snapshot of it.  Blocks larger
    than [max_free_words] (64) are leaked and counted. *)

val check_free : t -> int -> int -> unit
(** Raises [Invalid_argument] exactly when [free t addr n] would.  A
    transactional free is buffered to commit, so engines refuse a bad
    one here, at the call, where the body's exception unwinds cleanly. *)

val max_free_words : int

val used : t -> int
(** Upper bound on words handed out. *)

val guard_on : bool ref
(** Debug guard: record freed addresses and count (rather than execute)
    a double free of a block not re-allocated in between.  Surfaced as
    the [heap_double_frees] metrics gauge. *)

(** {2 Allocator gauges} (process-wide, across heaps) *)

val frees_total : unit -> int
val reuses_total : unit -> int
val leaked_frees_total : unit -> int
val double_frees_total : unit -> int

(**/**)

val out_of_bounds : t -> int -> 'a
(** [out_of_bounds t addr] raises [Invalid_argument] naming [addr]: what
    an access outside the heap raises.  Engines check transactional
    addresses against [0, capacity) once, at their entry points. *)

(* Unchecked accessors for engine internals (addresses pre-validated). *)
val unsafe_read : t -> int -> int
val unsafe_write : t -> int -> int -> unit

(* Epoch-reclaimer plumbing ([Epoch] installs the hooks; benchmarks and
   tests may call [free_now] directly under their own quiescence). *)
val free_now : t -> int -> int -> unit
val epoch_on : bool ref
val epoch_defer : (t -> int -> int -> unit) ref

(** The uniform engine interface every benchmark is written against.

    An [Engine.t] packages one STM instance over one heap.  [atomic] runs
    a transaction body to successful commit, retrying internally on
    aborts; the body receives word-level operations — the same
    "read word / write word" API the paper's SwissTM exposes (§3.1).

    Transaction bodies must be restartable (no irrevocable side effects)
    and must let the internal {!Tx_signal.Abort} exception propagate. *)

exception
  Unsupported_thread_count of { engine : string; tid : int; limit : int }
(** Raised by engines whose metadata packs per-thread state into machine
    words (visible-reader bitmaps: tlrw, rstm, composed Visible points)
    when asked to run a thread id at or beyond their cap — loud refusal
    instead of silent bitmap corruption.  Every engine's descriptor
    table has [Stats.max_threads] (512) slots; these engines stop far
    earlier. *)

val check_tid_limit : engine:string -> limit:int -> int -> unit
(** [check_tid_limit ~engine ~limit tid] raises
    {!Unsupported_thread_count} unless [0 <= tid < limit]. *)

type tx_ops = {
  read : int -> int;  (** transactional read of a heap word *)
  write : int -> int -> unit;  (** transactional write of a heap word *)
  alloc : int -> int;  (** allocate n fresh words (leaked on abort) *)
  free : int -> int -> unit;
      (** [free addr n]: buffered in the descriptor, executed through
          [Memory.Heap.free] at commit (epoch limbo when the reclaimer is
          armed), discarded on abort. *)
}

type t = {
  name : string;
  heap : Memory.Heap.t;
  atomic : 'a. tid:int -> (tx_ops -> 'a) -> 'a;
  atomic_irrevocable : 'a. tid:int -> (tx_ops -> 'a) -> 'a;
      (** Run the body as the single irrevocable transaction (see
          {!atomic_irrevocable} the accessor). *)
  stats : unit -> Stats.snapshot;
  reset_stats : unit -> unit;
}

val name : t -> string
val heap : t -> Memory.Heap.t

val atomic : t -> tid:int -> (tx_ops -> 'a) -> 'a
(** Run a transaction from logical thread [tid]
    (0 .. [Stats.max_threads - 1]; some engines refuse earlier, see
    {!Unsupported_thread_count}). *)

val atomic_irrevocable : t -> tid:int -> (tx_ops -> 'a) -> 'a
(** Like {!atomic}, but the transaction acquires the engine's
    irrevocability token before its first attempt: it runs as the single
    irrevocable transaction, wins every conflict, and is exempt from fault
    injection until commit.  The body must still be restartable — it can
    be re-run while the token is being acquired, and engines without
    remote kills may retry it while pre-token transactions drain. *)

val stats : t -> Stats.snapshot
(** The counters of every thread that has run a transaction on this
    engine, summed; each thread keeps its own in its descriptor. *)

val reset_stats : t -> unit
(** Zero every thread's counters, its back-off count included. *)

val read : tx_ops -> int -> int
val write : tx_ops -> int -> int -> unit
val alloc : tx_ops -> int -> int
val free : tx_ops -> int -> int -> unit

val direct_ops : Memory.Heap.t -> tx_ops
(** Non-transactional ops for quiescent phases (setup, verification);
    [free] executes immediately. *)

(** A lazily populated table of modelled cache lines: the per-stripe
    metadata of every engine with stripe locks.

    A table has [n] lines of [k] {!Tmatomic} cells, cell [j] of every line
    starting at [init.(j)]; the cells of a line share one modelled cache
    line ({!Tmatomic.make_shared}), like SwissTM's adjacent r/w lock pair
    or RSTM's ownership record.  Construction allocates only an index of
    chunks of 512 slots; a chunk is allocated on the first access to one
    of its slots and a line on its own first access.  A freshly built
    line is exactly what eager construction would have built, and
    building one charges nothing, so simulated schedules do not depend
    on when (or whether) a line was touched.

    Publication: an absent chunk is a shared, never-written chunk of
    sentinels; an absent slot holds the shared sentinel {!absent}.  The
    first access takes the table's mutex, re-checks, and writes the chunk
    and the slot once each, from the sentinel to the fully built block;
    every later access reads both plainly.  {!line} and {!cell} are marked
    [[@inline]]: the built-line fast path (two loads and a compare) lands
    in the caller, and only a first touch makes a call. *)

type t = private {
  chunks : Tmatomic.t array array array;
      (** chunk [k] holds slots [512k .. 512k + 511] *)
  init : int array;  (** initial value of each cell of a line *)
  lock : Mutex.t;  (** serializes first touches *)
}

val absent : Tmatomic.t array
(** The sentinel of a line not yet built. *)

val create : int -> init:int array -> t
(** [create n ~init] is a table of [n] lines of [Array.length init]
    cells.  Raises [Invalid_argument] when [init] is empty. *)

val slot : t -> int -> Tmatomic.t array
(** [slot t i] is line [i], or {!absent} if it is not built yet. *)

val line : t -> int -> Tmatomic.t array
(** [line t i] is the cells of line [i], built under the mutex on its
    first access. *)

val cell : t -> int -> int -> Tmatomic.t
(** [cell t i j] is cell [j] of [line t i]. *)

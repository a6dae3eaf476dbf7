(** A lazily populated table of modelled cache lines: the per-stripe
    metadata of every engine with stripe locks.

    A table has [n] lines of [k] {!Tmatomic} cells, cell [j] of every line
    starting at [init.(j)]; the cells of a line share one modelled cache
    line ({!Tmatomic.make_shared}), like SwissTM's adjacent r/w lock pair
    or RSTM's ownership record.  Construction allocates only the slot
    array; a line is built on its first access.  A freshly built line is
    exactly what eager construction would have built, and building one
    charges nothing, so simulated schedules do not depend on when (or
    whether) a line was touched.

    Publication: an absent slot holds the shared sentinel {!absent}.  The
    first access takes the table's mutex, re-checks the slot and writes it
    once, from the sentinel to the fully built line; every later access
    reads the slot plainly.  Engines that inline the fast path read
    [slots] directly:
    {[
      let e = Array.unsafe_get tbl.slots i in
      if e != Line_table.absent then e else Line_table.touch tbl i
    ]} *)

type t = private {
  slots : Tmatomic.t array array;  (** one line per slot, or {!absent} *)
  init : int array;  (** initial value of each cell of a line *)
  lock : Mutex.t;  (** serializes first touches *)
}

val absent : Tmatomic.t array
(** The sentinel of a line not yet built. *)

val create : int -> init:int array -> t
(** [create n ~init] is a table of [n] lines of [Array.length init]
    cells.  Raises [Invalid_argument] when [init] is empty. *)

val touch : t -> int -> Tmatomic.t array
(** [touch t i] is the cells of line [i], built under the mutex if it is
    absent: the slow path of {!cell}. *)

val cell : t -> int -> int -> Tmatomic.t
(** [cell t i j] is cell [j] of line [i], built on first access. *)

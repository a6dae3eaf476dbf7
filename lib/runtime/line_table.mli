(** A lazily populated table of modelled cache lines: the per-stripe
    metadata of every engine with stripe locks.

    A table has [n] lines of [k] {!Tmatomic} cells, cell [j] of every line
    starting at [init.(j)]; the cells of a line share one modelled cache
    line ({!Tmatomic.make_shared}), like SwissTM's adjacent r/w lock pair
    or RSTM's ownership record.  Construction allocates only an index of
    chunks of [2^chunk_bits] slots; a chunk is allocated on the first
    access to one of its slots and a line on its own first access.  A
    freshly built line is exactly what eager construction would have
    built, and building one charges nothing, so simulated schedules do
    not depend on when (or whether) a line was touched.

    Publication: an absent chunk is the shared, never-written
    [absent_chunk]; an absent slot holds the shared sentinel {!absent}.
    The first access takes the table's mutex, re-checks, and writes the
    chunk and the slot once each, from the sentinel to the fully built
    block; every later access reads both plainly.  Engines that inline
    the fast path read [chunks] directly:
    {[
      let c = Array.unsafe_get tbl.chunks (i lsr Line_table.chunk_bits) in
      let e = Array.unsafe_get c (i land Line_table.chunk_mask) in
      if e != Line_table.absent then e else Line_table.touch tbl i
    ]} *)

type t = private {
  chunks : Tmatomic.t array array array;
      (** slot [i] is [chunks.(i lsr chunk_bits).(i land chunk_mask)] *)
  init : int array;  (** initial value of each cell of a line *)
  lock : Mutex.t;  (** serializes first touches *)
}

val chunk_bits : int
(** log2 of the slots per chunk; [chunk_mask] is [2^chunk_bits - 1]. *)

val chunk_mask : int

val absent : Tmatomic.t array
(** The sentinel of a line not yet built. *)

val create : int -> init:int array -> t
(** [create n ~init] is a table of [n] lines of [Array.length init]
    cells.  Raises [Invalid_argument] when [init] is empty. *)

val touch : t -> int -> Tmatomic.t array
(** [touch t i] is the cells of line [i], built under the mutex if it is
    absent: the slow path of {!cell}. *)

val slot : t -> int -> Tmatomic.t array
(** [slot t i] is line [i], or {!absent} if it is not built yet. *)

val cell : t -> int -> int -> Tmatomic.t
(** [cell t i j] is cell [j] of line [i], built on first access. *)

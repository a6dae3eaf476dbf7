(** Machine topology for the simulated multiprocessor (DESIGN.md §16).

    [sockets] NUMA packages of [cores_per_socket] cores each; thread
    [tid] is pinned to core [tid mod cores], and cores fill sockets
    compactly.  The default single-socket ("flat") topology makes every
    cost bit-identical to the pre-topology model, which is what keeps
    the frozen ≤8-thread gates valid.  A process-wide setting like
    {!Costs}: write it from test/bench setup only, never while simulated
    threads run. *)

val max_cores : int
(** Hard ceiling on simulated cores (512). *)

val max_sockets : int

type t = { sockets : int; cores_per_socket : int }

val flat : t
(** One socket spanning {!max_cores} cores — the default. *)

val make : sockets:int -> cores_per_socket:int -> t
(** Raises [Invalid_argument] if either is non-positive or the product
    exceeds {!max_cores}. *)

val cores : t -> int

val get : unit -> t
val set : t -> unit
(** Install a topology; resets the per-socket directory state and the
    hit/miss/steal counters so runs never share queuing history. *)

val reset : unit -> unit
(** [set flat]. *)

val is_flat : unit -> bool
(** True when the current topology has a single socket; the cost model
    takes the pre-topology fast path. *)

val core_of_tid : int -> int
val socket_of_core : int -> int
val socket_of_tid : int -> int
(** [socket_of_core (core_of_tid tid)] for [tid < max_cores], read from a
    table that {!set} rebuilds. *)

val dir_charge : socket:int -> now:int -> int
(** Record a cross-socket miss homed at [socket] at virtual time [now];
    returns the directory queue depth (0 when the directory is cold),
    which the caller turns into extra cycles.  The NUMA analogue of
    [Tmatomic]'s per-line queue. *)

val count_hit : socket:int -> unit
val count_miss : socket:int -> unit
val count_steal : socket:int -> unit
(** Uncharged per-socket counters, incremented from simulation fast
    paths and read by [Obs]. *)

val socket_counters : unit -> (int * int * int) array
(** [(hits, misses, steals)] per socket of the current topology. *)

val reset_counters : unit -> unit

val pp : Format.formatter -> t -> unit

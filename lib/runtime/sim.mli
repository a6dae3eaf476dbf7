(** Deterministic discrete-event scheduler for simulated threads.

    Each thread body runs as an OCaml 5 fiber and advances a private
    virtual clock through {!Exec.tick}.  Which thread gets resumed is
    decided by a pluggable {!policy}; every policy is a pure function of
    the bodies and its seed, so a run is replayable from
    (policy, seed, program).  See DESIGN.md for how this substitutes for
    the paper's 8-core machine. *)

exception Timeout of int
(** Raised when every live thread passed the [cap_cycles] limit —
    in this codebase, a livelock bug. *)

exception Nested_simulation
(** Raised when [run] is called from inside a simulated thread. *)

type policy =
  | Earliest_first
      (** Resume the earliest thread, ties by id (the default; the only
          policy under which virtual makespans are meaningful). *)
  | Random of { seed : int; window : int; quantum : int }
      (** Pick uniformly among live threads within [window] cycles of the
          minimum clock; run the winner for a random quantum in
          [1, quantum].  Starvation-free: the minimum is always a
          candidate. *)
  | Pct of { seed : int; depth : int; horizon : int }
      (** PCT-style priority schedule: random static priorities,
          [depth - 1] priority-change points over [horizon] cumulative
          virtual cycles; blocked spinners — and threads more than
          [4 * horizon] cycles ahead of the slowest live thread (e.g. an
          abort-retry duel that never blocks) — are demoted so lock
          owners run. *)

val random_policy : ?window:int -> ?quantum:int -> int -> policy
(** [random_policy seed] with defaults window = 5000, quantum = 2000. *)

val pct_policy : ?depth:int -> ?horizon:int -> int -> policy
(** [pct_policy seed] with defaults depth = 3, horizon = 2*10^6. *)

val policy_name : policy -> string
(** Short printable form, e.g. ["earliest"], ["random:42"]. *)

val run :
  ?cap_cycles:int ->
  ?policy:policy ->
  (unit -> unit) array ->
  int array
(** [run bodies] executes all bodies to completion and returns final
    per-thread virtual times (cycles).  [cap_cycles] defaults to 10^12;
    [policy] defaults to {!Earliest_first}.  Every policy dispatches
    through a tournament tree over packed (clock, tid) keys, O(log n)
    branch-free steps per decision.  Raises [Invalid_argument] when
    [cap_cycles] (plus a {!Random} window) is too large to pack beside
    the thread ids. *)

val run_threads :
  ?cap_cycles:int ->
  ?policy:policy ->
  threads:int ->
  (int -> unit) ->
  int
(** [run_threads ~threads body] runs [body tid] on each thread and returns
    the simulated makespan (max final virtual time). *)

val on_dispatch : (int -> unit) ref
(** Observability hook, fired with the thread id on every scheduler
    dispatch when {!on_dispatch_enabled} is set (installed by [lib/obs]).
    The hook must not charge cycles or touch scheduler state. *)

val on_dispatch_enabled : bool ref

(** Simulated-time profiler front-end over the [Runtime.Exec] backend.

    Attributes every charged simulated cycle to a phase (other / read /
    write / validate / commit / spin / backoff).  Charges no cycles of
    its own: profiled runs take bit-identical schedules.  Sim-only.

    Per-engine attribution is by harvest: {!reset} before an engine's
    run, {!snapshot} after it. *)

val n_phases : int

val phase_names : string array

type snapshot = { cycles : int array (* indexed by phase *) }

val enable : unit -> unit
val disable : unit -> unit
val reset : unit -> unit

val snapshot : unit -> snapshot
(** Sum the per-thread matrix into per-phase totals. *)

val total : snapshot -> int
val add : snapshot -> snapshot -> snapshot
val table : title:string -> snapshot -> Report.table
(** A row per phase (in {!phase_names} order) and a ["total"] row:
    cycles and share of the total in percent. *)

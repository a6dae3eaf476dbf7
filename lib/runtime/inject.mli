(** Deterministic fault injector: spurious aborts, lock-holder stalls and
    commit stretching, drawn from seeded per-thread streams.

    Engines poll the injector where they poll their kill flag, guarding
    every call with the single [!on] load, so the disarmed fast path is one
    load + one predictable branch and disarmed schedules are bit-identical
    to fault-free builds. *)

type profile = {
  abort_ppm : int;  (** per-access spurious-abort probability, ppm *)
  stall_ppm : int;  (** per-lock-acquisition stall probability, ppm *)
  stall_cycles : int;  (** length of an injected holder stall *)
  stretch_ppm : int;  (** per-commit stretch probability, ppm *)
  stretch_cycles : int;  (** length of an injected commit stretch *)
}

val abort_storm : profile
(** A dense storm (one access in eight condemned, frequent holder stalls):
    fixed CM policies exhibit unbounded consecutive-abort runs under it
    within a few hundred transactions. *)

val on : bool ref
(** Guard every injector call with [if !Inject.on then ...]. *)

val exempt : int ref
(** Logical tid exempt from all injection (the irrevocable token holder),
    or [-1].  Maintained by [Stm_intf.Serial]; do not write directly. *)

val arm : seed:int -> profile -> unit
(** Reseed the per-thread fault streams, zero telemetry, set [on]. *)

val disarm : unit -> unit

val armed : unit -> (int * profile) option
(** The seed and profile of the last {!arm} while armed, [None] while
    disarmed: re-arming with them restarts the same fault streams. *)

val spurious_abort : tid:int -> bool
(** Condemn the calling transaction at this access?  Draws from the
    thread's fault stream; always false for the exempt thread. *)

val stall : tid:int -> unit
(** Maybe stall after a lock acquisition (charged to the spin phase). *)

val stretch : tid:int -> unit
(** Maybe lengthen the commit window (charged to the commit phase). *)

val injected_aborts : unit -> int
val injected_stalls : unit -> int
val injected_stretches : unit -> int

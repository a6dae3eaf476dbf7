(** Contention-manager interface shared by the SwissTM and RSTM engines
    (paper §2.1 and Algorithm 2).

    Engines embed a {!txinfo} in each per-thread descriptor and invoke the
    hooks at transaction (re)start, successful writes, write/write
    conflicts and rollback.  [resolve] may be called repeatedly while a
    conflict persists. *)

type txinfo = {
  tid : int;
  rng : Runtime.Rng.t;
  kill : Runtime.Tmatomic.t;
      (** remote-abort flag: a winning attacker sets it; the victim polls
          and self-aborts *)
  mutable cm_ts : int;  (** Greedy/Serializer timestamp; [max_int] = none *)
  mutable accesses : int;  (** locations accessed so far (Polka priority) *)
  mutable conflict_waits : int;  (** resolve calls spent on this conflict *)
  mutable succ_aborts : int;  (** successive aborts of this transaction *)
  mutable attempts : int;  (** attempts of the current transaction *)
  mutable karma : int;  (** work carried across aborts (Karma) *)
  mutable backoffs : int;  (** back-off waits taken (statistics only) *)
  mutable contention : int;
      (** abort-rate EWMA, fixed-point scaled by {!contention_scale};
          maintained by the adaptive manager, 0 elsewhere *)
  mutable steals : int;
      (** tasks stolen onto this thread ([Runtime.Steal]); priority
          managers credit {!steal_priority_bonus} accesses each *)
}

val contention_scale : int
(** Fixed-point scale of [txinfo.contention]: this value = an abort on
    every attempt. *)

val steal_priority_bonus : int
(** Polka/Karma priority credited per stolen task: a migrated task
    already paid its cross-socket transfer. *)

val make_txinfo : tid:int -> seed:int -> txinfo

type decision =
  | Abort_self  (** roll back and retry *)
  | Wait  (** back off briefly, then re-examine the lock *)
  | Killed_victim  (** the victim was aborted remotely; await release *)

type t = {
  name : string;
  on_start : txinfo -> restart:bool -> unit;
  on_write : txinfo -> writes:int -> unit;
  resolve : attacker:txinfo -> victim:txinfo -> decision;
  on_rollback : txinfo -> unit;
  on_commit : txinfo -> unit;
  pre_attempt : txinfo -> escalated:bool -> unit;
      (** Called before each attempt, outside any snapshot or lock; may
          block (the adaptive manager serializes high-contention threads
          here).  [escalated] callers must never be made to wait. *)
  escalate_after : int;
      (** consecutive-abort budget before engines escalate the
          transaction to irrevocable execution; [max_int] = never *)
  on_quit : txinfo -> unit;
      (** Emergency-release hook: drop any throttle state when a foreign
          exception abandons the transaction. *)
}

type spec =
  | Timid  (** abort the attacker immediately (TL2/TinySTM default) *)
  | Greedy  (** timestamp at first start; older always wins *)
  | Serializer  (** Greedy re-timestamped on every restart *)
  | Polka  (** priority = accesses; waits with exponential back-off *)
  | Karma  (** Polka with priority accumulated across aborts *)
  | Timestamp  (** older wins after a bounded grace period *)
  | Two_phase of { wn : int; backoff : bool }
      (** the paper's manager (Algorithm 2): timid until the [wn]-th
          write, then Greedy; randomized linear back-off on rollback *)
  | Adaptive of { wn : int; threshold : int; escalate_after : int }
      (** two-phase resolution plus adaptive throttling: threads whose
          abort-rate EWMA reaches [threshold] (of {!contention_scale})
          serialize behind a condition token; engines escalate to
          irrevocable execution after [escalate_after] consecutive
          aborts *)

val spec_name : spec -> string
val default_two_phase : spec
val default_adaptive : spec

val kill_requested : txinfo -> bool
val clear_kill : txinfo -> unit
val request_kill : txinfo -> unit
val note_start : txinfo -> restart:bool -> unit
val note_rollback : txinfo -> unit

val current : txinfo array
(** Per-tid [txinfo] of the most recently started transaction (engines
    publish at begin); lets layers above the engines — the boosted
    collections' abstract-lock arbitration — aim {!request_kill} at a
    thread's in-flight transaction.  Entries may be stale: a kill aimed at
    a finished transaction is absorbed by the next start's kill-flag
    clear. *)

val set_current : txinfo -> unit
(** Publish [info] as its thread's current transaction (physical-equality
    guarded store; free in the steady state). *)

val note_steal : tid:int -> unit
(** Record a stolen task against [tid]'s current txinfo; installed as
    [Runtime.Steal.on_steal] by the task-parallel harness. *)

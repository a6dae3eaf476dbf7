(** Transactional history recording (off by default).

    Engines append begin/read/write/commit/abort events to a global log
    when {!enabled} is set; the opacity checker in [lib/check] consumes
    the result.  Hooks charge no simulated cycles, so recording never
    perturbs the schedule.  Single-domain: record under [Runtime.Sim]
    only.  See trace.ml for the event-placement contract that makes the
    derived real-time edges sound. *)

type cm_decision = Cm_abort_self | Cm_wait | Cm_kill
(** What a contention manager decided at a conflict (emitted by lib/cm). *)

type event =
  | Begin of { tid : int; time : int }
  | Read of { tid : int; addr : int; value : int; time : int }
  | Write of { tid : int; addr : int; value : int; time : int }
  | Commit of { tid : int; time : int }
  | Abort of { tid : int; reason : Tx_signal.abort_reason; time : int }
  | CmDecision of {
      tid : int;  (** the attacker — the thread that hit the conflict *)
      victim : int;  (** the owner it collided with *)
      decision : cm_decision;
      time : int;
    }

val cm_decision_label : cm_decision -> string

val enabled : bool ref
(** Engine call sites guard hooks with [if !Trace.enabled then ...] so the
    recording-off fast path costs one load + branch.  Use {!start}/{!stop}
    rather than flipping this directly. *)

val start : unit -> unit
(** Clear the log and enable recording. *)

val stop : unit -> event array
(** Disable recording and return the recorded events in order. *)

val scope_aborts : unit -> int
(** Closed-nested scope rollbacks observed since {!start}; a non-zero
    count marks the trace as unsupported for checking (partial rollback
    is not expressible in the flat event stream). *)

(** {2 Engine hooks} — no-ops unless {!enabled}. *)

val on_begin : tid:int -> unit
val on_read : tid:int -> addr:int -> value:int -> unit
val on_write : tid:int -> addr:int -> value:int -> unit
val on_commit : tid:int -> unit
val on_abort : tid:int -> reason:Tx_signal.abort_reason -> unit
val on_cm_decision : tid:int -> victim:int -> decision:cm_decision -> unit
val on_scope_abort : tid:int -> unit

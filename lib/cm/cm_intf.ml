(* Contention-manager interface shared by the SwissTM and RSTM engines.

   Engines embed a [txinfo] record in each per-thread transaction
   descriptor and invoke the hooks at the points the paper identifies
   (Algorithm 2): transaction (re)start, each successful write, each
   write/write conflict, and rollback.  [resolve] is called repeatedly
   while a conflict persists; the manager keeps whatever per-conflict state
   it needs inside the attacker's [txinfo]. *)

type txinfo = {
  tid : int;
  rng : Runtime.Rng.t;
  kill : Runtime.Tmatomic.t;
      (** remote-abort flag: a winning attacker sets it to 1; the victim
          polls it on every transactional access and self-aborts *)
  mutable cm_ts : int;  (** Greedy/Serializer timestamp; [max_int] = none *)
  mutable accesses : int;  (** locations accessed so far (Polka priority) *)
  mutable conflict_waits : int;  (** resolve calls spent on current conflict *)
  mutable succ_aborts : int;  (** successive aborts of this transaction *)
  mutable attempts : int;  (** attempts of the current transaction, >= 1 *)
  mutable karma : int;
      (** cumulative work carried across aborts (Karma manager) *)
  mutable backoffs : int;
      (** back-off waits taken on behalf of this thread (statistics only;
          the engine's snapshot reports it as [s_backoffs]) *)
  mutable contention : int;
      (** EWMA of this thread's abort rate, fixed-point scaled by
          {!contention_scale} (1024 = every attempt aborts).  Maintained by
          the adaptive manager; other managers leave it at 0 *)
  mutable steals : int;
      (** tasks stolen onto this thread by the work-stealing scheduler
          ([Runtime.Steal]) since the txinfo was created: a migrated
          task already paid its cross-socket transfer, so priority-based
          managers credit it ({!steal_priority_bonus} accesses each) *)
  obs : Obs.Metrics.thread;
      (** the thread's metrics state: every [Obs.Metrics] hook takes it *)
}

(* Fixed-point scale of [contention]: 1024 = an abort on every attempt. *)
let contention_scale = 1024

let make_txinfo ~tid ~seed =
  {
    tid;
    rng = Runtime.Rng.for_thread ~seed ~tid;
    kill = Runtime.Tmatomic.make 0;
    cm_ts = max_int;
    accesses = 0;
    conflict_waits = 0;
    succ_aborts = 0;
    attempts = 0;
    karma = 0;
    backoffs = 0;
    contention = 0;
    steals = 0;
    obs = Obs.Metrics.make_thread ();
  }

(** What the attacker should do about a write/write conflict. *)
type decision =
  | Abort_self  (** roll back and retry *)
  | Wait  (** back off briefly, then re-examine the lock *)
  | Killed_victim  (** the victim was aborted remotely; wait for release *)

type t = {
  name : string;
  on_start : txinfo -> restart:bool -> unit;
  on_write : txinfo -> writes:int -> unit;
  resolve : attacker:txinfo -> victim:txinfo -> decision;
  on_rollback : txinfo -> unit;
  on_commit : txinfo -> unit;
  pre_attempt : txinfo -> escalated:bool -> unit;
      (** Called by engines before each attempt, outside any snapshot or
          lock: this is where the adaptive manager serializes
          high-contention offenders behind its condition token (the call
          may block).  [escalated] is true when the caller holds — or is
          about to take — the engine's irrevocability token; an escalated
          thread must never wait for the throttle token (it is already
          serialized more strongly, and waiting could deadlock against a
          throttled thread parked at the engine's start gate). *)
  escalate_after : int;
      (** Engines escalate a transaction to irrevocable execution once
          [succ_aborts] reaches this budget; [max_int] = never.  This is
          the K in the bound the escalation enforces on
          [Stats.s_max_consecutive_aborts]. *)
  on_quit : txinfo -> unit;
      (** Called from the engines' emergency-release path when a foreign
          exception abandons a transaction: drop any throttle state (the
          adaptive manager releases its condition token here) so a user
          bug cannot wedge other throttled threads. *)
}

(** Specification of a manager; [Factory.make] instantiates it with fresh
    shared counters for one engine instance. *)
type spec =
  | Timid  (** abort the attacker immediately (TL2/TinySTM default) *)
  | Greedy  (** timestamp at first start; older always wins *)
  | Serializer  (** like Greedy but re-timestamped on every restart *)
  | Polka  (** priority = accesses; attacker waits with exponential back-off *)
  | Karma
      (** Polka's ancestor: priority accumulates across aborts, so a
          repeatedly-victimised transaction eventually wins *)
  | Timestamp
      (** Scherer & Scott: older transactions win, but only after the
          attacker waited out a grace period *)
  | Two_phase of { wn : int; backoff : bool }
      (** the paper's manager: timid until the [wn]-th write, then Greedy;
          randomized linear back-off after rollback unless [backoff=false] *)
  | Adaptive of { wn : int; threshold : int; escalate_after : int }
      (** two-phase conflict resolution plus adaptive throttling: each
          thread keeps an abort-rate EWMA ([txinfo.contention], scaled by
          {!contention_scale}); once it reaches [threshold] the thread is
          serialized behind a condition token until it commits.  Engines
          additionally escalate to irrevocable execution after
          [escalate_after] consecutive aborts, bounding
          [Stats.s_max_consecutive_aborts]. *)

let spec_name = function
  | Timid -> "timid"
  | Greedy -> "greedy"
  | Serializer -> "serializer"
  | Polka -> "polka"
  | Karma -> "karma"
  | Timestamp -> "timestamp"
  | Two_phase { wn; backoff } ->
      if backoff then Printf.sprintf "two-phase(wn=%d)" wn
      else Printf.sprintf "two-phase(wn=%d,nobackoff)" wn
  | Adaptive { wn; threshold; escalate_after } ->
      Printf.sprintf "adaptive(wn=%d,thr=%d,k=%d)" wn threshold escalate_after

let default_two_phase = Two_phase { wn = 10; backoff = true }
let default_adaptive = Adaptive { wn = 10; threshold = 512; escalate_after = 8 }

(* Shared helpers *)

(* Polling your own kill flag reads your own descriptor's cache line: it
   stays local (a remote kill invalidates it exactly once), so the poll is
   not charged in the cost model. *)
let kill_requested info = Runtime.Tmatomic.unsafe_get info.kill <> 0
let clear_kill info = Runtime.Tmatomic.unsafe_set info.kill 0
let request_kill victim = Runtime.Tmatomic.set victim.kill 1

(* [succ_aborts] is advanced by [on_rollback] (it must be up to date when the
   rollback back-off computes its delay); [note_start] only resets it when a
   brand-new transaction begins. *)
let note_start info ~restart =
  if restart then info.attempts <- info.attempts + 1
  else begin
    info.attempts <- 1;
    info.succ_aborts <- 0
  end;
  info.accesses <- 0;
  info.conflict_waits <- 0;
  clear_kill info

let note_rollback info = info.succ_aborts <- info.succ_aborts + 1

(* Each migration is worth this many accesses of Polka/Karma priority:
   roughly the cost ratio of a cross-socket transfer to a local access. *)
let steal_priority_bonus = 8

(* --- current-transaction registry (boosting support) ------------------- *)

(* Per-tid [txinfo] of the most recently started transaction.  A layer
   that detects conflicts outside the engines' lock tables (transactional
   boosting holds per-structure abstract locks) needs a way to aim a kill
   request at whatever transaction a thread is currently running; engines
   publish here at every transaction begin.  The store is guarded by a
   physical-equality check so steady-state begins write nothing.  Entries
   are never cleared: a kill aimed at a thread that already committed only
   taints its *next* attempt's kill flag, which [note_start] clears. *)

let current : txinfo array =
  Array.init Stm_intf.Stats.max_threads (fun tid -> make_txinfo ~tid ~seed:0)

let[@inline] set_current (info : txinfo) =
  if Array.unsafe_get current info.tid != info then
    Array.unsafe_set current info.tid info

(* Steal surfacing: the harness installs [Runtime.Steal.on_steal] to call
   this, so a migrated task's next conflicts see the migration (the
   priority managers credit [steal_priority_bonus] per steal).  Aimed at
   the thread's current txinfo — the per-tid descriptor engines publish
   at every begin — so it survives the next [note_start]'s counter
   resets only through the dedicated [steals] field, which [note_start]
   deliberately leaves alone (it is cleared with the descriptor). *)
let note_steal ~tid =
  if tid >= 0 && tid < Array.length current then begin
    let info = current.(tid) in
    info.steals <- info.steals + 1
  end

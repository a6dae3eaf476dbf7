(* Every Trace/Metrics/Profile/Inject call-site the engines share, plus
   the common begin/commit/abort bookkeeping sequences, in one place.
   Every helper takes the running transaction's descriptor and reads the
   engine's manager, token and metrics id from its core ([d.core]).

   The helpers are written so that an engine built on them charges the
   exact same simulated cycles in the exact same order as the hand-rolled
   code they replaced: everything here is tick-free except where a [tick]
   is explicit, and helpers never wrap the [Tmatomic] operations engines
   interleave between these calls.  All hook emissions sit behind the
   collector flags, so the observability-off fast path stays a handful of
   flag loads. *)

open Stm_intf

(* --- profiler phases -------------------------------------------------- *)

let[@inline] phase_commit tid =
  if !Runtime.Exec.prof_on then
    Runtime.Exec.set_phase tid Runtime.Exec.ph_commit

let[@inline] phase_other tid =
  if !Runtime.Exec.prof_on then
    Runtime.Exec.set_phase tid Runtime.Exec.ph_other

(* Validation attributes its cycles to its own phase, whichever phase
   (read, write or commit) triggered it; the caller restores the previous
   phase with [phase_restore]. *)
let[@inline] phase_enter_validate tid =
  if !Runtime.Exec.prof_on then begin
    let p = Runtime.Exec.get_phase tid in
    Runtime.Exec.set_phase tid Runtime.Exec.ph_validate;
    p
  end
  else 0

let[@inline] phase_restore tid p =
  if !Runtime.Exec.prof_on then Runtime.Exec.set_phase tid p

(* --- fault injection -------------------------------------------------- *)

(* Disarmed cost: one flag load.  [spurious_abort] consumes injector
   randomness, so callers must preserve its position and short-circuit
   behavior exactly. *)
let[@inline] inject_abort (d : Txdesc.t) =
  !Runtime.Inject.on && Runtime.Inject.spurious_abort ~tid:d.tid

let[@inline] inject_stall (d : Txdesc.t) =
  if !Runtime.Inject.on then Runtime.Inject.stall ~tid:d.tid

let[@inline] inject_stretch (d : Txdesc.t) =
  if !Runtime.Inject.on then Runtime.Inject.stretch ~tid:d.tid

(* A kill is due when a contention manager requested one (the
   irrevocability-token holder is exempt: it must win every conflict) or
   the fault injector rolled one.  [Serial.mine] is only consulted behind
   the kill flag, so the no-kill fast path is two flag loads.  Called on
   every read and write. *)
let[@inline] kill_due (d : Txdesc.t) =
  (Cm.Cm_intf.kill_requested d.info && not (Serial.mine d.core.ser ~tid:d.tid))
  || inject_abort d

(* --- stripe conflicts ------------------------------------------------- *)

let[@inline] stripe_conflict (d : Txdesc.t) ~stripe =
  if !Obs.Metrics.on then Obs.Metrics.on_stripe_conflict ~eid:d.core.eid ~stripe

(* --- contention-manager bridging -------------------------------------- *)

(* Resolve a conflict, with the irrevocable-transaction override: the
   token holder wins every conflict regardless of the manager's policy
   (under timid-style managers Abort_self would deadlock against a victim
   parked at the commit gate on a lock the holder needs). *)
let cm_resolve (d : Txdesc.t) ~victim =
  if Serial.mine d.core.ser ~tid:d.tid then begin
    Cm.Cm_intf.request_kill victim;
    Cm.Cm_intf.Killed_victim
  end
  else d.core.cm.resolve ~attacker:d.info ~victim

(* --- transaction begin ------------------------------------------------ *)

(* Common prefix of every engine's [start]: trace, profile phase, wasted-
   cycle stamp, metrics, the begin tick, and the log reset.  The engine
   finishes with its own ordering of [cm.on_start] vs the snapshot sample
   (SwissTM samples *before* [on_start], the others after) and then
   [phase_other]. *)
let tx_begin (d : Txdesc.t) =
  (* Begin is recorded BEFORE the snapshot is taken (Trace contract). *)
  if !Trace.enabled then Trace.on_begin ~tid:d.tid;
  phase_commit d.tid;
  d.start_cycles <- Runtime.Exec.now ();
  if !Obs.Metrics.on then Obs.Metrics.on_tx_begin d.info.obs ~eid:d.core.eid;
  Runtime.Exec.tick (Runtime.Costs.get ()).tx_begin;
  Txdesc.clear_logs d;
  (* Publish as the thread's current transaction so abstract-lock
     arbitration (boosting) can aim kills at us; physical-equality guarded
     store, free in the steady state. *)
  Cm.Cm_intf.set_current d.info;
  (* With the epoch reclaimer armed, a begin is a quiescent point: no
     snapshot is held yet.  Disarmed cost: one flag load; the
     announcement itself is cycle-free (plain atomics). *)
  if !Memory.Heap.epoch_on then Memory.Epoch.quiescent ~tid:d.tid

(* --- commit ----------------------------------------------------------- *)

(* Common prefix of every engine's [commit]: profile phase + end tick. *)
let[@inline] commit_entry (d : Txdesc.t) =
  phase_commit d.tid;
  Runtime.Exec.tick (Runtime.Costs.get ()).tx_end

(* Shared epilogue of every successful commit (read-only and update):
   trace, stats, metrics, buffered frees, manager notification,
   token-state cleanup.  The logs are left as they are: nothing reads a
   committed descriptor's logs, and the next [tx_begin] resets them.
   Clearing [committing] is an idempotent plain store, so doing it on paths
   that never entered the commit section is free and harmless.
   [allow_snapshot] is MVSTM's "may serve old versions again" latch;
   setting it is a dead store for every other engine. *)
let commit_done ~heap (d : Txdesc.t) =
  if !Trace.enabled then Trace.on_commit ~tid:d.tid;
  Stats.commit d.counters;
  if !Obs.Metrics.on then Obs.Metrics.on_tx_commit d.info.obs ~start:d.start_cycles;
  (* The commit is now certain: execute the buffered transactional frees
     (epoch limbo when the reclaimer is armed, immediate recycling
     otherwise).  Cycle-free; the free-less case is one length check. *)
  Txdesc.flush_frees ~heap d;
  d.allow_snapshot <- true;
  d.core.cm.on_commit d.info;
  d.committing <- false;
  Serial.release d.core.ser ~tid:d.tid;
  if !Memory.Heap.epoch_on then Memory.Epoch.quiescent ~tid:d.tid

(* --- abort ------------------------------------------------------------ *)

(* Shared tail of every engine's [rollback], after the engine released
   its locks / reader bits / privatization slot: trace, stats (including
   the wasted-cycle charge), metrics, token-state cleanup, log reset, the
   layered cleanup (boosting's semantic undo + abstract-lock release —
   before the CM back-off, so abstract locks never stay held across a
   sleep), the end tick, the manager's backoff, and the unwind.  Never
   returns. *)
let rollback (d : Txdesc.t) ~reason =
  if !Trace.enabled then Trace.on_abort ~tid:d.tid ~reason;
  Stats.abort d.counters reason;
  Stats.wasted d.counters ~cycles:(max 0 (Runtime.Exec.now () - d.start_cycles));
  if !Obs.Metrics.on then
    Obs.Metrics.on_tx_abort d.info.obs ~start:d.start_cycles ~reason;
  d.committing <- false;
  Txdesc.clear_logs d;
  Tx_signal.cleanup ~tid:d.tid;
  Runtime.Exec.tick (Runtime.Costs.get ()).tx_end;
  d.core.cm.on_rollback d.info;
  if !Memory.Heap.epoch_on then Memory.Epoch.quiescent ~tid:d.tid;
  Tx_signal.abort ()

(* Gate + commit-section entry of an update commit: defer to a running
   irrevocable transaction, then mark ourselves committing and emit the
   commit-start hooks.  [gate_check] polls the caller's kill flag while
   parked (engines whose waiters hold locks must poll; lazy engines pass
   a nop).  TinySTM passes no gate at all: its waiter holds encounter-time
   locks the irrevocable transaction may need — a deadlock it cannot
   break — so escalation there is a soft bound enforced at the start gate
   only.  A *boosted* transaction parked here holds abstract locks even
   when it holds no word locks, so the gate additionally honors kill
   requests for threads flagged in [Tx_signal.boost_busy] — otherwise a
   spinning abstract-lock acquirer could never dislodge a parked waiter
   (livelock). *)
let enter_update_commit ?gate_check (d : Txdesc.t) =
  (match gate_check with
  | Some check ->
      if Serial.held_by_other d.core.ser ~tid:d.tid then
        let check () =
          check ();
          if
            !Tx_signal.cleanup_on
            && Tx_signal.boost_busy.(d.tid)
            && Cm.Cm_intf.kill_requested d.info
          then rollback d ~reason:Tx_signal.Killed
        in
        Serial.gate d.core.ser ~tid:d.tid ~check
  | None -> ());
  d.committing <- true;
  if !Obs.Metrics.on then Obs.Metrics.on_commit_start d.info.obs

(* Release everything engine-independent on a non-[Abort] exception
   escaping the body (the engine released its own locks first), so a user
   bug cannot wedge the irrevocability token or the manager's throttle. *)
let emergency (d : Txdesc.t) =
  d.committing <- false;
  Serial.release d.core.ser ~tid:d.tid;
  d.core.cm.on_quit d.info;
  Txdesc.clear_logs d;
  d.depth <- 0

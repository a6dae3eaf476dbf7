(* The retry driver shared by every engine, the global lock included:
   flat nesting, graceful degradation to irrevocability, and the
   emergency unwind.

   Escalation protocol (before each attempt, outside any snapshot or
   lock):

   - once a retry's [succ_aborts] reaches the manager's budget (a first
     attempt's is the previous transaction's), or on request, take the
     token, drain in-flight commits, and run with [cm_ts = 0] to win all;
   - otherwise let the manager throttle us ([pre_attempt] may block) and
     defer to any irrevocable transaction at the start gate.  A thread
     parked there is idle — no locks, no published snapshot, kill flag
     cleared on the next [start] — so the gate needs no kill polling.

   An engine hands over its core and its policy entry points once, at
   creation ([ops]); the manager, the token and the descriptor table are
   read from the core, the retry loop is a top-level function, and depth
   and manager state are plain fields of the one [Txdesc.t], so running a
   transaction allocates nothing here.  A thread's descriptor is built
   on its first transaction, in [run_view]. *)

open Stm_intf

type ops = {
  core : Txdesc.core;
  start : Txdesc.t -> restart:bool -> unit;
  commit : Txdesc.t -> unit;
  rollback : Txdesc.t -> Tx_signal.abort_reason -> unit;
      (** the engine's own rollback: releases its locks, then unwinds
          through [Hooks.rollback] (raises [Abort]) *)
  release : Txdesc.t -> unit;
      (** drop the engine's locks on a foreign exception, before
          [Hooks.emergency] drops the token and the manager's throttle *)
}

let ops ?(release = ignore) ~start ~commit ~rollback core =
  { core; start; commit; rollback; release }

let nop_gate_check () = ()

(* An engine's statistics: every built descriptor's counters, summed,
   with the back-offs its manager counted in [d.info]. *)
let snapshot core =
  Txdesc.fold
    (fun acc (d : Txdesc.t) ->
      let s = Stats.snapshot d.counters in
      Stats.add acc { s with s_backoffs = d.info.Cm.Cm_intf.backoffs })
    (Stats.snapshot (Stats.create ()))
    core

let reset core =
  Txdesc.iter
    (fun (d : Txdesc.t) ->
      d.counters <- Stats.create ();
      d.info.Cm.Cm_intf.backoffs <- 0)
    core

(* Irrevocable holder only: wait out the update commits already past the
   gate when the token was taken; afterwards the gates keep the commit
   clock still.  The flags are plain stores: the walk charges no cycles,
   and a racy native read only softens the drain. *)
let drain (d : Txdesc.t) =
  Txdesc.iter
    (fun (o : Txdesc.t) ->
      if o.tid <> d.tid then
        while o.committing do
          Runtime.Exec.pause ()
        done)
    d.core

(* One attempt of the retry loop; top-level, not a closure inside [run], so
   running a transaction allocates nothing here.  The body sees [view d]. *)
let rec attempt (o : ops) ~tid ~irrevocable (d : Txdesc.t) view f ~restart =
  let info = d.info and ser = o.core.ser in
  if
    (irrevocable || (restart && info.succ_aborts >= o.core.cm.escalate_after))
    && not (Serial.mine ser ~tid)
  then begin
    if !Obs.Metrics.on then Obs.Metrics.on_escalation info.obs;
    Serial.acquire ser ~tid;
    drain d
  end;
  let escalated = Serial.mine ser ~tid in
  o.core.cm.pre_attempt info ~escalated;
  if (not escalated) && Serial.held_by_other ser ~tid then
    Serial.gate ser ~tid ~check:nop_gate_check;
  (* [start] may abort: glock's injected fault strikes after its lock. *)
  match
    o.start d ~restart;
    if escalated then info.Cm.Cm_intf.cm_ts <- 0;
    d.depth <- 1;
    f (view d)
  with
  | v ->
      d.depth <- 0;
      (try
         o.commit d;
         v
       with Tx_signal.Abort -> attempt o ~tid ~irrevocable d view f ~restart:true)
  | exception Tx_signal.Abort ->
      d.depth <- 0;
      attempt o ~tid ~irrevocable d view f ~restart:true
  | exception Tx_signal.Retry ->
      (* User-level abort request (boosting's semantic conflicts): unlike
         [Abort], the engine's rollback has NOT run yet.  Rolling back as
         [Killed] releases the locks, backs off and advances
         [succ_aborts], so semantic conflicts feed the same escalation
         budget as word-level ones. *)
      d.depth <- 0;
      (try o.rollback d Tx_signal.Killed with Tx_signal.Abort -> ());
      attempt o ~tid ~irrevocable d view f ~restart:true
  | exception e ->
      o.release d;
      Hooks.emergency d;
      raise e

(* [run_view o ~tid ~irrevocable view f] runs [f (view d)] as a transaction
   of [tid]'s descriptor [d]; [Package]'s [view] is its op-table lookup. *)
let run_view (o : ops) ~tid ~irrevocable view f =
  let d = Txdesc.get o.core tid in
  if d.depth > 0 then begin
    (* Flat nesting: an inner atomic block joins the enclosing one. *)
    d.depth <- d.depth + 1;
    Fun.protect ~finally:(fun () -> d.depth <- d.depth - 1) (fun () -> f (view d))
  end
  else attempt o ~tid ~irrevocable d view f ~restart:false

let run o ~tid ~irrevocable f = run_view o ~tid ~irrevocable Fun.id f

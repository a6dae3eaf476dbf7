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

   Engines register their policy entry points in an [ops] record once at
   creation, the retry loop is a top-level function, and depth and
   manager state are plain fields of the one [Txdesc.t], so running a
   transaction allocates nothing here.  A thread's descriptor is built
   on its first transaction, in [run_view]. *)

open Stm_intf

type ops = {
  ser : Serial.t;
  cm : Cm.Cm_intf.t;
  descs : Txdesc.t Runtime.Tid_table.t;
  start : Txdesc.t -> restart:bool -> unit;
  commit : Txdesc.t -> unit;
  emergency : Txdesc.t -> unit;  (** release everything on a foreign exception *)
  user_abort : Txdesc.t -> unit;
      (** route a body-raised {!Tx_signal.Retry} through the engine's own
          rollback (reason [Killed]): locks release, the CM backs off and
          [succ_aborts] advances, so semantic conflicts feed the same
          escalation budget as word-level ones.  Must raise [Abort]. *)
}

let nop_gate_check () = ()

(* Seed of every descriptor's contention-manager randomness (back-off
   jitter); one constant for all engines, so runs replay exactly. *)
let seed = 0xC0FFEE

(* Descriptor table: a thread's descriptor is built on its first
   transaction ([Runtime.Tid_table]), so construction costs the slot
   array, not 512 descriptors.  A thread publishes its tid (a lock owner
   word, a reader bit) only after that, so a victim lookup of the tid
   always finds a built descriptor.  A fresh descriptor is exactly
   [Txdesc.create]'s state and building it charges no cycles, so
   simulated schedules do not depend on when a thread first ran.  Every
   table shares one sentinel. *)
let absent = Txdesc.create ~tid:(-1) ~seed

let make_descs () =
  Runtime.Tid_table.create ~absent (fun tid -> Txdesc.create ~tid ~seed)

(* An engine's statistics: every built descriptor's counters, summed,
   with the back-offs its manager counted in [d.info]. *)
let snapshot descs =
  Runtime.Tid_table.fold
    (fun acc (d : Txdesc.t) ->
      let s = Stats.snapshot d.counters in
      Stats.add acc { s with s_backoffs = d.info.Cm.Cm_intf.backoffs })
    (Stats.snapshot (Stats.create ()))
    descs

let reset descs =
  Runtime.Tid_table.iter
    (fun (d : Txdesc.t) ->
      d.counters <- Stats.create ();
      d.info.Cm.Cm_intf.backoffs <- 0)
    descs

(* Irrevocable holder only: wait out the update commits already past the
   gate when the token was taken; afterwards the gates keep the commit
   clock still.  The flags are plain stores: the walk charges no cycles,
   and a racy native read only softens the drain. *)
let drain descs ~tid =
  Runtime.Tid_table.iter
    (fun (d : Txdesc.t) ->
      if d.tid <> tid then
        while d.committing do
          Runtime.Exec.pause ()
        done)
    descs

(* One attempt of the retry loop; top-level, not a closure inside [run], so
   running a transaction allocates nothing here.  The body sees [view d]. *)
let rec attempt (o : ops) ~tid ~irrevocable (d : Txdesc.t) view f ~restart =
  let info = d.info in
  if
    (irrevocable || (restart && info.succ_aborts >= o.cm.escalate_after))
    && not (Serial.mine o.ser ~tid)
  then begin
    if !Obs.Metrics.on then Obs.Metrics.on_escalation info.obs;
    Serial.acquire o.ser ~tid;
    drain o.descs ~tid
  end;
  let escalated = Serial.mine o.ser ~tid in
  o.cm.pre_attempt info ~escalated;
  if (not escalated) && Serial.held_by_other o.ser ~tid then
    Serial.gate o.ser ~tid ~check:nop_gate_check;
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
      (* User-level abort request (boosting's semantic conflicts):
         unlike [Abort], the engine's rollback has NOT run yet. *)
      d.depth <- 0;
      (try o.user_abort d with Tx_signal.Abort -> ());
      attempt o ~tid ~irrevocable d view f ~restart:true
  | exception e ->
      o.emergency d;
      raise e

(* [run_view o ~tid ~irrevocable view f] runs [f (view d)] as a transaction
   of [tid]'s descriptor [d]; [Package]'s [view] is its op-table lookup. *)
let run_view (o : ops) ~tid ~irrevocable view f =
  let d = Runtime.Tid_table.get o.descs tid in
  if d.depth > 0 then begin
    (* Flat nesting: an inner atomic block joins the enclosing one. *)
    d.depth <- d.depth + 1;
    Fun.protect ~finally:(fun () -> d.depth <- d.depth - 1) (fun () -> f (view d))
  end
  else attempt o ~tid ~irrevocable d view f ~restart:false

let run o ~tid ~irrevocable f = run_view o ~tid ~irrevocable Fun.id f

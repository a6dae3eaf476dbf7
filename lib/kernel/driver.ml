(* The retry driver shared by every engine: flat nesting, graceful
   degradation to irrevocability, and the emergency unwind.  This loop
   was copied verbatim in all five engines; it lives here once now.

   Escalation protocol (before each attempt, outside any snapshot or
   lock):

   - once [succ_aborts] reaches the manager's budget (or the caller asked
     for irrevocability), acquire the token, drain in-flight commits, and
     run with [cm_ts = 0] so every conflict resolves our way;
   - otherwise let the manager throttle us ([pre_attempt] may block) and
     defer to any irrevocable transaction at the start gate.  A thread
     parked there is idle — no locks, no published snapshot, kill flag
     cleared on the next [start] — so the gate needs no kill polling.

   Engines register their policy entry points in an [ops] record once at
   creation, so running a transaction allocates no closures beyond the
   [attempt] loop every engine already allocated.  Every engine runs on
   the one [Txdesc.t], so depth and manager state are plain field
   accesses here. *)

open Stm_intf

type ops = {
  ser : Serial.t;
  cm : Cm.Cm_intf.t;
  descs : Txdesc.t array;
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

(** Pool-backed descriptor table: one descriptor per logical thread,
    acquired from {!Txdesc.Pool} (recycled across engine instances) and
    returned when the table is collected — engines have no explicit
    close, so the finaliser is the release point. *)
let make_descs () =
  let descs =
    Array.init Stats.max_threads (fun tid -> Txdesc.Pool.acquire ~tid ~seed)
  in
  Gc.finalise (Array.iter Txdesc.Pool.release) descs;
  descs

let run (o : ops) ~tid ~irrevocable f =
  let d = o.descs.(tid) in
  if d.depth > 0 then begin
    (* Flat nesting: an inner atomic block joins the enclosing one. *)
    d.depth <- d.depth + 1;
    Fun.protect ~finally:(fun () -> d.depth <- d.depth - 1) (fun () -> f d)
  end
  else
    let info = d.info in
    let rec attempt ~restart =
      if
        (irrevocable
        || info.Cm.Cm_intf.succ_aborts >= o.cm.Cm.Cm_intf.escalate_after)
        && not (Serial.mine o.ser ~tid)
      then begin
        if !Obs.Metrics.on then Obs.Metrics.on_escalation ~tid;
        Serial.acquire o.ser ~tid;
        Serial.drain o.ser ~tid
      end;
      let escalated = Serial.mine o.ser ~tid in
      o.cm.pre_attempt info ~escalated;
      if (not escalated) && Serial.held_by_other o.ser ~tid then
        Serial.gate o.ser ~tid ~check:nop_gate_check;
      o.start d ~restart;
      if escalated then info.Cm.Cm_intf.cm_ts <- 0;
      d.depth <- 1;
      match f d with
      | v ->
          d.depth <- 0;
          (try
             o.commit d;
             v
           with Tx_signal.Abort -> attempt ~restart:true)
      | exception Tx_signal.Abort ->
          d.depth <- 0;
          attempt ~restart:true
      | exception Tx_signal.Retry ->
          (* User-level abort request (boosting's semantic conflicts):
             unlike [Abort], the engine's rollback has NOT run yet. *)
          d.depth <- 0;
          (try o.user_abort d with Tx_signal.Abort -> ());
          attempt ~restart:true
      | exception e ->
          o.emergency d;
          raise e
    in
    attempt ~restart:false

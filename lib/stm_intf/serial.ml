(* The per-engine irrevocability token.

   Graceful degradation: after K consecutive aborts an engine escalates the
   transaction to *irrevocable* execution — it acquires this token, keeps
   it across any further retries, and every other thread defers:

   - at transaction start, non-holders wait until the token is free (the
     start gate), so no new competition is admitted;
   - at commit entry, non-holders wait too (the commit gate) in engines
     where waiting there cannot deadlock — that closes the remaining
     validation races, because nothing can advance the global commit clock
     while the irrevocable transaction runs;
   - the holder drains the update commits that were already past the gate
     when the token was taken ([Kernel.Driver] walks the descriptors' flags
     for that; the token itself is only the owner word).

   Combined with a contention manager that lets a [cm_ts = 0] holder win
   every write/write conflict and with the fault injector's exemption
   ([Runtime.Inject.exempt]), the holder's next attempt cannot abort in a
   simulated run: escalation bounds every thread's consecutive aborts by K.

   Cost discipline: all checks on the token-free path are plain
   ([unsafe_get]) reads and charge zero simulated cycles, so runs that
   never escalate take bit-identical schedules to builds without the
   token, and the native everything-off overhead stays within the perf
   gate.  Only actual waiting spins through [Exec.pause], which charges
   cycles like any other spin. *)

type t = Runtime.Tmatomic.t  (* 0 = free, tid + 1 = irrevocable holder *)

let create () = Runtime.Tmatomic.make 0

(* Polling the token is like polling your own kill flag: the line is only
   written on (rare) escalation events, so reads stay cache-local and are
   not charged in the cost model. *)
let holder t = Runtime.Tmatomic.unsafe_get t
let mine t ~tid = holder t = tid + 1
let held_by_other t ~tid = let o = holder t in o <> 0 && o <> tid + 1

(** Become the single irrevocable transaction; spins until the token is
    free.  The holder is exempt from fault injection for the duration. *)
let acquire t ~tid =
  let rec go () =
    if Runtime.Tmatomic.get t <> 0 then begin
      Runtime.Exec.pause ();
      go ()
    end
    else if not (Runtime.Tmatomic.cas t ~expect:0 ~replace:(tid + 1)) then
      go ()
  in
  go ();
  Runtime.Inject.exempt := tid

let release t ~tid =
  if mine t ~tid then begin
    Runtime.Inject.exempt := -1;
    Runtime.Tmatomic.set t 0
  end

(** Wait while another thread holds the token.  [check] runs on every spin
    iteration — engines with remote kills pass their kill poll so a gated
    thread that still holds locks can be aborted out of the wait. *)
let gate t ~tid ~check =
  while held_by_other t ~tid do
    check ();
    Runtime.Exec.pause ()
  done

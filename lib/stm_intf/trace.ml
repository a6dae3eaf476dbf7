(* Transactional history recording.

   When [enabled] every engine appends begin/read/write/commit/abort
   events — with thread id and virtual time — to a global in-memory log as
   they happen on the tx_ops path.  The offline opacity checker
   (lib/check) consumes the log; the schedule-exploration fuzzer
   (bin/stm_fuzz) drives both.

   Cost discipline: recording is OFF by default and every hook is guarded
   by a single [!enabled] dereference at the call site, so the engines'
   fast paths pay one load + one predictable branch per event when
   recording is off (the PR-1 perf gate budget).  The hooks charge no
   simulated cycles either, so recorded and unrecorded runs take
   bit-identical schedules under every scheduler policy.

   Event placement contract (what makes the real-time edges derived from
   the log sound — see lib/check/opacity.ml):

   - [on_begin] fires BEFORE the engine samples its snapshot/clock;
   - [on_commit] fires AFTER the commit's linearization point (write-back
     done, locks released or about to be released within the same
     no-yield region);
   - [on_read]/[on_write] fire after the operation completed, on the same
     thread, so per-thread program order in the log is the real program
     order.

   Hence if the log shows Commit(A) before Begin(B), transaction A really
   committed before B took its snapshot.  The converse may not hold (an
   edge can be missed when B yields between its snapshot and the hook),
   which only makes the checker more permissive, never unsound.

   The recorder is single-domain: it is meant for runs under [Sim], where
   all simulated threads share one domain.  Recording a native multi-domain
   run would race on the log. *)

(* What a contention manager decided when asked to resolve a conflict.
   Defined here (not in lib/cm) so the trace layer stays below the CM
   layer in the dependency order; lib/cm maps its own decision type onto
   this one when emitting the event. *)
type cm_decision = Cm_abort_self | Cm_wait | Cm_kill

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

let cm_decision_label = function
  | Cm_abort_self -> "abort-self"
  | Cm_wait -> "wait"
  | Cm_kill -> "kill"

(* The flag is dereferenced directly by engine call sites:
     if !Trace.enabled then Trace.on_read ~tid ~addr ~value
   Do not flip it mid-simulation: events from a partially recorded
   transaction would confuse the history grouper. *)
let enabled = ref false

let log : event list ref = ref []
let n_events = ref 0

(* Closed-nested scopes (SwissTM's atomic_closed) partially roll back a
   transaction's logs; the flat event stream cannot express that, so the
   engine marks the trace as unsupported and the checker refuses it rather
   than reporting a bogus verdict. *)
let scope_aborts_ctr = ref 0

let start () =
  log := [];
  n_events := 0;
  scope_aborts_ctr := 0;
  enabled := true;
  Runtime.Exec.hooks_on := true

let stop () =
  enabled := false;
  Runtime.Exec.hooks_on := !Runtime.Exec.prof_on;
  let events = Array.make !n_events (Commit { tid = 0; time = 0 }) in
  let rec fill i = function
    | [] -> ()
    | e :: tl ->
        events.(i) <- e;
        fill (i - 1) tl
  in
  fill (!n_events - 1) !log;
  log := [];
  n_events := 0;
  events

let scope_aborts () = !scope_aborts_ctr

let push e =
  log := e :: !log;
  incr n_events

let on_begin ~tid =
  if !enabled then push (Begin { tid; time = Runtime.Exec.now () })

let on_read ~tid ~addr ~value =
  if !enabled then push (Read { tid; addr; value; time = Runtime.Exec.now () })

let on_write ~tid ~addr ~value =
  if !enabled then push (Write { tid; addr; value; time = Runtime.Exec.now () })

let on_commit ~tid =
  if !enabled then push (Commit { tid; time = Runtime.Exec.now () })

let on_abort ~tid ~reason =
  if !enabled then push (Abort { tid; reason; time = Runtime.Exec.now () })

let on_cm_decision ~tid ~victim ~decision =
  if !enabled then
    push (CmDecision { tid; victim; decision; time = Runtime.Exec.now () })

let on_scope_abort ~tid =
  ignore tid;
  if !enabled then incr scope_aborts_ctr

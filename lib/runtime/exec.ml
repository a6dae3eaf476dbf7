(* Execution-mode dispatch between the discrete-event simulator and native
   [Domain]-based execution.

   STM engines and benchmarks call [tick]/[pause]/[self]/[now] on every
   simulated instruction.  Under [Sim.run] these charge virtual cycles to the
   calling simulated thread and yield to the scheduler when the thread is no
   longer the earliest one; outside a simulation they are (nearly) free
   no-ops, so the very same engine code runs unmodified on real domains.

   The mutable scheduler state below is written only by [Sim] from the single
   simulation domain; native-mode domains never write it.  Mixing a running
   simulation with concurrent native-mode domains in one process is not
   supported. *)

type _ Effect.t += Yield : unit Effect.t

(* Current simulated thread id, or -1 when not inside a simulation. *)
let cur = ref (-1)

(* Per-thread virtual clocks (cycles), owned by the running simulation. *)
let vtimes = ref [||]

(* Virtual time at which the current thread stops being the earliest
   runnable one; ticking past it yields to the scheduler.  [max_int] when
   the current thread is the only one left. *)
let next_deadline = ref max_int

(* Whether the last yield back to the scheduler was a blocked/no-progress
   yield ([pause]/[yield] from a spin loop) rather than a deadline
   preemption from [tick].  Scheduler policies that do not run the
   earliest thread (PCT) read this to demote spinners so a lock owner can
   run; [Sim] clears it before resuming a thread. *)
let blocked_yield = ref false

let in_sim () = !cur >= 0

(* --- simulated-time profiler backend (read by lib/obs) ----------------

   Every charged cycle flows through [tick]/[tick_as]/[pause], so
   accounting here — rather than at the hundreds of engine call sites —
   attributes ALL of simulated time to a phase by construction.  Engines
   declare phase regions with [set_phase] (guarded by [prof_on] at the
   call site); [pause] self-attributes to the spin phase and
   [Backoff.wait_cycles] to the back-off phase via [tick_as].  When
   [prof_on] is false the cost is one load + one predictable branch per
   tick, mirroring the Trace hook discipline.  The profiler charges no
   cycles of its own, so profiled and unprofiled runs take bit-identical
   schedules. *)

let prof_threads = Topology.max_cores
let n_phases = 8 (* power of two for cheap indexing *)
let ph_other = 0 (* application compute between/inside transactions *)
let ph_read = 1
let ph_write = 2
let ph_validate = 3
let ph_commit = 4 (* includes tx begin/end bookkeeping *)
let ph_spin = 5
let ph_backoff = 6
let ph_idle = 7 (* open-system worker waiting for the next arrival *)
let prof_on = ref false

(* OR of the per-access annotation collectors (profiler, trace recording).
   Engine [tx_ops] wrappers test this ONE flag on their read/write fast
   path and only consult [prof_on] / [Trace.enabled] individually behind
   it, so the everything-off cost per access stays a single load + branch
   — the same as the trace-only discipline this layer extends.  Maintained
   by [Trace.start]/[stop] and [Obs.Profile.enable]/[disable]. *)
let hooks_on = ref false

let prof_phase = Array.make prof_threads ph_other
let prof_cycles = Array.make (prof_threads * n_phases) 0

let set_phase tid p = prof_phase.(tid land (prof_threads - 1)) <- p
let get_phase tid = prof_phase.(tid land (prof_threads - 1))
let prof_read ~tid ~phase = prof_cycles.((tid land (prof_threads - 1)) * n_phases + phase)

let prof_reset () =
  Array.fill prof_cycles 0 (Array.length prof_cycles) 0;
  Array.fill prof_phase 0 prof_threads ph_other

let prof_add c n =
  let s = c land (prof_threads - 1) in
  let i = (s * n_phases) + prof_phase.(s) in
  prof_cycles.(i) <- prof_cycles.(i) + n

let prof_add_as c p n =
  let i = ((c land (prof_threads - 1)) * n_phases) + p in
  prof_cycles.(i) <- prof_cycles.(i) + n

(** Charge [n] virtual cycles to the calling simulated thread; no-op in
    native mode.  May transfer control to another simulated thread. *)
let[@inline] tick n =
  let c = !cur in
  if c >= 0 then begin
    if !prof_on then prof_add c n;
    let v = !vtimes in
    v.(c) <- v.(c) + n;
    if v.(c) > !next_deadline then Effect.perform Yield
  end

(** Like [tick], but attributes the cycles to phase [p] regardless of the
    thread's current phase (used by the back-off wait). *)
let[@inline] tick_as p n =
  let c = !cur in
  if c >= 0 then begin
    if !prof_on then prof_add_as c p n;
    let v = !vtimes in
    v.(c) <- v.(c) + n;
    if v.(c) > !next_deadline then Effect.perform Yield
  end

(** Advance the calling simulated thread's clock to virtual time [t]
    (no-op if already past it, or in native mode).  The charged cycles are
    attributed to the idle phase: this is an open-system worker waiting
    for the next request arrival, not doing transactional work.  Used by
    the service harness; makes offered load independent of service rate. *)
let idle_until t =
  let c = !cur in
  if c >= 0 then begin
    let d = t - (!vtimes).(c) in
    if d > 0 then tick_as ph_idle d
  end

(** Yield unconditionally (used by spin loops that made no progress). *)
let yield () =
  if !cur >= 0 then begin
    blocked_yield := true;
    Effect.perform Yield
  end

(* Thread id for native mode, assigned by the workload harness. *)
let native_tid : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)
let set_native_tid tid = Domain.DLS.set native_tid tid

(** Logical thread id: simulated thread id inside a simulation, otherwise
    the id registered with [set_native_tid] (0 by default). *)
let[@inline] self () =
  let c = !cur in
  if c >= 0 then c else Domain.DLS.get native_tid

(** Virtual time of the calling simulated thread; 0 in native mode. *)
let[@inline] now () =
  let c = !cur in
  if c >= 0 then (!vtimes).(c) else 0

(** One spin-wait iteration: charges [Costs.pause] cycles in a simulation,
    issues a CPU relax hint natively. *)
let pause () =
  let c = !cur in
  if c >= 0 then begin
    let p = (Costs.get ()).pause in
    if !prof_on then prof_add_as c ph_spin p;
    let v = !vtimes in
    v.(c) <- v.(c) + p;
    (* A spinning thread must always let the lock owner run, even when the
       spinner is still the earliest thread. *)
    blocked_yield := true;
    Effect.perform Yield
  end
  else Domain.cpu_relax ()

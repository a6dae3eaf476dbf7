(* Deterministic fault injector.

   Robustness machinery (adaptive throttling, irrevocable escalation) only
   earns its keep under pathological conditions that healthy benchmarks
   never produce.  This module manufactures those conditions on demand:

   - *spurious aborts*: a transactional access is condemned as if a remote
     contention manager had killed it;
   - *lock-holder stalls*: a thread that just acquired a lock sits on it
     for a configurable number of cycles, widening every conflict window;
   - *commit stretching*: the commit critical section is lengthened, which
     in lazy engines is exactly the window in which validation failures
     and w/w conflicts are manufactured.

   Engines poll the injector at the same points they poll their kill flag,
   guarded by the single [on] load, so the injector-off fast path costs one
   load + one predictable branch and disarmed runs take bit-identical
   schedules to builds without the injector.

   Determinism: every thread draws from its own SplitMix64 stream seeded
   from (seed, tid), so a thread's fault sequence depends only on its own
   access sequence — in the simulator a given (engine, workload, scheduler
   seed, injector seed) quadruple always produces the same faults.

   The single [exempt] slot implements the irrevocability contract: the one
   transaction that escalated to irrevocable execution must win every
   conflict, and a fault injector that could still condemn it would make
   the no-starvation guarantee unprovable.  [Serial] (lib/stm_intf) sets it
   while a thread holds an engine's irrevocability token. *)

type profile = {
  abort_ppm : int;  (* per-access spurious-abort probability, ppm *)
  stall_ppm : int;  (* per-lock-acquisition stall probability, ppm *)
  stall_cycles : int;  (* length of an injected holder stall *)
  stretch_ppm : int;  (* per-commit stretch probability, ppm *)
  stretch_cycles : int;  (* length of an injected commit stretch *)
}

(* A dense storm: roughly one access in eight condemned, frequent long
   holder stalls.  Strong enough that fixed CM policies exhibit unbounded
   consecutive-abort runs within a few hundred transactions. *)
let abort_storm =
  {
    abort_ppm = 125_000;
    stall_ppm = 50_000;
    stall_cycles = 2_000;
    stretch_ppm = 100_000;
    stretch_cycles = 1_000;
  }

let on = ref false

(* Logical tid of the one thread exempt from injection (irrevocable token
   holder), or -1.  A plain ref: it is written only around token
   acquisition/release, and a racy read in native mode merely delays or
   spares one fault. *)
let exempt = ref (-1)

let max_threads = Topology.max_cores
let cfg = ref abort_storm
let seed = ref 0
let rngs = Array.init max_threads (fun tid -> Rng.for_thread ~seed:0 ~tid)

(* Telemetry (plain sharded counters, zero simulated cycles). *)
let injected_aborts_a = Array.make max_threads 0
let injected_stalls_a = Array.make max_threads 0
let injected_stretches_a = Array.make max_threads 0

let sum = Array.fold_left ( + ) 0
let injected_aborts () = sum injected_aborts_a
let injected_stalls () = sum injected_stalls_a
let injected_stretches () = sum injected_stretches_a

let arm ~seed:s profile =
  cfg := profile;
  seed := s;
  for tid = 0 to max_threads - 1 do
    rngs.(tid) <- Rng.for_thread ~seed:s ~tid
  done;
  Array.fill injected_aborts_a 0 max_threads 0;
  Array.fill injected_stalls_a 0 max_threads 0;
  Array.fill injected_stretches_a 0 max_threads 0;
  exempt := -1;
  on := true

let disarm () =
  on := false;
  exempt := -1

let armed () = if !on then Some (!seed, !cfg) else None

let slot tid = tid land (max_threads - 1)
let hit tid ppm = ppm > 0 && Rng.int rngs.(slot tid) 1_000_000 < ppm

(* Injected waits are charged like the real thing they model — a stalled
   holder is indistinguishable from a slow one — so they go through the
   normal cycle accounting (spin phase for stalls, commit phase for
   stretches) and perturb schedules exactly as intended. *)
let charge phase cycles =
  if cycles > 0 then begin
    if Exec.in_sim () then Exec.tick_as phase cycles
    else
      for _ = 1 to (cycles + 7) / 8 do
        Domain.cpu_relax ()
      done
  end

(** Should the calling thread's transaction be spuriously condemned at this
    access?  Call only behind [!on]. *)
let spurious_abort ~tid =
  if !exempt = tid then false
  else if hit tid (!cfg).abort_ppm then begin
    let s = slot tid in
    injected_aborts_a.(s) <- injected_aborts_a.(s) + 1;
    true
  end
  else false

(** Maybe stall right after a lock acquisition.  Call only behind [!on]. *)
let stall ~tid =
  if !exempt <> tid && hit tid (!cfg).stall_ppm then begin
    let s = slot tid in
    injected_stalls_a.(s) <- injected_stalls_a.(s) + 1;
    charge Exec.ph_spin (!cfg).stall_cycles
  end

(** Maybe stretch the commit window.  Call only behind [!on]. *)
let stretch ~tid =
  if !exempt <> tid && hit tid (!cfg).stretch_ppm then begin
    let s = slot tid in
    injected_stretches_a.(s) <- injected_stretches_a.(s) + 1;
    charge Exec.ph_commit (!cfg).stretch_cycles
  end

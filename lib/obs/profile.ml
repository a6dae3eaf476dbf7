(* Simulated-time profiler front-end.

   The accounting itself lives in [Runtime.Exec] (every charged cycle
   flows through tick/tick_as/pause, so instrumenting those attributes
   ALL simulated time by construction); this module owns the on/off
   switch, snapshots the per-(thread, phase) matrix, and reports it as
   a phase-breakdown table.  Per-engine attribution is by harvest: callers
   [reset] before and [snapshot] after each engine's run. *)

open Runtime

let n_phases = 8

let phase_names =
  [| "other"; "read"; "write"; "validate"; "commit"; "spin"; "backoff"; "idle" |]

type snapshot = { cycles : int array (* indexed by phase *) }

let enable () =
  Exec.prof_on := true;
  Exec.hooks_on := true

let disable () =
  Exec.prof_on := false;
  Exec.hooks_on := !Stm_intf.Trace.enabled

let reset () = Exec.prof_reset ()

let snapshot () =
  let cycles = Array.make n_phases 0 in
  for tid = 0 to Exec.prof_threads - 1 do
    for p = 0 to n_phases - 1 do
      cycles.(p) <- cycles.(p) + Exec.prof_read ~tid ~phase:p
    done
  done;
  { cycles }

let total s = Array.fold_left ( + ) 0 s.cycles

let add a b = { cycles = Array.mapi (fun i c -> c + b.cycles.(i)) a.cycles }

(* One row per phase, then the total: cycles and share of the total. *)
let table ~title s =
  let t = float_of_int (total s) in
  let share c = if t = 0. then 0. else 100. *. float_of_int c /. t in
  let row name c = (name, [ float_of_int c; share c ]) in
  Report.table title "cycles, %" [ "cycles"; "share" ]
    (List.mapi (fun p name -> row name s.cycles.(p)) (Array.to_list phase_names)
    @ [ row "total" (total s) ])

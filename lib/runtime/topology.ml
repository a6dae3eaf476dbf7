(* Machine topology for the simulated multiprocessor.

   The paper's machine is one 4-core die; the scale-out experiments
   (DESIGN.md §16) model a NUMA box: [sockets] packages of
   [cores_per_socket] cores each.  A simulated thread is pinned to core
   [tid mod cores], and cores fill sockets compactly (core c lives on
   socket [c / cores_per_socket]), so small thread counts stay on one
   socket and only genuinely large runs pay cross-socket traffic.

   The default topology is a single socket ("flat"), under which every
   cost in the system is bit-identical to the pre-topology model — that
   degeneracy is what keeps the frozen ≤8-thread gates valid.  Like
   [Costs], the topology is a process-wide setting written only from
   test/bench setup code, never while simulated threads run.

   This module also owns two bits of per-socket mutable state that sit
   below the engines:

   - a directory-style queuing model: consecutive cross-socket misses
     homed at one socket within [dir_window] virtual cycles queue behind
     each other at that socket's directory, the NUMA analogue of
     [Tmatomic]'s per-line queue;

   - per-socket hit/miss/steal counters, incremented (uncharged) from
     the simulation fast paths and surfaced through [Obs.Metrics].  They
     live here rather than in [Obs] because [runtime] cannot depend on
     the layers above it.  Every [Tmatomic] charge bumps one, so the
     socket it is keyed on comes from a tid -> socket table that [set]
     rebuilds, not from a [mod] and a division per access. *)

(* Hard ceiling on simulated cores; [Stm_intf.Stats.max_threads] must not
   exceed it (asserted there, since runtime is below stm_intf). *)
let max_cores = 512
let max_sockets = 64

type t = { sockets : int; cores_per_socket : int }

let flat = { sockets = 1; cores_per_socket = max_cores }

let make ~sockets ~cores_per_socket =
  if sockets <= 0 || cores_per_socket <= 0 then
    invalid_arg "Topology.make: sockets and cores_per_socket must be positive";
  if sockets > max_sockets then
    invalid_arg "Topology.make: too many sockets";
  if sockets * cores_per_socket > max_cores then
    invalid_arg "Topology.make: sockets * cores_per_socket exceeds max_cores";
  { sockets; cores_per_socket }

let cores t = t.sockets * t.cores_per_socket

(* --- per-socket directory + counters ----------------------------------- *)

let dir_last_miss = Array.make max_sockets (-(1 lsl 50))
let dir_queue = Array.make max_sockets 0
let hits = Array.make max_sockets 0
let misses = Array.make max_sockets 0
let steals = Array.make max_sockets 0

let reset_counters () =
  Array.fill hits 0 max_sockets 0;
  Array.fill misses 0 max_sockets 0;
  Array.fill steals 0 max_sockets 0

let reset_directory () =
  Array.fill dir_last_miss 0 max_sockets (-(1 lsl 50));
  Array.fill dir_queue 0 max_sockets 0

(* --- the process-wide topology ----------------------------------------- *)

let current = ref flat

let get () = !current
let is_flat () = !current.sockets = 1

(* --- placement ---------------------------------------------------------- *)

let[@inline] core_of_tid tid =
  let t = !current in
  tid mod (t.sockets * t.cores_per_socket)

let[@inline] socket_of_core core = core / !current.cores_per_socket

(* [socket_of_core (core_of_tid tid)] under [!current], rebuilt by [set]. *)
let sockets_of_tids = Array.make max_cores 0
let[@inline] socket_of_tid tid = sockets_of_tids.(tid)

(* Changing the topology resets the directory and the counters: runs under
   different topologies must not share queuing state, or cycle counts
   would depend on what ran before. *)
let set t =
  current := t;
  for tid = 0 to max_cores - 1 do
    sockets_of_tids.(tid) <- socket_of_core (core_of_tid tid)
  done;
  reset_directory ();
  reset_counters ()

let reset () = set flat

(* --- directory queuing -------------------------------------------------- *)

(* Same shape as [Tmatomic]'s per-line queue: misses arriving at one
   home directory within [dir_window] cycles of each other queue behind
   the previous transfer.  The cap is lower than the line cap — a
   directory serves a whole socket, and the per-line queue already
   models the single-line hot-spot collapse. *)
let dir_window = 1000
let dir_max_queue = 8

let dir_charge ~socket ~now =
  if now - dir_last_miss.(socket) < dir_window then
    dir_queue.(socket) <- Int.min (dir_queue.(socket) + 1) dir_max_queue
  else dir_queue.(socket) <- 0;
  dir_last_miss.(socket) <- now;
  dir_queue.(socket)

(* --- counters ----------------------------------------------------------- *)

let[@inline] count_hit ~socket = hits.(socket) <- hits.(socket) + 1
let[@inline] count_miss ~socket = misses.(socket) <- misses.(socket) + 1
let[@inline] count_steal ~socket = steals.(socket) <- steals.(socket) + 1

let socket_counters () =
  let n = !current.sockets in
  Array.init n (fun s -> (hits.(s), misses.(s), steals.(s)))

let pp ppf t =
  Format.fprintf ppf "%d socket%s x %d cores" t.sockets
    (if t.sockets = 1 then "" else "s")
    t.cores_per_socket

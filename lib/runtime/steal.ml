(* Per-core work-stealing deques for transactional tasks (DESIGN.md §16).

   The shape is Manticore's vproc scheduler: every simulated core owns a
   deque of thunks; the owner pushes and pops at the bottom (LIFO, keeps
   the working set warm), thieves take from the top (FIFO, steals the
   oldest — largest — task).  The simulator is single-threaded, so no
   synchronisation is needed: determinism comes for free, and the *costs*
   of stealing are what we model —

   - popping the own deque is a local access ([costs.mem]);
   - probing a victim's deque touches a remote line: [miss_socket] for a
     same-socket victim, [miss_cross] otherwise;
   - a successful steal pays one more transfer of the same distance for
     the task itself, and is counted against the thief's socket
     ([Topology.count_steal]) and announced on [on_steal] so layers above
     (the CM via [Cm_intf.note_steal], Obs) can see migrations.

   Victim order is a seeded per-core rotation: each failed acquire draws
   one offset from the thief core's private stream and probes the other
   cores in circular order from there — deterministic given the seed,
   decorrelated across cores. *)

type task = unit -> unit

type deque = {
  mutable buf : task array;
  mutable top : int;  (** index of the oldest task (steal end) *)
  mutable bottom : int;  (** index one past the newest task (owner end) *)
}

type t = {
  cores : int;
  deques : deque array;
  rngs : Rng.t array;  (** per-core victim-selection streams *)
  mutable pending : int;  (** tasks pushed and not yet taken, all deques *)
  mutable steal_count : int;
  mutable probe_count : int;
}

let none : task = fun () -> ()

let make_deque () = { buf = Array.make 64 none; top = 0; bottom = 0 }

let create ?(seed = 0) ~cores () =
  if cores <= 0 || cores > Topology.max_cores then
    invalid_arg "Steal.create: bad core count";
  {
    cores;
    deques = Array.init cores (fun _ -> make_deque ());
    rngs = Array.init cores (fun c -> Rng.for_thread ~seed ~tid:c);
    pending = 0;
    steal_count = 0;
    probe_count = 0;
  }

let pending t = t.pending
let steals t = t.steal_count
let probes t = t.probe_count

(* Announced on every successful steal; installed by the harness layer to
   surface migrations to the contention manager and to Obs.  Must not
   charge cycles (the steal itself already did). *)
let on_steal : (thief:int -> victim:int -> unit) ref =
  ref (fun ~thief:_ ~victim:_ -> ())

let grow d =
  let n = Array.length d.buf in
  let live = d.bottom - d.top in
  let buf = Array.make (2 * n) none in
  Array.blit d.buf d.top buf 0 live;
  d.buf <- buf;
  d.top <- 0;
  d.bottom <- live

let push t ~core task =
  let d = t.deques.(core) in
  if d.bottom = Array.length d.buf then
    if d.top > 0 then begin
      (* Compact instead of growing when the dead prefix suffices. *)
      let live = d.bottom - d.top in
      Array.blit d.buf d.top d.buf 0 live;
      Array.fill d.buf live (Array.length d.buf - live) none;
      d.top <- 0;
      d.bottom <- live
    end
    else grow d;
  d.buf.(d.bottom) <- task;
  d.bottom <- d.bottom + 1;
  t.pending <- t.pending + 1

let[@inline] size d = d.bottom - d.top

(* Owner end: newest task, local cost.  The removal happens BEFORE the
   cycle charge: [Exec.tick] may yield to another simulated thread, and a
   thief running in that window must not see a task the owner already
   committed to taking (the lost-update would break the deque's
   [top <= bottom] invariant). *)
let pop_own t ~core =
  let d = t.deques.(core) in
  if size d = 0 then None
  else begin
    d.bottom <- d.bottom - 1;
    let task = d.buf.(d.bottom) in
    d.buf.(d.bottom) <- none;
    t.pending <- t.pending - 1;
    Exec.tick (Costs.get ()).mem;
    Some task
  end

(* Thief end: oldest task of [victim], remote cost already charged by the
   caller's probe. *)
let take_top t ~victim =
  let d = t.deques.(victim) in
  let task = d.buf.(d.top) in
  d.buf.(d.top) <- none;
  d.top <- d.top + 1;
  t.pending <- t.pending - 1;
  task

let[@inline] probe_cost (costs : Costs.t) ~thief_socket ~victim_socket =
  if thief_socket = victim_socket then costs.miss_socket else costs.miss_cross

(* A stealing round probes at most this many victims.  Visiting all
   cores-1 deques per round is neither what real thieves do (random
   bounded probing) nor affordable: at 512 cores an idle worker would
   charge 511 remote misses per fruitless round, and probe costs would
   dwarf the work being balanced. *)
let max_probes_per_round = 32

(* One stealing round: probe up to [max_probes_per_round] other cores, in
   a seeded circular rotation, charging each probe by distance; take from
   the first non-empty victim.  [None] after a fruitless round. *)
let try_steal t ~core =
  if t.cores = 1 then None
  else begin
    let costs = Costs.get () in
    let my_socket = Topology.socket_of_core core in
    let start = Rng.int t.rngs.(core) (t.cores - 1) in
    let budget = Stdlib.min (t.cores - 1) max_probes_per_round in
    let result = ref None in
    let i = ref 0 in
    while !result = None && !i < budget do
      (* Offsets 1..cores-1 rotated by [start]: every other core exactly
         once, never self. *)
      let off = 1 + ((start + !i) mod (t.cores - 1)) in
      let v = (core + off) mod t.cores in
      t.probe_count <- t.probe_count + 1;
      Exec.tick (probe_cost costs ~thief_socket:my_socket
                   ~victim_socket:(Topology.socket_of_core v));
      if size t.deques.(v) > 0 then begin
        (* Take first, then charge the transfer (one more move over the
           same distance): the tick may yield, and a concurrent thief
           must not race us for the task we already removed. *)
        let task = take_top t ~victim:v in
        t.steal_count <- t.steal_count + 1;
        Topology.count_steal ~socket:my_socket;
        !on_steal ~thief:core ~victim:v;
        Exec.tick (probe_cost costs ~thief_socket:my_socket
                     ~victim_socket:(Topology.socket_of_core v));
        result := Some task
      end
      else incr i
    done;
    !result
  end

(* Own deque first, then one stealing round. *)
let acquire t ~core =
  match pop_own t ~core with Some _ as r -> r | None -> try_steal t ~core

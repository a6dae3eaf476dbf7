(* Quiescent-state-based epoch reclamation (QSBR) for privatized memory
   (DESIGN.md §12).

   SwissTM's §6 quiescence barrier makes privatization safe by having
   every committing update transaction *wait* for all concurrent readers
   — a full barrier on the commit path, which costs the read-mix
   workloads dearly.  Epochs invert the cost: threads *announce* passage
   through quiescent states (transaction boundaries — points where they
   hold no transactional snapshot) with one plain store, and frees of
   privatized blocks are merely *deferred* until a grace period passes.
   No transaction ever waits; the grace period rides on work the threads
   do anyway.

   Structure:

   - [global] — the current epoch, advanced by whichever announcer first
     observes that every online thread has caught up with it;
   - [local.(tid)] — the last epoch thread [tid] announced, or
     [offline] (-1) while it is not participating (idle threads must not
     stall grace periods);
   - a per-thread limbo list of epoch-stamped deferred frees.  A block
     deferred while the global epoch read [e] is handed to
     [Heap.free_now] once its owner observes a global epoch [>= e + 2].

   Why two epochs: the advance [e -> e+1] only proves announcements that
   may predate the free, but any announcement of [e+1] happens after the
   global epoch left [e] — i.e. after the free — so once [e+2] is
   reached every online thread has passed a transaction boundary after
   the block was privatized, and no transactional snapshot of it can
   survive.

   All announcement state is plain [Stdlib.Atomic]: the reclaimer is
   wall-clock machinery (its target is native privatization), charges no
   simulated cycles, and must never perturb a simulated schedule. *)

let max_threads = Runtime.Topology.max_cores
let offline_epoch = -1

type record = { ep : int; h : Heap.t; addr : int; n : int }

let global = Atomic.make 1

let local =
  Array.init max_threads (fun _ -> Atomic.make offline_epoch)

(* Per-thread reclaimer state, touched only by its own thread. *)
let limbo : record list array = Array.make max_threads []
let calls = Array.make max_threads 0

(* Counters (diagnostics, surfaced as metrics gauges).  Deferrals and
   reclamations are per-thread rows, each written only by its own thread
   (or by [drain] under global quiescence) and summed on read, so
   concurrent domains lose no increments and the announce path gains no
   shared write.  Advances happen on a successful CAS of [global], which
   is a shared write already. *)
let n_advances = Atomic.make 0
let n_deferred = Array.make max_threads 0
let n_reclaimed = Array.make max_threads 0
let sum = Array.fold_left ( + ) 0

let advances () = Atomic.get n_advances
let deferred () = sum n_deferred
let reclaimed () = sum n_reclaimed
let limbo_depth () = deferred () - reclaimed ()

let current () = Atomic.get global

(* Reclaim every limbo record of [tid] whose grace period has passed.
   The list is newest-first with non-increasing stamps (the global epoch
   is monotone), so the survivors are exactly a prefix. *)
let reclaim tid ~upto =
  match limbo.(tid) with
  | [] -> ()
  | rs ->
      let free_record r =
        Heap.free_now r.h r.addr r.n;
        n_reclaimed.(tid) <- n_reclaimed.(tid) + 1
      in
      let rec split = function
        | r :: tl when r.ep > upto -> r :: split tl
        | expired ->
            List.iter free_record expired;
            []
      in
      limbo.(tid) <- split rs

(* Advance the global epoch iff every online thread announced it.  Any
   announcer may try; the CAS keeps the epoch monotone when several race. *)
let try_advance g =
  let all = ref true in
  for t = 0 to max_threads - 1 do
    let l = Atomic.get local.(t) in
    if l >= 0 && l < g then all := false
  done;
  if !all && Atomic.compare_and_set global g (g + 1) then Atomic.incr n_advances

(** Announce a quiescent state: thread [tid] holds no transactional
    snapshot right now.  Engines call this at transaction boundaries; the
    announcement is one load + (at most) one plain store, with
    reclamation and an advance attempt amortized behind it. *)
let quiescent ~tid =
  let g = Atomic.get global in
  if Atomic.get local.(tid) <> g then begin
    Atomic.set local.(tid) g;
    reclaim tid ~upto:(g - 2)
  end;
  let c = calls.(tid) + 1 in
  calls.(tid) <- c;
  if c land 7 = 0 then try_advance (Atomic.get global)

(** Join the protocol: the thread starts announcing (and, transitively,
    holding grace periods open until it next announces). *)
let online ~tid = Atomic.set local.(tid) (Atomic.get global)

(** Leave the protocol: an offline thread never stalls a grace period.
    Its unreclaimed limbo blocks stay put until it comes back online or
    the reclaimer is drained. *)
let offline ~tid = Atomic.set local.(tid) offline_epoch

(* Stamp with the global epoch read *after* the privatizing commit: a
   possibly newer stamp only delays reclamation, never hastens it. *)
let defer h addr n =
  let tid = Runtime.Exec.self () land (max_threads - 1) in
  limbo.(tid) <- { ep = Atomic.get global; h; addr; n } :: limbo.(tid);
  n_deferred.(tid) <- n_deferred.(tid) + 1

(** Reclaim every limbo block unconditionally.  Caller asserts global
    quiescence (all participating threads joined / stopped). *)
let drain () =
  for t = 0 to max_threads - 1 do
    reclaim t ~upto:max_int
  done

(** Arm the reclaimer: [Heap.free] starts deferring instead of recycling
    immediately, and engines wired for epochs start announcing. *)
let arm () =
  Heap.epoch_defer := defer;
  Heap.epoch_on := true

(** Disarm and drain.  Caller asserts global quiescence (no transaction
    in flight — e.g. after joining every domain). *)
let disarm () =
  Heap.epoch_on := false;
  drain ()

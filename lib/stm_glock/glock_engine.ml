(* Single-global-lock "STM": every atomic block serialises on one test-and-
   test-and-set lock and accesses the heap directly.

   Not part of the paper's comparison, but the canonical sanity baseline:
   it bounds what serial execution achieves (no logging and no conflicts,
   but no parallelism either), is useful in tests as a trivially correct
   reference, and illustrates in examples what TM buys over coarse
   locking.  It is a policy core like every other engine: the lock is its
   only metadata, and the retry loop, flat nesting, op wrappers and
   begin/commit/abort bookkeeping are the kernel's ([Driver], [Package],
   [Hooks]), so the serial bound pays exactly the engines' shared costs.
   Its only aborts are injected faults and body-raised [Retry]s, which
   release the lock and back off under a fixed timid manager; its frees
   are buffered to commit like every engine's. *)

open Stm_intf
open Kernel

type t = {
  heap : Memory.Heap.t;
  lock : Runtime.Tmatomic.t;
  core : Txdesc.core;
}

let name = "glock"

let create heap =
  {
    heap;
    lock = Runtime.Tmatomic.make 0;
    core = Txdesc.core ~name Cm.Cm_intf.Timid;
  }

let acquire t (d : Txdesc.t) =
  let tid = d.tid in
  let rec go () =
    (* test-and-test-and-set: spin on the read before retrying the CAS *)
    if Runtime.Tmatomic.get t.lock <> 0 then begin
      Stats.wait d.counters;
      Runtime.Exec.pause ();
      go ()
    end
    else if not (Runtime.Tmatomic.cas t.lock ~expect:0 ~replace:(tid + 1)) then go ()
  in
  go ()

let release t _ = Runtime.Tmatomic.set t.lock 0

let rollback t (d : Txdesc.t) reason =
  Hooks.phase_commit d.tid;
  release t d;
  Hooks.rollback d ~reason

(* Begin is recorded before the lock (= snapshot) is taken.  A spurious
   abort models losing the CPU to a fault just after acquisition: nothing
   was executed or written yet, so recovery is release-and-retry. *)
let start t (d : Txdesc.t) ~restart =
  Hooks.tx_begin d;
  d.core.cm.on_start d.info ~restart;
  acquire t d;
  Hooks.inject_stall d;
  if Hooks.inject_abort d then rollback t d Tx_signal.Killed;
  Hooks.phase_other d.tid

(* The commit hooks run first, so the Commit event precedes the release;
   the stretch lands inside the critical section, where it delays every
   waiter on the global lock. *)
let commit t (d : Txdesc.t) =
  Hooks.commit_done ~heap:t.heap d;
  Hooks.phase_commit d.tid;
  Hooks.inject_stretch d;
  release t d;
  Runtime.Exec.tick (Runtime.Costs.get ()).tx_end;
  Hooks.phase_other d.tid

let read_word t (d : Txdesc.t) addr =
  Stats.read d.counters;
  Runtime.Exec.tick (Runtime.Costs.get ()).mem;
  Memory.Heap.unsafe_read t.heap addr

let write_word t (d : Txdesc.t) addr v =
  Stats.write d.counters;
  Runtime.Exec.tick (Runtime.Costs.get ()).mem;
  Memory.Heap.unsafe_write t.heap addr v

let engine heap : Engine.t =
  let t = create heap in
  Package.make ~heap ~read:(read_word t) ~write:(write_word t)
    (Driver.ops ~release:(release t) ~start:(start t) ~commit:(commit t)
       ~rollback:(rollback t) t.core)

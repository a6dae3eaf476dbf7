(* TL2 (Dice, Shalev, Shavit — DISC 2006), the paper's lazy baseline.

   Word-based, commit-time locking (lazy acquisition), invisible reads
   against a global version clock, redo logging:

   - one versioned lock per stripe: unlocked = version << 1;
     locked = ((owner+1) << 1) | 1;
   - [start]: sample the clock into [valid_ts];
   - [read]: redo-log lookup, then lock/word/lock double read; abort if the
     stripe is locked or its version exceeds the snapshot (TL2 has *no*
     timestamp extension — that is one of the differences from
     TinySTM/SwissTM);
   - [write]: buffer in the redo log only — write/write conflicts stay
     undetected until commit, which is precisely the behaviour the paper
     blames for TL2's wasted work on long transactions (Figure 6a);
   - [commit]: acquire all write locks (abort on any conflict — timid),
     bump the clock GV4-style, validate the read set, write back, release
     with the new version.

   In kernel axes this is lazy + invisible + commit-time + redo; the
   policy mechanics (versioned locks, GV4, commit acquisition, snapshot
   validation) live in [Kernel.Vlock] and the bookkeeping in
   [Kernel.Hooks] / [Kernel.Driver]. *)

open Stm_intf
open Kernel

type t = {
  heap : Memory.Heap.t;
  stripe : Memory.Stripe.t;
  locks : Runtime.Line_table.t;  (* one versioned lock per stripe *)
  clock : Runtime.Tmatomic.t;
  core : Txdesc.core;
      (* its manager is rollback/throttle policy only: TL2 stays timid at
         commit-time acquisition (it never kills), but the manager owns
         the retry back-off, the adaptive throttle and the escalation
         budget *)
}

let name = "tl2"

let create ~cm ~granularity_words ~table_bits heap =
  let stripe = Memory.Stripe.create ~granularity_words ~table_bits () in
  {
    heap;
    stripe;
    locks = Vlock.create_locks stripe;
    clock = Runtime.Tmatomic.make 0;
    core = Txdesc.core ~name cm;
  }

let rollback (d : Txdesc.t) reason =
  Hooks.phase_commit d.tid;
  Hooks.rollback d ~reason

let read_word t (d : Txdesc.t) addr =
  let costs = Runtime.Costs.get () in
  Stats.read d.counters;
  if Hooks.inject_abort d then rollback d Tx_signal.Killed;
  let idx = Memory.Stripe.index t.stripe addr in
  (* Redo-log lookup; free for read-only transactions, and [Wlog]'s bloom
     filter makes the common miss cheap for update ones (TL2's own
     write-set Bloom filter trick). *)
  let s =
    if Wlog.is_empty d.wset then -1
    else begin
      (Runtime.Exec.tick [@inlined]) costs.log_lookup;
      Wlog.probe d.wset addr
    end
  in
  if s >= 0 then Wlog.slot_value d.wset s
  else begin
    let lock = (Vlock.lock [@inlined]) t.locks idx in
    let lv1 = (Runtime.Tmatomic.get [@inlined]) lock in
    (Runtime.Exec.tick [@inlined]) costs.mem;
    let value = Memory.Heap.unsafe_read t.heap addr in
    let lv2 = (Runtime.Tmatomic.get [@inlined]) lock in
    if Vlock.is_locked lv1 || lv1 <> lv2 || Vlock.version_of lv1 > d.valid_ts
    then
      (* Locked or moved past our snapshot: TL2 aborts (no extension). *)
      rollback d Tx_signal.Rw_validation;
    (Runtime.Exec.tick [@inlined]) costs.log_append;
    (Rset.push [@inlined]) d.rset idx 0;
    value
  end

let write_word t (d : Txdesc.t) addr value =
  let costs = Runtime.Costs.get () in
  Stats.write d.counters;
  if Hooks.inject_abort d then rollback d Tx_signal.Killed;
  (Runtime.Exec.tick [@inlined]) costs.log_append;
  Wlog.replace d.wset addr value;
  let idx = Memory.Stripe.index t.stripe addr in
  ignore (Rset.add_unique d.wstripes idx 0 : bool)

let commit t (d : Txdesc.t) =
  Hooks.commit_entry d;
  if Wlog.is_empty d.wset then
    (* Read-only: every read was validated against the snapshot. *)
    Hooks.commit_done ~heap:t.heap d
  else begin
    (* Commit gate: an irrevocable transaction must see a frozen clock.
       The waiter holds no locks yet (lazy acquisition), so a plain spin
       is deadlock-free and needs no kill polling. *)
    Hooks.enter_update_commit ~gate_check:Driver.nop_gate_check d;
    Hooks.inject_stretch d;
    (* Acquire every write lock; any conflict aborts (timid). *)
    let conflict = Vlock.acquire_wstripes ~locks:t.locks d in
    if conflict >= 0 then begin
      Hooks.stripe_conflict d ~stripe:conflict;
      rollback d Tx_signal.Ww_conflict
    end;
    let wv, quiescent = Vlock.gv4_bump ~clock:t.clock ~rv:d.valid_ts in
    (* Validate the read set unless nobody else committed since start. *)
    if (not quiescent) && not (Vlock.validate_rv ~locks:t.locks d) then begin
      Vlock.release_wstripes ~locks:t.locks d.wstripes d.acq_saved
        ~upto:(Rset.length d.wstripes);
      rollback d Tx_signal.Rw_validation
    end;
    Vlock.write_back ~heap:t.heap d;
    Vlock.publish_wstripes ~locks:t.locks d.wstripes ~version:wv;
    Hooks.commit_done ~heap:t.heap d
  end

let start t (d : Txdesc.t) ~restart =
  Hooks.tx_begin d;
  d.core.cm.on_start d.info ~restart;
  d.valid_ts <- Runtime.Tmatomic.get t.clock;
  Hooks.phase_other d.tid

(* Retry driver with graceful degradation: see [Kernel.Driver] for the
   escalation protocol.  Under the irrevocability token TL2's attempt
   cannot fail in a simulated run — the commit gate freezes the clock, so
   no read validation can observe a newer version and no commit-time lock
   can be held by anyone else once in-flight commits drained. *)
let engine ~cm ~granularity_words ~table_bits heap : Engine.t =
  let t = create ~cm ~granularity_words ~table_bits heap in
  Package.make ~heap ~read:(read_word t) ~write:(write_word t)
    (Driver.ops ~start:(start t) ~commit:(commit t) ~rollback t.core)

(* TinySTM (Felber, Fetzer, Riegel — PPoPP 2008), the paper's eager
   baseline.

   Word-based, *encounter-time* locking with write-back, invisible reads
   with LSA-style timestamp extension, timid contention management:

   - one versioned lock per stripe: unlocked = version << 1;
     locked = ((owner+1) << 1) | 1;
   - [write] acquires the lock immediately (eager w/w detection, like
     SwissTM);
   - [read] of a stripe locked by another transaction aborts the *reader*
     immediately — the eager r/w behaviour the paper criticises (§1 point
     2): a long writer blocks every reader of its write set for its whole
     duration;
   - commit increments the global clock, validates if needed, writes back
     and releases with the new version; aborts restore the version saved at
     acquisition time.

   In kernel axes this is eager + invisible + incremental + redo; exact
   validation/extension and the lock encoding live in [Kernel.Vlock]. *)

open Stm_intf
open Kernel

type t = {
  heap : Memory.Heap.t;
  stripe : Memory.Stripe.t;
  locks : Runtime.Line_table.t;  (* one versioned lock per stripe *)
  clock : Runtime.Tmatomic.t;
  descs : Txdesc.t array;
  eid : int;  (* metrics-registry engine id *)
  cm : Cm.Cm_intf.t;
      (* rollback/throttle policy only: conflicts stay timid (TinySTM never
         kills), but the manager owns the retry back-off, the adaptive
         throttle and the escalation budget *)
  ser : Serial.t;  (* irrevocability token (escalation / explicit) *)
}

let name = "tinystm"

let create ~cm ~granularity_words ~table_bits heap =
  let stripe = Memory.Stripe.create ~granularity_words ~table_bits () in
  {
    heap;
    stripe;
    locks = Vlock.create_locks stripe;
    clock = Runtime.Tmatomic.make 0;
    descs = Driver.make_descs ();
    eid = Obs.Metrics.register_engine name;
    cm = Cm.Factory.make cm;
    ser = Serial.create ();
  }

(* Abort path: restore the pre-acquisition version into every lock we
   own (encounter-time acquisition — [acq_stripes] tracks them all). *)
let rollback t (d : Txdesc.t) reason =
  Hooks.phase_commit d.tid;
  Vlock.release_restoring ~locks:t.locks d.acq_stripes d.acq_saved
    ~upto:(Ivec.length d.acq_stripes);
  Hooks.rollback ~cm:t.cm d ~reason

let extend t d = Vlock.extend_exact ~locks:t.locks ~clock:t.clock d

let read_word t (d : Txdesc.t) addr =
  let costs = Runtime.Costs.get () in
  Stats.read d.counters;
  if Hooks.inject_abort d then rollback t d Tx_signal.Killed;
  let idx = Memory.Stripe.index t.stripe addr in
  let lock = Vlock.lock t.locks idx in
  let lv = Runtime.Tmatomic.get lock in
  if Vlock.is_locked lv then begin
    if lv = Vlock.locked_by d.tid then begin
      (* Read-after-write: serve from the redo log / stable memory; the
         bloom filter lets the miss case skip the probe. *)
      Runtime.Exec.tick costs.log_lookup;
      let s = Wlog.probe d.wset addr in
      if s >= 0 then Wlog.slot_value d.wset s
      else begin
        Runtime.Exec.tick costs.mem;
        Memory.Heap.unsafe_read t.heap addr
      end
    end
    else begin
      (* Encounter-time r/w conflict: timid — the reader aborts at once. *)
      Hooks.stripe_conflict ~eid:t.eid ~stripe:idx;
      rollback t d Tx_signal.Rw_validation
    end
  end
  else begin
    Runtime.Exec.tick costs.mem;
    let value = Memory.Heap.unsafe_read t.heap addr in
    let lv2 = Runtime.Tmatomic.get lock in
    if lv2 <> lv then rollback t d Tx_signal.Rw_validation;
    let version = Vlock.version_of lv in
    Runtime.Exec.tick costs.log_append;
    Rset.push d.rset idx version;
    if version > d.valid_ts && not (extend t d) then
      rollback t d Tx_signal.Rw_validation;
    value
  end

(* Acquire stripe [idx]'s lock, [lv] its last read value.  Top level over
   explicit arguments: a local [let rec] would allocate its closure on
   every write to a stripe this transaction does not own yet. *)
let rec acquire t (d : Txdesc.t) lock idx ~mine lv =
  if Vlock.is_locked lv then begin
    (* Encounter-time w/w conflict: timid — abort the attacker. *)
    Hooks.stripe_conflict ~eid:t.eid ~stripe:idx;
    rollback t d Tx_signal.Ww_conflict
  end
  else if not (Runtime.Tmatomic.cas lock ~expect:lv ~replace:mine) then
    acquire t d lock idx ~mine (Runtime.Tmatomic.get lock)
  else begin
    Hooks.inject_stall d;
    Ivec.push d.acq_stripes idx;
    Ivec.push d.acq_saved lv;
    Wlog.replace d.acq_version idx (Vlock.version_of lv);
    if Vlock.version_of lv > d.valid_ts && not (extend t d) then
      rollback t d Tx_signal.Rw_validation
  end

let write_word t (d : Txdesc.t) addr value =
  let costs = Runtime.Costs.get () in
  Stats.write d.counters;
  if Hooks.inject_abort d then rollback t d Tx_signal.Killed;
  let idx = Memory.Stripe.index t.stripe addr in
  let lock = Vlock.lock t.locks idx in
  let mine = Vlock.locked_by d.tid in
  let lv = Runtime.Tmatomic.get lock in
  if lv <> mine then acquire t d lock idx ~mine lv;
  Runtime.Exec.tick costs.log_append;
  Wlog.replace d.wset addr value

let commit t (d : Txdesc.t) =
  Hooks.commit_entry d;
  if Txdesc.is_read_only d then
    Hooks.commit_done ~cm:t.cm ~ser:t.ser ~heap:t.heap d
  else begin
    (* No commit gate here: the waiter would hold encounter-time locks the
       irrevocable transaction may need, a deadlock TinySTM cannot break
       (it has no remote kill).  Escalation in this engine is a soft bound:
       in-flight competitors can still commit, but each parks at the start
       gate after its current transaction, so the escalated attempt soon
       runs alone. *)
    Hooks.enter_update_commit ~cm:t.cm ~ser:t.ser d;
    Hooks.inject_stretch d;
    let ts = Runtime.Tmatomic.incr_get t.clock in
    if ts > d.valid_ts + 1 && not (Vlock.validate_exact ~locks:t.locks d) then
      rollback t d Tx_signal.Rw_validation;
    Vlock.write_back ~heap:t.heap d;
    Vlock.publish ~locks:t.locks d.acq_stripes ~version:ts;
    Hooks.commit_done ~cm:t.cm ~ser:t.ser ~heap:t.heap d
  end

let start t (d : Txdesc.t) ~restart =
  Hooks.tx_begin ~eid:t.eid d;
  t.cm.on_start d.info ~restart;
  d.valid_ts <- Runtime.Tmatomic.get t.clock;
  Hooks.phase_other d.tid

let emergency_release t (d : Txdesc.t) =
  Vlock.release_restoring ~locks:t.locks d.acq_stripes d.acq_saved
    ~upto:(Ivec.length d.acq_stripes);
  Hooks.emergency ~cm:t.cm ~ser:t.ser d

(* Retry driver with graceful degradation: see [Kernel.Driver] for the
   escalation protocol.  TinySTM only has the start gate (see [commit]), so
   the consecutive-abort bound under the token is soft rather than exact. *)
let engine ~cm ~granularity_words ~table_bits heap : Engine.t =
  let t = create ~cm ~granularity_words ~table_bits heap in
  Package.make ~name ~heap
    {
      Driver.ser = t.ser;
      cm = t.cm;
      descs = t.descs;
      start = (fun d ~restart -> start t d ~restart);
      commit = (fun d -> commit t d);
      emergency = (fun d -> emergency_release t d);
      user_abort = (fun d -> rollback t d Tx_signal.Killed);
    }
    ~read:(read_word t) ~write:(write_word t)

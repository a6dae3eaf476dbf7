(* Multi-version STM — the paper's §6 side experiment.

   "We also experimented with ... multi-versioning, but we could not see a
   clear advantage of those techniques in the considered workloads."

   This engine lets the ablation harness reproduce that finding.  It is a
   TL2-style word-based STM (lazy acquisition, global version clock)
   extended with per-stripe *version chains*, in the spirit of LSA-STM and
   JVSTM (paper §2.1):

   - each committing writer, while holding the stripe lock, prepends a
     version record containing the words it is about to overwrite, stamped
     with the stripe's new version;
   - a transaction that reads a stripe newer than its snapshot and has an
     empty write set switches to *snapshot mode*: instead of aborting it
     reconstructs the value at its snapshot from the chains — read-only
     transactions never abort (unless the chain was truncated);
   - writes are not allowed in snapshot mode (the transaction restarts as a
     normal update transaction, with snapshot mode disabled).

   Version records live in the transactional heap:
   [new_version; prev_record; nwords; (addr, old_value) x nwords].
   Chains are truncated at [max_chain] records; a snapshot older than the
   chain aborts with a "snapshot too old" validation failure.

   Intended for the simulator: chain heads are uncharged words read
   without the stripe lock, fine under the cooperative scheduler but
   racy on native domains (a native reader may briefly miss the newest
   record and retry via the lock double-check).

   In kernel axes this is lazy + invisible + commit-time + MULTI
   versioning: TL2's commit path (all in [Kernel.Vlock]) with the version-
   chain maintenance spliced in between validation and write-back, and the
   snapshot-mode read layered over the invisible read. *)

open Stm_intf
open Kernel

(* version record layout *)
let vr_version = 0
let vr_prev = 1
let vr_nwords = 2
let vr_pairs = 3

type t = {
  heap : Memory.Heap.t;
  stripe : Memory.Stripe.t;
  locks : Runtime.Line_table.t;
      (** per stripe: the versioned lock, the version-chain head (heap
          address or 0) and the chain length *)
  clock : Runtime.Tmatomic.t;
  core : Txdesc.core;
      (* its manager is rollback/throttle policy only: conflicts stay timid
         at commit-time acquisition, but the manager owns the retry
         back-off, the adaptive throttle and the escalation budget *)
  max_chain : int;
  snapshot_reads : Runtime.Tmatomic.t;  (** telemetry: old-version serves *)
}

let name = "mvstm"

let create ~cm ~granularity_words ~table_bits ~max_chain heap =
  let stripe = Memory.Stripe.create ~granularity_words ~table_bits () in
  let n = Memory.Stripe.table_size stripe in
  {
    heap;
    stripe;
    locks = Runtime.Line_table.create n ~init:[| Vlock.unlocked_of_version 0; 0; 0 |];
    clock = Runtime.Tmatomic.make 0;
    core = Txdesc.core ~name cm;
    max_chain;
    snapshot_reads = Runtime.Tmatomic.make 0;
  }

(* The chain words ride on the stripe's line but are plain bookkeeping:
   read and written cost-free, like the heap words they index. *)
let chain_word t idx col = Runtime.Line_table.cell t.locks idx col
let hist t idx = Runtime.Tmatomic.unsafe_get (chain_word t idx 1)
let set_hist t idx v = Runtime.Tmatomic.unsafe_set (chain_word t idx 1) v
let chain_len t idx = Runtime.Tmatomic.unsafe_get (chain_word t idx 2)
let set_chain_len t idx v = Runtime.Tmatomic.unsafe_set (chain_word t idx 2) v

let rollback (d : Txdesc.t) reason =
  Hooks.phase_commit d.tid;
  Hooks.rollback d ~reason

(* Reconstruct the value [addr] had at the snapshot by walking the
   stripe's version chain newest-to-oldest; every record newer than the
   snapshot that touched [addr] pushes the reconstruction further into
   the past. *)
let snapshot_read t (d : Txdesc.t) addr idx =
  let costs = Runtime.Costs.get () in
  let rec stable_attempt () =
    let lv = Runtime.Tmatomic.get (Vlock.lock t.locks idx) in
    if Vlock.is_locked lv then begin
      Stats.wait d.counters;
      Runtime.Exec.pause ();
      stable_attempt ()
    end
    else begin
      Runtime.Exec.tick costs.mem;
      let current = Memory.Heap.unsafe_read t.heap addr in
      let value = ref current in
      let found = ref false in
      (* prev = 0 terminates a COMPLETE chain (reconstruction sound even
         if no record mentioned [addr]: it was never overwritten); prev =
         -1 marks a truncation point (older values were dropped). *)
      let rec walk rec_addr =
        if rec_addr = -1 then
          (* truncated before reaching the snapshot: the old value is gone *)
          rollback d Tx_signal.Rw_validation
        else if rec_addr <> 0 then begin
          Runtime.Exec.tick (costs.mem * 2);
          let v = Memory.Heap.unsafe_read t.heap (rec_addr + vr_version) in
          if v > d.valid_ts then begin
            let n = Memory.Heap.unsafe_read t.heap (rec_addr + vr_nwords) in
            for k = 0 to n - 1 do
              if Memory.Heap.unsafe_read t.heap (rec_addr + vr_pairs + (2 * k)) = addr
              then begin
                value :=
                  Memory.Heap.unsafe_read t.heap (rec_addr + vr_pairs + (2 * k) + 1);
                found := true
              end
            done;
            walk (Memory.Heap.unsafe_read t.heap (rec_addr + vr_prev))
          end
          (* records at or below the snapshot: reconstruction complete *)
        end
      in
      ignore !found;
      if Vlock.version_of lv > d.valid_ts then walk (hist t idx);
      (* re-check the stripe did not move under us *)
      let lv2 = Runtime.Tmatomic.get (Vlock.lock t.locks idx) in
      if lv2 <> lv then stable_attempt ()
      else begin
        ignore (Runtime.Tmatomic.fetch_and_add t.snapshot_reads 1);
        !value
      end
    end
  in
  stable_attempt ()

let read_word t (d : Txdesc.t) addr =
  let costs = Runtime.Costs.get () in
  Stats.read d.counters;
  if Hooks.inject_abort d then rollback d Tx_signal.Killed;
  let idx = Memory.Stripe.index t.stripe addr in
  let s =
    if Wlog.is_empty d.wset then -1
    else begin
      Runtime.Exec.tick costs.log_lookup;
      Wlog.probe d.wset addr
    end
  in
  if s >= 0 then Wlog.slot_value d.wset s
  else if d.snapshot then snapshot_read t d addr idx
  else begin
    let lock = Vlock.lock t.locks idx in
    let lv1 = Runtime.Tmatomic.get lock in
    Runtime.Exec.tick costs.mem;
    let value = Memory.Heap.unsafe_read t.heap addr in
    let lv2 = Runtime.Tmatomic.get lock in
    if Vlock.is_locked lv1 || lv1 <> lv2 || Vlock.version_of lv1 > d.valid_ts
    then begin
      if d.allow_snapshot && Wlog.is_empty d.wset && not (Vlock.is_locked lv1)
      then begin
        (* switch to snapshot mode: prior reads were all <= the snapshot,
           and from now on the chains serve the consistent values *)
        d.snapshot <- true;
        snapshot_read t d addr idx
      end
      else rollback d Tx_signal.Rw_validation
    end
    else begin
      Runtime.Exec.tick costs.log_append;
      Rset.push d.rset idx 0;
      value
    end
  end

let write_word t (d : Txdesc.t) addr value =
  let costs = Runtime.Costs.get () in
  Stats.write d.counters;
  if Hooks.inject_abort d then rollback d Tx_signal.Killed;
  if d.snapshot then begin
    (* writes are incompatible with serving old versions: restart as a
       plain update transaction *)
    d.allow_snapshot <- false;
    rollback d Tx_signal.Rw_validation
  end;
  Runtime.Exec.tick costs.log_append;
  Wlog.replace d.wset addr value;
  let idx = Memory.Stripe.index t.stripe addr in
  ignore (Rset.add_unique d.wstripes idx 0 : bool)

(* Record the pre-commit values of the words we are about to overwrite in
   stripe [idx]; called with the stripe lock held. *)
let push_version_record t (d : Txdesc.t) idx ~new_version =
  let costs = Runtime.Costs.get () in
  let words =
    Wlog.fold
      (fun addr _ acc ->
        if Memory.Stripe.index t.stripe addr = idx then addr :: acc else acc)
      d.wset []
  in
  let n = List.length words in
  if n > 0 then begin
    let rec_addr = Memory.Heap.alloc t.heap (vr_pairs + (2 * n)) in
    Memory.Heap.unsafe_write t.heap (rec_addr + vr_version) new_version;
    Memory.Heap.unsafe_write t.heap (rec_addr + vr_prev) (hist t idx);
    Memory.Heap.unsafe_write t.heap (rec_addr + vr_nwords) n;
    List.iteri
      (fun k addr ->
        Runtime.Exec.tick (2 * costs.mem);
        Memory.Heap.unsafe_write t.heap (rec_addr + vr_pairs + (2 * k)) addr;
        Memory.Heap.unsafe_write t.heap
          (rec_addr + vr_pairs + (2 * k) + 1)
          (Memory.Heap.unsafe_read t.heap addr))
      words;
    set_hist t idx rec_addr;
    (* bound the chain: drop the tail once it exceeds max_chain *)
    if chain_len t idx >= t.max_chain then begin
      let rec cut r depth =
        if r > 0 then
          if depth = t.max_chain - 1 then
            Memory.Heap.unsafe_write t.heap (r + vr_prev) (-1)
          else cut (Memory.Heap.unsafe_read t.heap (r + vr_prev)) (depth + 1)
      in
      cut (hist t idx) 0
    end
    else set_chain_len t idx (chain_len t idx + 1)
  end

let commit t (d : Txdesc.t) =
  Hooks.commit_entry d;
  if Wlog.is_empty d.wset then
    Hooks.commit_done ~heap:t.heap d
  else begin
    (* Commit gate: freeze the clock while an irrevocable transaction
       runs; the waiter holds no locks yet (lazy acquisition). *)
    Hooks.enter_update_commit ~gate_check:Driver.nop_gate_check d;
    Hooks.inject_stretch d;
    let conflict = Vlock.acquire_wstripes ~locks:t.locks d in
    if conflict >= 0 then begin
      Hooks.stripe_conflict d ~stripe:conflict;
      rollback d Tx_signal.Ww_conflict
    end;
    let wv, quiescent = Vlock.gv4_bump ~clock:t.clock ~rv:d.valid_ts in
    if (not quiescent) && not (Vlock.validate_rv ~locks:t.locks d) then begin
      Vlock.release_wstripes ~locks:t.locks d.wstripes d.acq_saved
        ~upto:(Rset.length d.wstripes);
      rollback d Tx_signal.Rw_validation
    end;
    (* preserve the overwritten values, then write back *)
    Rset.iter
      (fun idx _ -> push_version_record t d idx ~new_version:wv)
      d.wstripes;
    Vlock.write_back ~heap:t.heap d;
    Vlock.publish_wstripes ~locks:t.locks d.wstripes ~version:wv;
    Hooks.commit_done ~heap:t.heap d
  end

let start t (d : Txdesc.t) ~restart =
  Hooks.tx_begin d;
  d.core.cm.on_start d.info ~restart;
  if not restart then d.allow_snapshot <- true;
  d.valid_ts <- Runtime.Tmatomic.get t.clock;
  Hooks.phase_other d.tid

(* Retry driver with graceful degradation: see [Kernel.Driver] for the
   escalation protocol.  Like TL2, the commit gate freezes the clock under
   the token, so an escalated attempt cannot fail in a simulated run. *)
let ops t = Driver.ops ~start:(start t) ~commit:(commit t) ~rollback t.core
let atomic t ~tid f = Driver.run (ops t) ~tid ~irrevocable:false f
let atomic_irrevocable t ~tid f = Driver.run (ops t) ~tid ~irrevocable:true f

(** Old-version reads served so far (ablation telemetry). *)
let snapshot_reads t = Runtime.Tmatomic.unsafe_get t.snapshot_reads

let engine ~cm ~granularity_words ~table_bits ~max_chain heap : Engine.t =
  let t = create ~cm ~granularity_words ~table_bits ~max_chain heap in
  Package.make ~heap ~read:(read_word t) ~write:(write_word t) (ops t)

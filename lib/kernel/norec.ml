(* NOrec (Dalessandro/Spear/Scott, PPoPP 2010): the metadata-free corner
   of the design grid — [Axes.norec_point] = seqlock acquisition,
   invisible reads, value validation, redo versioning.

   No per-stripe locks, no version clock: the only shared metadata is
   one global sequence lock ([Seqlock]).  Reads log (address, value)
   pairs in the descriptor's [Vset] journal and are revalidated by
   re-reading whenever the sequence moves; commit takes the sequence
   lock with a single CAS from the validated snapshot (which doubles as
   the final validation — it succeeds only if nothing committed since),
   writes the redo log back, and publishes the next even value.

   Why opacity holds without per-location versions: a read's value is
   admitted only once the sequence again equals [d.valid_ts], and
   [d.valid_ts] only ever advances through [validate], which re-reads
   the whole journal against a stable, unlocked sequence.  So at every
   point in the transaction — including inside doomed ones — the entire
   read set is consistent with the single memory snapshot published at
   sequence [d.valid_ts].  Value ABA (A→B→A between the read and a
   revalidation) passes, and must: that memory state is
   indistinguishable from no write at all.

   The cost the crossover benchmark measures: update commits serialize
   on the lock, every foreign commit invalidates the one line all
   readers poll, and each sequence movement costs a full O(|read set|)
   revalidation.  Unbeatable overhead at 1–2 threads; pathological as
   writer count grows. *)

open Stm_intf

type t = {
  heap : Memory.Heap.t;
  seqlock : Seqlock.t;
  core : Txdesc.core;
      (* NOrec has no lock conflicts to arbitrate (validation failures are
         self-aborts), so its manager only governs rollback back-off, the
         adaptive throttle and the escalation budget *)
}

let name = "norec"

let create ~cm heap =
  {
    heap;
    seqlock = Seqlock.create ();
    core = Txdesc.core ~name cm;
  }

(* A NOrec transaction holds nothing mid-flight (the sequence lock is
   only held across the non-aborting write-back), so rollback releases
   nothing of its own. *)
let rollback (d : Txdesc.t) reason =
  Hooks.phase_commit d.tid;
  Hooks.rollback d ~reason

let check_kill d = if Hooks.kill_due d then rollback d Tx_signal.Killed

let[@inline] spin_wait (d : Txdesc.t) () =
  Stats.wait d.counters;
  check_kill d

(* Re-read the whole value journal against a stable, unlocked sequence;
   abort on any value mismatch, retry if the sequence moved mid-scan,
   and return the sequence value the journal was proven consistent at
   (the caller's new snapshot). *)
let rec validate t (d : Txdesc.t) =
  let prof_prev = Hooks.phase_enter_validate d.tid in
  let s = Seqlock.snapshot t.seqlock ~on_spin:(spin_wait d) in
  let costs = Runtime.Costs.get () in
  let ok =
    Vset.revalidate
      ~read:(fun addr ->
        Runtime.Exec.tick (costs.validate_entry + costs.mem);
        Memory.Heap.unsafe_read t.heap addr)
      d.rset
  in
  Hooks.phase_restore d.tid prof_prev;
  if not ok then rollback d Tx_signal.Rw_validation;
  if Seqlock.moved t.seqlock ~since:s then validate t d else s

let read_word t (d : Txdesc.t) addr =
  let costs = Runtime.Costs.get () in
  Stats.read d.counters;
  check_kill d;
  let s =
    if Wlog.is_empty d.wset then -1
    else begin
      Runtime.Exec.tick costs.log_lookup;
      Wlog.probe d.wset addr
    end
  in
  if s >= 0 then Wlog.slot_value d.wset s
  else begin
    Runtime.Exec.tick costs.mem;
    let value = ref (Memory.Heap.unsafe_read t.heap addr) in
    (* Post-read check: admit the value only once the sequence again
       equals our validated snapshot.  A locked (odd) sequence never
       equals the (even) snapshot, so an in-flight write-back also lands
       in [validate], which spins it out and re-proves the journal. *)
    while Seqlock.read t.seqlock <> d.valid_ts do
      d.valid_ts <- validate t d;
      Runtime.Exec.tick costs.mem;
      value := Memory.Heap.unsafe_read t.heap addr
    done;
    Runtime.Exec.tick costs.log_append;
    Vset.log d.rset addr !value;
    d.info.accesses <- d.info.accesses + 1;
    !value
  end

let write_word (d : Txdesc.t) addr value =
  let costs = Runtime.Costs.get () in
  Stats.write d.counters;
  check_kill d;
  (* First write: tell the manager this attempt is an update (priority
     bookkeeping only — there is no lock conflict to resolve, ever). *)
  if Wlog.is_empty d.wset then begin
    d.core.cm.on_write d.info ~writes:1;
    d.info.accesses <- d.info.accesses + 1
  end;
  Runtime.Exec.tick costs.log_append;
  Wlog.replace d.wset addr value

let commit t (d : Txdesc.t) =
  Hooks.commit_entry d;
  check_kill d;
  if Wlog.is_empty d.wset then
    (* Read-only: the journal was proven consistent at [d.valid_ts];
       nothing to publish, nothing to release. *)
    Hooks.commit_done ~heap:t.heap d
  else begin
    (* A waiter at the irrevocability gate holds nothing, but polling
       the kill flag while parked is harmless and keeps storms moving. *)
    Hooks.enter_update_commit ~gate_check:(fun () -> check_kill d) d;
    Hooks.inject_stretch d;
    (* The CAS from the validated snapshot is the entire conflict check:
       it fails iff a commit (or in-flight write-back) moved the
       sequence, in which case revalidate and try again from the newly
       proven snapshot. *)
    while not (Seqlock.try_acquire t.seqlock ~snapshot:d.valid_ts) do
      d.valid_ts <- validate t d
    done;
    Hooks.inject_stall d;
    Vlock.write_back ~heap:t.heap d;
    Seqlock.release t.seqlock ~snapshot:d.valid_ts;
    Hooks.commit_done ~heap:t.heap d
  end

(* The begin-time spin carries no kill poll: a pending kill is honored
   at the first read/write/commit instead. *)
let start t (d : Txdesc.t) ~restart =
  Hooks.tx_begin d;
  d.core.cm.on_start d.info ~restart;
  d.valid_ts <-
    Seqlock.snapshot t.seqlock ~on_spin:(fun () ->
        Stats.wait d.counters);
  Hooks.phase_other d.tid

let engine ~cm heap : Engine.t =
  let t = create ~cm heap in
  Package.make ~heap ~read:(read_word t) ~write:write_word
    (Driver.ops ~start:(start t) ~commit:(commit t) ~rollback t.core)

(* TLRW-style read-write bytelocks ([Axes.tlrw_point] = bytelock
   acquisition, visible reads, redo versioning): every stripe carries an
   owner word plus a reader bitmap sharing one modelled cache line — the
   simulator's stand-in for TLRW's byte-per-slot lock array.  Readers
   announce themselves in the bitmap before reading and keep the slot
   until commit; writers take the owner word at encounter time and drain
   foreign readers through the contention manager before buffering
   writes (redo log; write-back at commit while the stripes are still
   owned).

   No clock, no version metadata, no validation: a read is valid for the
   whole transaction because any conflicting writer must first drain our
   reader slot, and a reader never observes an owned stripe (it
   arbitrates and waits/aborts instead) — opacity by construction, the
   same argument as the composed engine's Visible mode.  The reader slots
   and the owner arbitration are the shared [Readers] set (announce,
   retract, drain and wait through the CM), so this file is only the
   bytelock policy, and the set's tid < [Readers.cap] limit is the
   engine's thread cap. *)

open Stm_intf

type t = {
  heap : Memory.Heap.t;
  stripe : Memory.Stripe.t;
  locks : Runtime.Line_table.t;  (* per stripe one line: owner, readers *)
  readers : Readers.t;  (* the readers column of [locks] *)
  core : Txdesc.core;
}

let name = "tlrw"

let[@inline] owner t idx = Runtime.Line_table.cell t.locks idx 0

let create ~cm ~granularity_words ~table_bits heap =
  let stripe = Memory.Stripe.create ~granularity_words ~table_bits () in
  let n = Memory.Stripe.table_size stripe in
  let locks = Runtime.Line_table.create n ~init:[| 0; 0 |] in
  {
    heap;
    stripe;
    locks;
    readers = Readers.create locks ~col:1;
    core = Txdesc.core ~name cm;
  }

(* --- rollback ---------------------------------------------------------- *)

(* Drop our owner words, then our reader slots (commit, abort and
   foreign-exception paths alike). *)
let release t (d : Txdesc.t) =
  Ivec.iter (fun idx -> Runtime.Tmatomic.set (owner t idx) 0) d.acq_stripes;
  Readers.retract_all t.readers d

let rollback t (d : Txdesc.t) reason =
  Hooks.phase_commit d.tid;
  release t d;
  Hooks.rollback d ~reason

let check_kill t d = if Hooks.kill_due d then rollback t d Tx_signal.Killed

(* CM-arbitrated wait on the owner of [idx]. *)
let cm_wait t d idx ~owner ~reason =
  Readers.cm_wait ~rollback:(rollback t) d idx ~owner ~reason

(* --- read -------------------------------------------------------------- *)

let rec read_slot t (d : Txdesc.t) idx addr (costs : Runtime.Costs.t) =
  (* Announce BEFORE the owner check: a writer acquiring afterwards must
     drain our slot before write-back; one that acquired before is caught
     by the ownership check below. *)
  Readers.announce t.readers d idx;
  let wv = Runtime.Tmatomic.get (owner t idx) in
  if wv <> 0 && wv <> d.tid + 1 then begin
    cm_wait t d idx ~owner:wv ~reason:Tx_signal.Rw_validation;
    read_slot t d idx addr costs
  end
  else begin
    Runtime.Exec.tick costs.mem;
    let value = Memory.Heap.unsafe_read t.heap addr in
    d.info.accesses <- d.info.accesses + 1;
    value
  end

let read_word t (d : Txdesc.t) addr =
  let costs = Runtime.Costs.get () in
  Stats.read d.counters;
  check_kill t d;
  let idx = Memory.Stripe.index t.stripe addr in
  if Runtime.Tmatomic.get (owner t idx) = d.tid + 1 then begin
    (* Own stripe: redo log, else stable memory. *)
    Runtime.Exec.tick costs.log_lookup;
    let s = Wlog.probe d.wset addr in
    if s >= 0 then Wlog.slot_value d.wset s
    else begin
      Runtime.Exec.tick costs.mem;
      Memory.Heap.unsafe_read t.heap addr
    end
  end
  else read_slot t d idx addr costs

(* --- write ------------------------------------------------------------- *)

let write_word t (d : Txdesc.t) addr value =
  let costs = Runtime.Costs.get () in
  Stats.write d.counters;
  check_kill t d;
  let idx = Memory.Stripe.index t.stripe addr in
  if Runtime.Tmatomic.get (owner t idx) <> d.tid + 1 then begin
    let w = owner t idx in
    let rec go () =
      let wv = Runtime.Tmatomic.get w in
      if wv <> 0 && wv <> d.tid + 1 then begin
        cm_wait t d idx ~owner:wv ~reason:Tx_signal.Ww_conflict;
        go ()
      end
      else if wv = 0 then
        if not (Runtime.Tmatomic.cas w ~expect:0 ~replace:(d.tid + 1)) then
          go ()
    in
    go ();
    Hooks.inject_stall d;
    Ivec.push d.acq_stripes idx;
    d.core.cm.on_write d.info ~writes:(Ivec.length d.acq_stripes);
    (* Encounter-time drain: once we own the stripe and the slots are
       empty, no reader can observe it again until we release (they
       arbitrate against the owner word instead). *)
    Readers.drain t.readers ~rollback:(rollback t) d idx;
    d.info.accesses <- d.info.accesses + 1
  end;
  Runtime.Exec.tick costs.log_append;
  Wlog.replace d.wset addr value

(* --- commit ------------------------------------------------------------ *)

let commit t (d : Txdesc.t) =
  Hooks.commit_entry d;
  check_kill t d;
  if Txdesc.is_read_only d then begin
    Readers.retract_all t.readers d;
    Hooks.commit_done ~heap:t.heap d
  end
  else begin
    (* Waiters hold reader slots and owner words, so the commit gate
       polls the kill flag (the irrevocable transaction aborts them out). *)
    Hooks.enter_update_commit ~gate_check:(fun () -> check_kill t d) d;
    Hooks.inject_stretch d;
    Vlock.write_back ~heap:t.heap d;
    release t d;
    Hooks.commit_done ~heap:t.heap d
  end

let start (d : Txdesc.t) ~restart =
  Hooks.tx_begin d;
  d.core.cm.on_start d.info ~restart;
  Hooks.phase_other d.tid

let engine ~cm ~granularity_words ~table_bits heap : Engine.t =
  let t = create ~cm ~granularity_words ~table_bits heap in
  Package.make ~heap ~cap:(name, Readers.cap) ~read:(read_word t)
    ~write:(write_word t)
    (Driver.ops ~release:(release t) ~start ~commit:(commit t)
       ~rollback:(rollback t) t.core)

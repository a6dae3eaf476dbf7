(* The one transaction descriptor shared by every engine (the union of
   the per-engine descriptors the kernel refactor replaced), and the
   engine core every descriptor points to.

   Engines use the subset of fields their policies need; unused sets
   stay empty and their [clear] is O(1), so the union costs nothing on
   the fast path.  Field roles by engine:

   - [core]: the engine instance's kernel state — its label, manager,
     irrevocability token, metrics id and descriptor table — built once
     per instance by [core], so [Hooks], [Readers] and [Driver] take the
     running transaction alone, and two engines share none of it.
   - [valid_ts]: SwissTM/TinySTM validation timestamp; TL2/MVSTM read
     version [rv]; RSTM commit-counter snapshot [snap].
   - [rset]: invisible-read journal of (stripe, version) pairs (TL2 and
     MVSTM log version 0 — their versions are checked against [valid_ts]
     directly, never re-read from the journal).
   - [acq_stripes]: stripes whose write lock / ownership we hold, in
     acquisition order ([acq_saved] the lock values to restore on abort,
     [acq_version] stripe -> version at acquisition for validation).
   - [wset]: word-granular redo log; [wstripes]: unique stripes written
     (index-mode dedup), for lazy commit-time acquisition.
   - [vreads]: visible-reader bits we own (index-mode dedup).
   - [sp_undo_*]/[savepoint]: SwissTM closed-nesting shadow log.
   - [snapshot]/[allow_snapshot]: MVSTM old-version read mode.
   - [counters]: the thread's statistics ([Driver.reset] swaps in fresh
     ones); [ops]: its bodies' op table, built on first use.
   - [committing]: inside an update commit; [Hooks] sets and clears it,
     and an irrevocable transaction's [Driver.drain] waits for it to clear.

   A descriptor belongs to one core and one thread: [get] builds it with
   [create] when that thread runs its first transaction, and it is never
   reset or shared afterwards, so [create] alone defines the initial
   state. *)

type savepoint = { sp_read_len : int; sp_acq_len : int }

let unbuilt_ops : Stm_intf.Engine.tx_ops =
  let unbuilt _ = invalid_arg "Txdesc: tx_ops not built" in
  { read = unbuilt; write = unbuilt; alloc = unbuilt; free = unbuilt }

type t = {
  tid : int;
  info : Cm.Cm_intf.txinfo;
  core : core;
  mutable valid_ts : int;
  rset : Stm_intf.Rset.t;
  acq_stripes : Stm_intf.Ivec.t;
  acq_saved : Stm_intf.Ivec.t;
  wset : Stm_intf.Wlog.t;
  sp_undo_addrs : Stm_intf.Ivec.t;
  sp_undo_vals : Stm_intf.Ivec.t;
  sp_undo_present : Stm_intf.Ivec.t;
  mutable depth : int;
  mutable savepoint : savepoint option;
  mutable start_cycles : int;
  acq_version : Stm_intf.Wlog.t;
  wstripes : Stm_intf.Rset.t;
  vreads : Stm_intf.Rset.t;
  mutable snapshot : bool;
  mutable allow_snapshot : bool;
  frees : Stm_intf.Ivec.t;
      (** buffered transactional frees, interleaved (addr, words) pairs;
          executed through [Memory.Heap.free] at commit, dropped on abort *)
  mutable counters : Stm_intf.Stats.t;
  mutable ops : Stm_intf.Engine.tx_ops;
  mutable committing : bool;
}

and core = {
  name : string;  (** [Engine.name], and the metrics bundle's name *)
  cm : Cm.Cm_intf.t;
  ser : Stm_intf.Serial.t;
      (** irrevocability token: held by a transaction escalated after
          [cm.escalate_after] consecutive aborts (or [atomic_irrevocable]);
          everyone else defers at the start and commit gates *)
  eid : int;  (** metrics-registry engine id *)
  descs : t array;  (** per tid, [absent] until its first transaction *)
}

(* Seed of every descriptor's contention-manager randomness (back-off
   jitter); one constant for all engines, so runs replay exactly. *)
let seed = 0xC0FFEE

let create core ~tid =
  {
    tid;
    info = Cm.Cm_intf.make_txinfo ~tid ~seed;
    core;
    valid_ts = 0;
    rset = Stm_intf.Rset.create ();
    acq_stripes = Stm_intf.Ivec.create ();
    acq_saved = Stm_intf.Ivec.create ();
    acq_version = Stm_intf.Wlog.create ~bits:4 ();
    wset = Stm_intf.Wlog.create ();
    wstripes = Stm_intf.Rset.create ~bits:4 ();
    vreads = Stm_intf.Rset.create ~bits:4 ();
    sp_undo_addrs = Stm_intf.Ivec.create ();
    sp_undo_vals = Stm_intf.Ivec.create ();
    sp_undo_present = Stm_intf.Ivec.create ();
    savepoint = None;
    snapshot = false;
    allow_snapshot = true;
    frees = Stm_intf.Ivec.create ();
    depth = 0;
    start_cycles = 0;
    counters = Stm_intf.Stats.create ();
    ops = unbuilt_ops;
    committing = false;
  }

(* Transactional free: buffer now, execute at commit, drop on abort. *)
let buffer_free d addr words =
  Stm_intf.Ivec.push d.frees addr;
  Stm_intf.Ivec.push d.frees words

(* Execute the buffered frees of a committing transaction.  Cycle-free
   (plain heap bookkeeping), so engines that never free keep bit-identical
   schedules: the empty case is one length check. *)
let flush_frees ~heap d =
  let n = Stm_intf.Ivec.length d.frees in
  if n > 0 then begin
    let i = ref 0 in
    while !i < n do
      Memory.Heap.free heap
        (Stm_intf.Ivec.unsafe_get d.frees !i)
        (Stm_intf.Ivec.unsafe_get d.frees (!i + 1));
      i := !i + 2
    done;
    Stm_intf.Ivec.clear d.frees
  end

let clear_sp_undo d =
  Stm_intf.Ivec.clear d.sp_undo_addrs;
  Stm_intf.Ivec.clear d.sp_undo_vals;
  Stm_intf.Ivec.clear d.sp_undo_present

(* Clears every log (all O(1)); [allow_snapshot] survives — MVSTM uses it
   to carry "this restart may not re-enter snapshot mode" across aborts.
   The savepoint shadow log is left alone: it is only read inside a
   closed-nested scope, and opening a scope clears it. *)
let clear_logs d =
  d.savepoint <- None;
  Stm_intf.Rset.clear d.rset;
  Stm_intf.Ivec.clear d.acq_stripes;
  Stm_intf.Ivec.clear d.acq_saved;
  Stm_intf.Wlog.clear d.acq_version;
  Stm_intf.Wlog.clear d.wset;
  Stm_intf.Rset.clear d.wstripes;
  Stm_intf.Rset.clear d.vreads;
  Stm_intf.Ivec.clear d.frees;
  d.snapshot <- false

let is_read_only d = Stm_intf.Ivec.length d.acq_stripes = 0

(* Descriptor table: a thread's descriptor is built on its first
   transaction, so a core costs the slot array, not 512 descriptors.  A
   thread publishes its tid (a lock owner word, a reader bit) only after
   that, so a victim lookup of the tid always finds a built descriptor.
   Building one charges no cycles, so simulated schedules do not depend
   on when a thread first ran.  Every table shares one sentinel, whose
   own core (never read) has an empty table and eid -1.  A plain array,
   not a [Runtime.Tid_table]: a table is built around its sentinel, and
   this sentinel needs a core, which needs a table. *)
let absent =
  let cm = Cm.Factory.make Cm.Cm_intf.Timid and ser = Stm_intf.Serial.create () in
  create { name = "absent"; cm; ser; eid = -1; descs = [||] } ~tid:(-1)

(* An engine instance's core; registering [name] (idempotent by name)
   here keeps the registry in engine-creation order. *)
let core ~name spec =
  {
    name;
    cm = Cm.Factory.make spec;
    ser = Stm_intf.Serial.create ();
    eid = Obs.Metrics.register_engine name;
    descs = Array.make Runtime.Topology.max_cores absent;
  }

let fill core tid =
  let d = create core ~tid in
  core.descs.(tid) <- d;
  d

(* [tid]'s descriptor, built on its first call. *)
let[@inline] get core tid =
  let d = core.descs.(tid) in
  if d != absent then d else fill core tid

(* Over the built descriptors, in tid order. *)
let fold f acc core =
  Array.fold_left (fun acc d -> if d == absent then acc else f acc d) acc core.descs

let iter f core = fold (fun () d -> f d) () core

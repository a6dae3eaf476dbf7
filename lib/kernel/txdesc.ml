(* The one transaction descriptor shared by every engine (the union of
   the per-engine descriptors the kernel refactor replaced).

   Engines use the subset of fields their policies need; unused sets
   stay empty and their [clear] is O(1), so the union costs nothing on
   the fast path.  Field roles by engine:

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
   - [snapshot]/[allow_snapshot]: MVSTM old-version read mode. *)

type savepoint = { sp_read_len : int; sp_acq_len : int }

type t = {
  tid : int;
  info : Cm.Cm_intf.txinfo;
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
  mutable pool_gen : int;
      (** pool generation stamp: even = checked out, odd = in the free
          list; bumped on every transfer, so a double release is
          detectable instead of corrupting the free list *)
}

let create ~tid ~seed =
  {
    tid;
    info = Cm.Cm_intf.make_txinfo ~tid ~seed;
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
    pool_gen = 0;
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

(* --- descriptor pool (DESIGN.md §12) ----------------------------------- *)

(* Engines are created far more often than logical threads exist (every
   test, benchmark column and composed point builds a fresh instance), and
   each descriptor owns several growable logs.  Recycling descriptors
   across instances makes engine creation allocation-free in the steady
   state and keeps the logs' grown capacities warm.

   [acquire] resets a recycled descriptor to exactly the state [create]
   produces — logs, timestamps, the RNG stream, the kill flag and its
   modelled cache line — so pooled and fresh descriptors are
   indistinguishable and simulated cycle traces stay deterministic no
   matter when the GC returns descriptors to the pool. *)
module Pool = struct
  let lock = Mutex.create ()
  let free : t list array = Array.make Stm_intf.Stats.max_threads []
  let hits = ref 0
  let misses = ref 0
  let double_releases = ref 0

  let reset d ~seed =
    clear_logs d;
    d.valid_ts <- 0;
    d.depth <- 0;
    d.start_cycles <- 0;
    d.allow_snapshot <- true;
    Cm.Cm_intf.reset_txinfo d.info ~seed

  let acquire ~tid ~seed =
    Mutex.lock lock;
    match free.(tid) with
    | d :: rest ->
        free.(tid) <- rest;
        incr hits;
        Mutex.unlock lock;
        d.pool_gen <- d.pool_gen + 1;
        reset d ~seed;
        d
    | [] ->
        incr misses;
        Mutex.unlock lock;
        create ~tid ~seed

  let release d =
    Mutex.lock lock;
    if d.pool_gen land 1 = 1 then incr double_releases
    else begin
      d.pool_gen <- d.pool_gen + 1;
      free.(d.tid) <- d :: free.(d.tid)
    end;
    Mutex.unlock lock

  let () =
    Obs.Metrics.register_gauge "txdesc_pool_hits" (fun () -> !hits);
    Obs.Metrics.register_gauge "txdesc_pool_misses" (fun () -> !misses);
    Obs.Metrics.register_gauge "txdesc_pool_double_releases" (fun () ->
        !double_releases)
end

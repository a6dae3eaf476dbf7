(* SwissTM — the paper's Algorithm 1 + Algorithm 2.

   Lock- and word-based STM: invisible reads validated against a global
   commit counter ([commit_ts]) with timestamp *extension* on successful
   revalidation; *eager* w/w conflict detection (writers CAS a stripe's
   w-lock at their first write, so a doomed transaction learns of the
   conflict immediately); *lazy* r/w detection (readers are never blocked
   by a w-lock holder — redo logging; r-locks are held only during
   commit); a pluggable contention manager invoked **only** on w/w
   conflicts (paper §5: a reader never aborts a committing writer).

   In kernel axes: the mixed + invisible + incremental + redo point; the
   composed twin [k-mixed+inv+incr+redo] realizes the same policies on
   [Kernel.Compose].  Like every other engine, this file holds only the
   policy — the two-lock table, read/write/validate/extend, the §6
   quiescence slots and closed nesting — over the kernel's [Txdesc],
   [Driver], [Hooks] and [Package].  Where SwissTM orders a cycle charge or
   [Tmatomic] operation differently from a hook, the engine keeps its own
   order around the hook; [test/test_kernel.ml] pins it to its frozen
   behavioral snapshot. *)

open Stm_intf
open Kernel

type t = {
  heap : Memory.Heap.t;
  locks : Runtime.Line_table.t;  (** one (r-lock, w-lock) line per stripe *)
  stripe : Memory.Stripe.t;  (** address to lock-table index *)
  commit_ts : Runtime.Tmatomic.t;
  core : Txdesc.core;
  privatization_safe : bool;
      (** §6 extension: quiescence at commit — every committing update
          transaction waits until all transactions that started before its
          commit have validated, committed or aborted, making the
          privatization idiom safe at a measurable cost *)
  debug_no_validation : bool;
      (** DEBUG ONLY: make read-set validation vacuously succeed, so stale
          reads survive extension and commit.  Deliberately breaks opacity;
          exists so the fuzzer's checker can prove it catches a broken
          engine ([stm_fuzz --self-check]). *)
  active : Runtime.Tmatomic.t array;  (** §6 quiescence table, [quiesce_slots] *)
}

let name = "swisstm"

(* The §6 quiescence table holds each thread's snapshot ts ([max_int] when
   idle).  It is built only when [privatization_safe] is set, and its size
   is then the thread cap: a committer scans (and is charged for) it all. *)
let quiesce_slots = 64

let create ~cm ~granularity_words ~table_bits ~privatization_safe
    ~debug_no_validation heap =
  let stripe = Memory.Stripe.create ~granularity_words ~table_bits () in
  {
    heap;
    locks = Lock_table.create stripe;
    stripe;
    commit_ts = Runtime.Tmatomic.make 0;
    core = Txdesc.core ~name cm;
    privatization_safe;
    debug_no_validation;
    active =
      Array.init (if privatization_safe then quiesce_slots else 0) (fun _ -> Runtime.Tmatomic.make max_int);
  }

(* The lock pair of stripe [idx], built on first access. *)
let[@inline] entry t idx = (Runtime.Line_table.line [@inlined]) t.locks idx

let[@inline] r_lock t idx = Array.unsafe_get (entry t idx) Lock_table.r_col
let[@inline] w_lock t idx = Array.unsafe_get (entry t idx) Lock_table.w_col

(* --- rollback ------------------------------------------------------- *)

(* Withdraw our snapshot from the §6 quiescence table. *)
let leave_quiescence_slot t (d : Txdesc.t) =
  if t.privatization_safe then Runtime.Tmatomic.set t.active.(d.tid) max_int

(* Release held w-locks and withdraw the published snapshot: on abort,
   and on a foreign exception, where a still-published snapshot would
   stall every later committer's quiescence wait. *)
let release t (d : Txdesc.t) =
  let n = Ivec.length d.acq_stripes in
  for i = 0 to n - 1 do
    Runtime.Tmatomic.set
      (w_lock t (Ivec.unsafe_get d.acq_stripes i))
      Lock_table.w_unlocked
  done;
  leave_quiescence_slot t d

(** Roll back: release held w-locks, withdraw the published snapshot and
    unwind through [Hooks.rollback].  R-locks are only held inside
    [commit], which restores them itself first.  Closed nesting (§6): a
    w/w conflict inside an active nested scope only concerns state
    acquired there, so logs roll back to the savepoint and just the scope
    retries; validation failures and kills condemn the whole transaction
    (the stale read may predate the scope). *)
let rollback t (d : Txdesc.t) reason =
  Hooks.phase_commit d.tid;
  match (d.savepoint, reason) with
  | Some sp, Tx_signal.Ww_conflict ->
      (* release only the w-locks acquired inside the scope *)
      let n = Ivec.length d.acq_stripes in
      for i = sp.sp_acq_len to n - 1 do
        Runtime.Tmatomic.set
          (w_lock t (Ivec.unsafe_get d.acq_stripes i))
          Lock_table.w_unlocked
      done;
      Ivec.truncate d.acq_stripes sp.sp_acq_len;
      Rset.truncate d.rset sp.sp_read_len;
      for i = Ivec.length d.sp_undo_addrs - 1 downto 0 do
        let addr = Ivec.unsafe_get d.sp_undo_addrs i in
        if Ivec.unsafe_get d.sp_undo_present i = 1 then
          Wlog.replace d.wset addr (Ivec.unsafe_get d.sp_undo_vals i)
        else Wlog.remove d.wset addr
      done;
      Txdesc.clear_sp_undo d;
      if !Trace.enabled then Trace.on_scope_abort ~tid:d.tid;
      Stats.abort d.counters reason;
      Runtime.Exec.tick (Runtime.Costs.get ()).tx_end;
      d.core.cm.on_rollback d.info;
      raise Tx_signal.Inner_abort
  | _ ->
      release t d;
      Hooks.rollback d ~reason

let check_kill t (d : Txdesc.t) =
  if Hooks.kill_due d then rollback t d Tx_signal.Killed

(* --- validation ----------------------------------------------------- *)

(** Re-check every read-log entry: the stripe's r-lock must still hold the
    version observed at read, or be [d]'s own commit-time r-lock. *)
let validate t (d : Txdesc.t) =
  if t.debug_no_validation then true
  else begin
    let prof_prev = Hooks.phase_enter_validate d.tid in
    let costs = Runtime.Costs.get () in
    let rs = d.rset in
    let n = Rset.length rs in
    let ok = ref true in
    let j = ref 0 in
    while !ok && !j < n do
      Runtime.Exec.tick costs.validate_entry;
      let idx = Rset.key rs !j in
      let cur = Runtime.Tmatomic.get (r_lock t idx) in
      if cur <> Lock_table.encode_version (Rset.value rs !j) then begin
        (* A mismatch is fine only when the r-lock is commit-locked by *us*
           (we hold the stripe's w-lock and froze it).  Merely owning the
           w-lock is NOT enough: the version may have moved between our
           read and our acquisition, making this read stale. *)
        if
          not
            (cur = Lock_table.r_locked
            && Runtime.Tmatomic.get (w_lock t idx)
               = Lock_table.encode_w_owner d.tid)
        then ok := false
      end;
      incr j
    done;
    Hooks.phase_restore d.tid prof_prev;
    !ok
  end

(** Paper's extend: if the read set is still valid, advance valid-ts. *)
let extend t (d : Txdesc.t) =
  let ts = Runtime.Tmatomic.get t.commit_ts in
  if validate t d then begin
    d.valid_ts <- ts;
    (* publishing our newer snapshot releases waiting committers *)
    if t.privatization_safe then Runtime.Tmatomic.set t.active.(d.tid) ts;
    true
  end
  else false

(* Quiescence barrier (paper §6): wait until no in-flight transaction has
   a snapshot older than [ts]; after that, memory we made private can
   never be read through stale transactional snapshots. *)
let quiesce t (d : Txdesc.t) ~ts =
  if t.privatization_safe then
    Array.iteri
      (fun u cell ->
        if u <> d.tid then
          while Runtime.Tmatomic.get cell <= ts do
            Stats.wait d.counters;
            Runtime.Exec.pause ()
          done)
      t.active

(* --- read ------------------------------------------------------------ *)

(* Consistent double-read of (r-lock, word, r-lock); spin while a
   committing writer holds the r-lock (a stripe merely *w-locked* by
   another transaction does not stop us — the lazy r/w side of mixed
   invalidation).  Module-level recursion keeps the fast path
   allocation-free. *)
let rec read_fresh t (d : Txdesc.t) r_lock idx addr
    (costs : Runtime.Costs.t) =
  let rv = (Runtime.Tmatomic.get [@inlined]) r_lock in
  if Lock_table.is_r_locked rv then begin
    Stats.wait d.counters;
    check_kill t d;
    Runtime.Exec.pause ();
    read_fresh t d r_lock idx addr costs
  end
  else begin
    (Runtime.Exec.tick [@inlined]) costs.mem;
    let value = Memory.Heap.unsafe_read t.heap addr in
    let rv2 = (Runtime.Tmatomic.get [@inlined]) r_lock in
    if rv2 <> rv then read_fresh t d r_lock idx addr costs
    else begin
      let version = Lock_table.version_of rv in
      (Runtime.Exec.tick [@inlined]) costs.log_append;
      (Rset.push [@inlined]) d.rset idx version;
      d.info.accesses <- d.info.accesses + 1;
      if version > d.valid_ts && not (extend t d) then
        rollback t d Tx_signal.Rw_validation;
      value
    end
  end

let read_word t (d : Txdesc.t) addr =
  let costs = Runtime.Costs.get () in
  Stats.read d.counters;
  check_kill t d;
  let idx = Memory.Stripe.index t.stripe addr in
  let e = entry t idx in
  let wv =
    (Runtime.Tmatomic.get [@inlined]) (Array.unsafe_get e Lock_table.w_col)
  in
  if wv = Lock_table.encode_w_owner d.tid then begin
    (* Read-after-write: return the redo-log value if this word was
       written; otherwise memory is stable (we own the stripe).  The bloom
       filter inside [Wlog.probe] lets the miss case skip the probe. *)
    (Runtime.Exec.tick [@inlined]) costs.log_lookup;
    let s = Wlog.probe d.wset addr in
    if s >= 0 then Wlog.slot_value d.wset s
    else begin
      Runtime.Exec.tick costs.mem;
      Memory.Heap.unsafe_read t.heap addr
    end
  end
  else read_fresh t d (Array.unsafe_get e Lock_table.r_col) idx addr costs

(* --- write ------------------------------------------------------------ *)

(* Closed nesting: remember what the redo log held for [addr] before the
   inner scope shadows it, so a partial rollback can restore it.  The Wlog
   mark stamp makes the "already shadow-logged this scope?" check O(1). *)
let record_undo (d : Txdesc.t) addr =
  match d.savepoint with
  | None -> ()
  | Some _ -> (
      match Wlog.record_once d.wset addr with
      | -2 -> ()  (* already shadow-logged since the scope began *)
      | -1 ->
          Ivec.push d.sp_undo_addrs addr;
          Ivec.push d.sp_undo_vals 0;
          Ivec.push d.sp_undo_present 0
      | s ->
          Ivec.push d.sp_undo_addrs addr;
          Ivec.push d.sp_undo_vals (Wlog.slot_value d.wset s);
          Ivec.push d.sp_undo_present 1)

(* Acquire stripe [idx]'s w-lock eagerly, [wv] its last read value; on
   conflict defer to the CM (write-word 24–30). *)
let rec acquire t (d : Txdesc.t) w_lock idx ~mine wv =
  if wv <> Lock_table.w_unlocked then begin
    check_kill t d;
    Hooks.stripe_conflict d ~stripe:idx;
    let victim = (Txdesc.get d.core (Lock_table.w_owner_of wv)).info in
    match Hooks.cm_resolve d ~victim with
    | Cm.Cm_intf.Abort_self -> rollback t d Tx_signal.Ww_conflict
    | Cm.Cm_intf.Wait | Cm.Cm_intf.Killed_victim ->
        Stats.wait d.counters;
        Runtime.Exec.pause ();
        acquire t d w_lock idx ~mine (Runtime.Tmatomic.get w_lock)
  end
  else if
    not (Runtime.Tmatomic.cas w_lock ~expect:Lock_table.w_unlocked ~replace:mine)
  then acquire t d w_lock idx ~mine (Runtime.Tmatomic.get w_lock)

let write_word t (d : Txdesc.t) addr value =
  let costs = Runtime.Costs.get () in
  Stats.write d.counters;
  check_kill t d;
  let idx = Memory.Stripe.index t.stripe addr in
  let e = entry t idx in
  let w_lock = Array.unsafe_get e Lock_table.w_col in
  let mine = Lock_table.encode_w_owner d.tid in
  let wv = (Runtime.Tmatomic.get [@inlined]) w_lock in
  if wv = mine then begin
    (Runtime.Exec.tick [@inlined]) costs.log_append;
    record_undo d addr;
    Wlog.replace d.wset addr value
  end
  else begin
    acquire t d w_lock idx ~mine wv;
    Hooks.inject_stall d;
    Ivec.push d.acq_stripes idx;
    (Runtime.Exec.tick [@inlined]) costs.log_append;
    record_undo d addr;
    Wlog.replace d.wset addr value;
    d.info.accesses <- d.info.accesses + 1;
    (* Opacity: if the stripe moved past our snapshot, revalidate. *)
    let rv = Runtime.Tmatomic.get (Array.unsafe_get e Lock_table.r_col) in
    if
      (not (Lock_table.is_r_locked rv))
      && Lock_table.version_of rv > d.valid_ts
      && not (extend t d)
    then rollback t d Tx_signal.Rw_validation;
    d.core.cm.on_write d.info ~writes:(Ivec.length d.acq_stripes)
  end

(* --- commit ------------------------------------------------------------ *)

let commit t (d : Txdesc.t) =
  Hooks.commit_entry d;
  if Txdesc.is_read_only d then begin
    leave_quiescence_slot t d;
    Hooks.commit_done ~heap:t.heap d
  end
  else begin
    (* Commit gate: while an irrevocable transaction runs, update commits
       must not advance [commit_ts].  The waiter still holds w-locks, so
       it polls its kill flag (the token holder can abort it out). *)
    Hooks.enter_update_commit ~gate_check:(fun () -> check_kill t d) d;
    check_kill t d;
    (* Lock the r-locks of every written stripe to freeze readers. *)
    let n_acq = Ivec.length d.acq_stripes in
    for i = 0 to n_acq - 1 do
      let rl = r_lock t (Ivec.unsafe_get d.acq_stripes i) in
      Ivec.push d.acq_saved (Runtime.Tmatomic.get rl);
      Runtime.Tmatomic.set rl Lock_table.r_locked
    done;
    Hooks.inject_stretch d;
    let ts = Runtime.Tmatomic.incr_get t.commit_ts in
    if ts > d.valid_ts + 1 && not (validate t d) then begin
      (* Failed commit-time validation: restore r-locks, then roll back. *)
      for i = 0 to n_acq - 1 do
        Runtime.Tmatomic.set
          (r_lock t (Ivec.unsafe_get d.acq_stripes i))
          (Ivec.unsafe_get d.acq_saved i)
      done;
      rollback t d Tx_signal.Rw_validation
    end;
    (* Write back the redo log while all written stripes are frozen... *)
    let costs = Runtime.Costs.get () in
    Wlog.iter
      (fun addr value ->
        Runtime.Exec.tick costs.mem;
        Memory.Heap.unsafe_write t.heap addr value)
      d.wset;
    (* ...then publish the new version and release both locks. *)
    let ver = Lock_table.encode_version ts in
    for i = 0 to n_acq - 1 do
      let idx = Ivec.unsafe_get d.acq_stripes i in
      Runtime.Tmatomic.set (r_lock t idx) ver;
      Runtime.Tmatomic.set (w_lock t idx) Lock_table.w_unlocked
    done;
    leave_quiescence_slot t d;
    (* The token drops inside [commit_done], before quiescing: gated
       threads are idle (active = max_int) so quiesce cannot hang on them. *)
    Hooks.commit_done ~heap:t.heap d;
    (* an update commit may have privatized data: wait out older readers *)
    quiesce t d ~ts
  end

(* --- transaction driver ------------------------------------------------ *)

(* SwissTM samples its snapshot (and publishes it in the quiescence table)
   before the manager's [on_start]. *)
let start t (d : Txdesc.t) ~restart =
  Hooks.tx_begin d;
  d.valid_ts <- Runtime.Tmatomic.get t.commit_ts;
  if t.privatization_safe then
    Runtime.Tmatomic.set t.active.(d.tid) d.valid_ts;
  d.core.cm.on_start d.info ~restart;
  Hooks.phase_other d.tid

let ops t =
  Driver.ops ~release:(release t) ~start:(start t) ~commit:(commit t)
    ~rollback:(rollback t) t.core

(* Direct entry for callers that drive [read_word]/[write_word] and
   [atomic_closed] themselves (closed-nesting tests and ablations). *)
let atomic t ~tid f = Driver.run (ops t) ~tid ~irrevocable:false f

(* --- closed nesting (paper §6 extension) -------------------------------- *)

(** [atomic_closed d f] runs [f] as a closed-nested scope of descriptor
    [d]'s transaction: a w/w conflict inside the scope rolls back and
    retries only the scope.  Call from inside [atomic]; one level deep. *)
let atomic_closed (d : Txdesc.t) f =
  if d.depth = 0 then invalid_arg "atomic_closed: no enclosing transaction";
  match d.savepoint with
  | Some _ -> f d (* already inside a scope: flatten *)
  | None ->
      let rec attempt () =
        Wlog.bump_mark d.wset;
        Txdesc.clear_sp_undo d;
        d.savepoint <-
          Some
            {
              Txdesc.sp_read_len = Rset.length d.rset;
              sp_acq_len = Ivec.length d.acq_stripes;
            };
        match f d with
        | v ->
            d.savepoint <- None;
            v
        | exception Tx_signal.Inner_abort -> attempt ()
        | exception e ->
            d.savepoint <- None;
            raise e
      in
      Fun.protect ~finally:(fun () -> d.savepoint <- None) attempt

(* --- packaging as a uniform engine ------------------------------------- *)

let engine ~cm ~granularity_words ~table_bits ~privatization_safe
    ~debug_no_validation heap : Engine.t =
  let t =
    create ~cm ~granularity_words ~table_bits ~privatization_safe
      ~debug_no_validation heap
  in
  (* The quiescence table is a hard thread cap when it is in use.  Full-
     arity closures: each access calls [read_word]/[write_word] directly
     instead of going through a partial application's curry stub,
     measurable on SwissTM's per-access path. *)
  Package.make ~heap
    ?cap:
      (if privatization_safe then Some ("swisstm-priv", quiesce_slots)
       else None)
    ~read:(fun d addr -> read_word t d addr)
    ~write:(fun d addr v -> write_word t d addr v)
    (ops t)

(* The composed kernel engine: one implementation parameterized by the
   policy axes in [Axes], covering design points none of the five classic
   engines occupy (and, redundantly, the points they do).

   Stripe metadata is a SwissTM-style split lock pair sharing one cache
   line:

   - [w_lock]  : owning writer + 1 (0 = free), CASed at acquisition time —
     encounter time for Eager/Mixed, commit time for Lazy;
   - [r_lock]  : (version << 1), or 1 while *frozen* — readers are held
     off.  Freeze time is the second half of the acquisition axis: Eager
     freezes at encounter (TinySTM-style: a writer blocks readers for its
     whole duration), Mixed and Lazy only for the commit write-back
     (SwissTM-style);
   - [readers] : the shared visible-reader set ([Readers]; Visible mode
     only — its 62-tid cap is then the engine's thread cap).

   Readers that meet a long-lived freeze (Eager) or an owned stripe
   (Visible) arbitrate through the contention manager, so no composition
   can deadlock on a Timid manager: someone aborts.  A short commit-time
   freeze is waited out, SwissTM's "a reader never aborts a committing
   writer".

   Validation (Invisible compositions only):
   - [Commit_time]  : TL2 — abort reads past the snapshot, validate the
     read set once at commit;
   - [Incremental]  : SwissTM/TinySTM — timestamp extension at read time,
     exact revalidation at commit;
   - [Counter]      : RSTM — revalidate when the global commit counter
     moved; no per-read opacity guarantee (Serializable contract).

   Visible compositions need no read log at all: every write to a stripe
   we read must drain our reader bit first, so reads stay valid by
   construction.

   The point is the whole configuration this file owns: the manager,
   stripe granularity and table size arrive as the same three arguments
   every engine takes (the flat [Engines.spec]), and [engine] packages
   the policy with one [Package.make] call.

   Versioning is Redo only; Multi remains classic MVSTM's (the chain
   walk is not worth generalizing — paper §6 found no advantage).  The
   PR-7 axis values are likewise dedicated-engine-only: Seqlock/Value is
   [Norec] (there are no per-stripe locks to compose) and Bytelock is
   [Tlrw].  [create] rejects every such point with [Unreachable_point]
   (a *named* error carrying a stable message), so sweeps that probe the
   full axis product can skip them deterministically instead of dying on
   an anonymous [Invalid_argument]. *)

open Stm_intf

exception Unreachable_point of string

let unreachable point why =
  raise
    (Unreachable_point
       (Printf.sprintf "Kernel.Compose cannot run %s: %s"
          (Axes.point_name point) why))

type t = {
  heap : Memory.Heap.t;
  stripe : Memory.Stripe.t;
  locks : Runtime.Line_table.t;  (* per stripe one line: w, r, readers *)
  readers : Readers.t;  (* the readers column of [locks] *)
  clock : Runtime.Tmatomic.t;
  point : Axes.point;
  core : Txdesc.core;
}

let name_of_point point = "k-" ^ Axes.point_name point

let r_frozen = 1
let is_frozen rv = rv land 1 = 1
let encode_version v = v lsl 1
let version_of rv = rv lsr 1

let[@inline] w_lock t idx = Runtime.Line_table.cell t.locks idx 0
let[@inline] r_lock t idx = Runtime.Line_table.cell t.locks idx 1

let create ~cm ~granularity_words ~table_bits point heap =
  if point.Axes.versioning = Axes.Multi then
    unreachable point "Multi versioning is the dedicated mvstm engine only";
  (match point.Axes.acquisition with
  | Axes.Seqlock ->
      unreachable point
        "the global sequence lock is the dedicated norec engine only"
  | Axes.Bytelock ->
      unreachable point
        "read-write bytelocks are the dedicated tlrw engine only"
  | Axes.Eager | Axes.Mixed | Axes.Lazy -> ());
  if point.Axes.validation = Axes.Value then
    unreachable point
      "value-based validation needs the global sequence lock (norec only)";
  let stripe = Memory.Stripe.create ~granularity_words ~table_bits () in
  let n = Memory.Stripe.table_size stripe in
  let locks = Runtime.Line_table.create n ~init:[| 0; encode_version 0; 0 |] in
  {
    heap;
    stripe;
    locks;
    readers = Readers.create locks ~col:2;
    clock = Runtime.Tmatomic.make 0;
    point;
    core = Txdesc.core ~name:(name_of_point point) cm;
  }

(* --- rollback --------------------------------------------------------- *)

(* [acq_saved] holds the pre-freeze r-lock values, aligned with the
   frozen prefix of [acq_stripes] (all of it for Eager, none of it before
   commit for Mixed/Lazy). *)
let release t (d : Txdesc.t) =
  let frozen = Ivec.length d.acq_saved in
  for i = 0 to frozen - 1 do
    Runtime.Tmatomic.set
      (r_lock t (Ivec.unsafe_get d.acq_stripes i))
      (Ivec.unsafe_get d.acq_saved i)
  done;
  Ivec.iter (fun idx -> Runtime.Tmatomic.set (w_lock t idx) 0) d.acq_stripes;
  Readers.retract_all t.readers d

let rollback t (d : Txdesc.t) reason =
  Hooks.phase_commit d.tid;
  release t d;
  Hooks.rollback d ~reason

let check_kill t d = if Hooks.kill_due d then rollback t d Tx_signal.Killed

(* --- validation (Invisible only) --------------------------------------- *)

(* [exact]: every entry must still carry the version logged at read time
   (Incremental extension / Counter revalidation).  Non-exact (TL2): the
   version must merely not have passed the snapshot.  A stripe we froze
   ourselves validates against the version saved at freeze time. *)
let validate t (d : Txdesc.t) ~exact =
  let prof_prev = Hooks.phase_enter_validate d.tid in
  let costs = Runtime.Costs.get () in
  let n = Rset.length d.rset in
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i < n do
    Runtime.Exec.tick costs.validate_entry;
    let idx = Rset.key d.rset !i in
    let logged = Rset.value d.rset !i in
    let rv = Runtime.Tmatomic.get (r_lock t idx) in
    let v =
      if is_frozen rv then begin
        if Runtime.Tmatomic.get (w_lock t idx) = d.tid + 1 then begin
          let s = Wlog.probe d.acq_version idx in
          if s >= 0 then Wlog.slot_value d.acq_version s else -1
        end
        else -1  (* frozen by another committer: conflicting *)
      end
      else version_of rv
    in
    if v < 0 then ok := false
    else if exact then begin if v <> logged then ok := false end
    else if v > d.valid_ts then ok := false;
    incr i
  done;
  Hooks.phase_restore d.tid prof_prev;
  !ok

(* Policy reaction to a version past the snapshot, at read/write time. *)
let settle_version t (d : Txdesc.t) version =
  if version > d.valid_ts then
    match t.point.Axes.validation with
    | Axes.Commit_time ->
        (* TL2: no extension *)
        rollback t d Tx_signal.Rw_validation
    | Axes.Incremental ->
        let ts = Runtime.Tmatomic.get t.clock in
        if validate t d ~exact:true then d.valid_ts <- ts
        else rollback t d Tx_signal.Rw_validation
    | Axes.Counter ->
        (* commit-counter heuristic: revalidate, adopt the newer snapshot
           even though individual reads may now span it (Serializable) *)
        let cc = Runtime.Tmatomic.get t.clock in
        if validate t d ~exact:true then d.valid_ts <- cc
        else rollback t d Tx_signal.Rw_validation
    | Axes.Value -> assert false (* rejected by [create] *)

(* --- read -------------------------------------------------------------- *)

(* CM-arbitrated wait on the owner of [idx] (long-lived conflicts:
   Eager freeze, Visible read of an owned stripe, w/w encounters). *)
let cm_wait t d idx ~owner ~reason =
  Readers.cm_wait ~rollback:(rollback t) d idx ~owner ~reason

let rec read_invisible t (d : Txdesc.t) idx addr (costs : Runtime.Costs.t) =
  let rv = Runtime.Tmatomic.get (r_lock t idx) in
  if is_frozen rv then begin
    (* Frozen by an encounter-time writer (long-lived: arbitrate) or by a
       committer mid-write-back (short: wait it out). *)
    let wv = Runtime.Tmatomic.get (w_lock t idx) in
    if t.point.Axes.acquisition = Axes.Eager && wv <> 0 && wv <> d.tid + 1
    then cm_wait t d idx ~owner:wv ~reason:Tx_signal.Rw_validation
    else begin
      Stats.wait d.counters;
      check_kill t d;
      Runtime.Exec.pause ()
    end;
    read_invisible t d idx addr costs
  end
  else begin
    Runtime.Exec.tick costs.mem;
    let value = Memory.Heap.unsafe_read t.heap addr in
    let rv2 = Runtime.Tmatomic.get (r_lock t idx) in
    if rv2 <> rv then read_invisible t d idx addr costs
    else begin
      let version = version_of rv in
      Runtime.Exec.tick costs.log_append;
      Rset.push d.rset idx version;
      d.info.accesses <- d.info.accesses + 1;
      (match t.point.Axes.validation with
      | Axes.Counter ->
          (* revalidate whenever the commit counter moved since the last
             look, not just when this read is past the snapshot *)
          let cc = Runtime.Tmatomic.get t.clock in
          if cc <> d.valid_ts then settle_version t d (d.valid_ts + 1)
      | Axes.Commit_time | Axes.Incremental -> settle_version t d version
      | Axes.Value -> assert false (* rejected by [create] *));
      value
    end
  end

let rec read_visible t (d : Txdesc.t) idx addr (costs : Runtime.Costs.t) =
  (* Announce BEFORE reading: a writer acquiring afterwards must drain our
     bit; writers that acquired before are caught by the ownership check. *)
  Readers.announce t.readers d idx;
  let wv = Runtime.Tmatomic.get (w_lock t idx) in
  if wv <> 0 && wv <> d.tid + 1 then begin
    cm_wait t d idx ~owner:wv ~reason:Tx_signal.Rw_validation;
    read_visible t d idx addr costs
  end
  else begin
    let rv = Runtime.Tmatomic.get (r_lock t idx) in
    if is_frozen rv then begin
      Stats.wait d.counters;
      check_kill t d;
      Runtime.Exec.pause ();
      read_visible t d idx addr costs
    end
    else begin
      Runtime.Exec.tick costs.mem;
      let value = Memory.Heap.unsafe_read t.heap addr in
      let rv2 = Runtime.Tmatomic.get (r_lock t idx) in
      if rv2 <> rv then read_visible t d idx addr costs
      else begin
        d.info.accesses <- d.info.accesses + 1;
        value
      end
    end
  end

let read_word t (d : Txdesc.t) addr =
  let costs = Runtime.Costs.get () in
  Stats.read d.counters;
  check_kill t d;
  let idx = Memory.Stripe.index t.stripe addr in
  if Runtime.Tmatomic.get (w_lock t idx) = d.tid + 1 then begin
    (* Own stripe: redo log, else stable memory. *)
    Runtime.Exec.tick costs.log_lookup;
    let s = Wlog.probe d.wset addr in
    if s >= 0 then Wlog.slot_value d.wset s
    else begin
      Runtime.Exec.tick costs.mem;
      Memory.Heap.unsafe_read t.heap addr
    end
  end
  else begin
    (* Lazy acquisition may have buffered a write without owning. *)
    let s =
      if t.point.Axes.acquisition = Axes.Lazy && not (Wlog.is_empty d.wset)
      then begin
        Runtime.Exec.tick costs.log_lookup;
        Wlog.probe d.wset addr
      end
      else -1
    in
    if s >= 0 then Wlog.slot_value d.wset s
    else
      match t.point.Axes.visibility with
      | Axes.Invisible -> read_invisible t d idx addr costs
      | Axes.Visible -> read_visible t d idx addr costs
  end

(* --- write ------------------------------------------------------------- *)

(* Freeze [idx]'s r-lock (we hold its w-lock), saving the pre-freeze value
   for abort restoration and the version for self-validation. *)
let freeze_stripe t (d : Txdesc.t) idx =
  let rv = Runtime.Tmatomic.get (r_lock t idx) in
  Ivec.push d.acq_saved rv;
  Wlog.replace d.acq_version idx (version_of rv);
  Runtime.Tmatomic.set (r_lock t idx) r_frozen;
  if t.point.Axes.visibility = Axes.Visible then
    Readers.drain t.readers ~rollback:(rollback t) d idx;
  version_of rv

(* CM-arbitrated w-lock acquisition (Eager/Mixed at encounter, Lazy at
   commit). *)
let acquire_w t (d : Txdesc.t) idx =
  let w = w_lock t idx in
  let rec go () =
    let wv = Runtime.Tmatomic.get w in
    if wv <> 0 && wv <> d.tid + 1 then begin
      cm_wait t d idx ~owner:wv ~reason:Tx_signal.Ww_conflict;
      go ()
    end
    else if wv = 0 then
      if not (Runtime.Tmatomic.cas w ~expect:0 ~replace:(d.tid + 1)) then go ()
  in
  go ();
  Hooks.inject_stall d;
  Ivec.push d.acq_stripes idx;
  d.core.cm.on_write d.info ~writes:(Ivec.length d.acq_stripes)

let write_word t (d : Txdesc.t) addr value =
  let costs = Runtime.Costs.get () in
  Stats.write d.counters;
  check_kill t d;
  let idx = Memory.Stripe.index t.stripe addr in
  (match t.point.Axes.acquisition with
  | Axes.Seqlock | Axes.Bytelock -> assert false (* rejected by [create] *)
  | Axes.Lazy -> ignore (Rset.add_unique d.wstripes idx 0 : bool)
  | Axes.Eager | Axes.Mixed ->
      if Runtime.Tmatomic.get (w_lock t idx) <> d.tid + 1 then begin
        acquire_w t d idx;
        let version =
          if t.point.Axes.acquisition = Axes.Eager then freeze_stripe t d idx
          else version_of (Runtime.Tmatomic.get (r_lock t idx))
        in
        d.info.accesses <- d.info.accesses + 1;
        (* Opacity: the stripe may have moved past our snapshot between our
           reads and this acquisition. *)
        if t.point.Axes.visibility = Axes.Invisible then
          settle_version t d version
      end);
  Runtime.Exec.tick costs.log_append;
  Wlog.replace d.wset addr value

(* --- commit ------------------------------------------------------------ *)

let commit t (d : Txdesc.t) =
  Hooks.commit_entry d;
  check_kill t d;
  let ro =
    match t.point.Axes.acquisition with
    | Axes.Seqlock | Axes.Bytelock -> assert false (* rejected by [create] *)
    | Axes.Lazy -> Wlog.is_empty d.wset
    | Axes.Eager | Axes.Mixed -> Txdesc.is_read_only d
  in
  if ro then begin
    Readers.retract_all t.readers d;
    Hooks.commit_done ~heap:t.heap d
  end
  else begin
    (* Eager/Mixed waiters hold encounter-time locks, so the commit gate
       polls the kill flag (the irrevocable transaction can abort them
       out); a Lazy waiter holds nothing but polling is harmless. *)
    Hooks.enter_update_commit ~gate_check:(fun () -> check_kill t d) d;
    Hooks.inject_stretch d;
    (match t.point.Axes.acquisition with
    | Axes.Seqlock | Axes.Bytelock -> assert false (* rejected by [create] *)
    | Axes.Lazy ->
        Rset.iter
          (fun idx _ ->
            if Runtime.Tmatomic.get (w_lock t idx) <> d.tid + 1 then
              acquire_w t d idx)
          d.wstripes;
        Ivec.iter (fun idx -> ignore (freeze_stripe t d idx)) d.acq_stripes
    | Axes.Mixed ->
        Ivec.iter (fun idx -> ignore (freeze_stripe t d idx)) d.acq_stripes
    | Axes.Eager -> () (* frozen since encounter *));
    let ts = Runtime.Tmatomic.incr_get t.clock in
    (if
       t.point.Axes.visibility = Axes.Invisible
       && ts > d.valid_ts + 1
       && not (validate t d ~exact:(t.point.Axes.validation <> Axes.Commit_time))
     then rollback t d Tx_signal.Rw_validation);
    Vlock.write_back ~heap:t.heap d;
    Ivec.iter
      (fun idx ->
        Runtime.Tmatomic.set (r_lock t idx) (encode_version ts);
        Runtime.Tmatomic.set (w_lock t idx) 0)
      d.acq_stripes;
    Readers.retract_all t.readers d;
    Hooks.commit_done ~heap:t.heap d
  end

let start t (d : Txdesc.t) ~restart =
  Hooks.tx_begin d;
  d.core.cm.on_start d.info ~restart;
  d.valid_ts <- Runtime.Tmatomic.get t.clock;
  Hooks.phase_other d.tid

let engine ~cm ~granularity_words ~table_bits point heap : Engine.t =
  let t = create ~cm ~granularity_words ~table_bits point heap in
  Package.make ~heap
    ?cap:
      (if point.Axes.visibility = Axes.Visible then
         Some ("kernel-compose-visible", Readers.cap)
       else None)
    ~read:(read_word t) ~write:(write_word t)
    (Driver.ops ~release:(release t) ~start:(start t) ~commit:(commit t)
       ~rollback:(rollback t) t.core)

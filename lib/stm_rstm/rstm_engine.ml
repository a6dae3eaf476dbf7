(* RSTM-style engine (Marathe et al., TRANSACT 2006), the paper's
   design-space baseline.

   RSTM v3 is object-based and obstruction-free; what the paper exercises
   are its *policy* axes: eager vs lazy acquisition, visible vs invisible
   reads (the latter validated with a global commit-counter heuristic), and
   pluggable contention managers (Polka, Greedy, Serializer, timid).  This
   engine reproduces those axes over the shared word heap, treating each
   stripe as an "object" with an ownership record:

   - [owner]   : acquiring writer (0 = unowned) — eager mode CASes it at
                 first write, lazy mode at commit;
   - [version] : (counter value << 1) | busy-bit; busy while the committing
                 owner writes back;
   - [readers] : bitmask of visible readers — the shared [Kernel.Readers]
                 set, which also arbitrates owner conflicts; its 62-tid
                 cap is this engine's thread cap in both visibility
                 modes.

   Per-access overheads are deliberately RSTM-like and higher than the
   word-based engines': every access walks a three-word ownership record,
   acquisition pays an object-clone cost, invisible reads revalidate the
   whole read set whenever the global commit counter moved, and visible
   reads CAS a shared reader bitmap (cache-line ping-pong under the cost
   model).  These are the effects behind the paper's Lee-TM and red-black
   tree results for RSTM (Figures 4 and 5).

   Conflicts consult the contention manager on BOTH read/write and
   write/write encounters (eager conflict detection on both axes), unlike
   SwissTM's reader-transparent w-locks.

   In kernel axes this engine owns the {eager,lazy} x {visible,invisible}
   quadrant with counter-heuristic validation and redo versioning; the
   bookkeeping lives in [Kernel.Hooks] / [Kernel.Driver], the visible
   readers in [Kernel.Readers], and [engine] is one [Kernel.Package.make]
   call. *)

open Stm_intf
open Kernel

type acquire = Eager | Lazy
type visibility = Visible | Invisible

type t = {
  heap : Memory.Heap.t;
  stripe : Memory.Stripe.t;
  owners : Runtime.Tmatomic.t array;
  versions : Runtime.Tmatomic.t array;
  readers : Readers.t;
  counter : Runtime.Tmatomic.t;  (* global commit counter *)
  cm : Cm.Cm_intf.t;
  acquire : acquire;
  visibility : visibility;
  descs : Txdesc.t array;
  stats : Stats.t;
  eid : int;  (* observability engine id *)
  ser : Serial.t;  (* irrevocability token (escalation / explicit) *)
}

(* RSTM's label always names its manager: the paper sweeps RSTM's CMs. *)
let name ~acquire ~visibility cm =
  Printf.sprintf "rstm(%s,%s,%s)"
    (match acquire with Eager -> "eager" | Lazy -> "lazy")
    (match visibility with Visible -> "vis" | Invisible -> "inv")
    (Cm.Cm_intf.spec_name cm)

let busy lv = lv land 1 = 1
let version_of lv = lv lsr 1
let encode_version v = v lsl 1

let create ~acquire ~visibility ~cm ~granularity_words ~table_bits heap =
  let stripe = Memory.Stripe.create ~granularity_words ~table_bits () in
  let n = Memory.Stripe.table_size stripe in
  (* owner/version/readers form one RSTM object header: one cache line. *)
  let lines = Array.init n (fun _ -> Runtime.Tmatomic.fresh_line ()) in
  {
    heap;
    stripe;
    owners = Array.init n (fun i -> Runtime.Tmatomic.make_shared lines.(i) 0);
    versions = Array.init n (fun i -> Runtime.Tmatomic.make_shared lines.(i) 0);
    readers = Readers.create lines;
    counter = Runtime.Tmatomic.make 0;
    cm = Cm.Factory.make cm;
    acquire;
    visibility;
    descs = Driver.make_descs ();
    stats = Stats.create ();
    eid = Obs.Metrics.register_engine (name ~acquire ~visibility cm);
    ser = Serial.create ();
  }

let release_owned t (d : Txdesc.t) =
  Ivec.iter
    (fun idx ->
      (* A rollback can land mid-commit (remote kill noticed while
         validating), after the busy bits were set: clear them before
         releasing ownership or readers spin on the stripe forever. *)
      let v = t.versions.(idx) in
      let lv = Runtime.Tmatomic.unsafe_get v in
      if busy lv then Runtime.Tmatomic.set v (lv land lnot 1);
      Runtime.Tmatomic.set t.owners.(idx) 0)
    d.acq_stripes

let rollback t (d : Txdesc.t) reason =
  Hooks.phase_commit d.tid;
  release_owned t d;
  Readers.retract_all t.readers d;
  Hooks.rollback ~stats:t.stats ~cm:t.cm ~ser:t.ser d ~reason

let check_kill t d =
  if Hooks.kill_due ~ser:t.ser d then rollback t d Tx_signal.Killed

(* Spin until a stripe stops being busy (a committer is writing back). *)
let wait_unbusy t (d : Txdesc.t) idx =
  let v = t.versions.(idx) in
  let rec go lv =
    if busy lv then begin
      Stats.wait t.stats ~tid:d.tid;
      check_kill t d;
      Runtime.Exec.pause ();
      go (Runtime.Tmatomic.get v)
    end
    else lv
  in
  go (Runtime.Tmatomic.get v)

(* Invisible-mode read-set validation.

   A stripe frozen (busy) by another committer is a commit-time r/w
   conflict: blindly waiting would deadlock two committers validating
   against each other's frozen stripes, so the contention manager
   arbitrates — either we roll back, or the victim gets killed and notices
   in its own wait loops. *)
let validate t (d : Txdesc.t) =
  let prof_prev = Hooks.phase_enter_validate d.tid in
  let costs = Runtime.Costs.get () in
  let n = Rset.length d.rset in
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i < n do
    Runtime.Exec.tick costs.validate_entry;
    let idx = Rset.key d.rset !i in
    let logged = Rset.value d.rset !i in
    let rec settle () =
      let lv = Runtime.Tmatomic.get t.versions.(idx) in
      if not (busy lv) then lv
      else begin
        let ov = Runtime.Tmatomic.get t.owners.(idx) in
        if ov = d.tid + 1 then lv
        else begin
          check_kill t d;
          (if ov <> 0 then
             let victim = (t.descs.(ov - 1)).info in
             match Hooks.cm_resolve ~stats:t.stats ~ser:t.ser ~cm:t.cm d ~victim
             with
             | Cm.Cm_intf.Abort_self -> rollback t d Tx_signal.Rw_validation
             | Cm.Cm_intf.Wait | Cm.Cm_intf.Killed_victim -> ());
          Stats.wait t.stats ~tid:d.tid;
          Runtime.Exec.pause ();
          settle ()
        end
      end
    in
    let lv = settle () in
    if version_of lv <> logged then ok := false;
    incr i
  done;
  Hooks.phase_restore d.tid prof_prev;
  !ok

(* Commit-counter heuristic: revalidate the read set only when some update
   transaction committed since we last looked. *)
let maybe_validate t (d : Txdesc.t) =
  if t.visibility = Invisible then begin
    let cc = Runtime.Tmatomic.get t.counter in
    if cc <> d.valid_ts then begin
      if not (validate t d) then rollback t d Tx_signal.Rw_validation;
      d.valid_ts <- cc
    end
  end

(* Resolve a conflict against the owner of [idx]; returns when the stripe
   is no longer owned by that victim (or aborts/unwinds). *)
let rec contend t (d : Txdesc.t) idx ~reason =
  let ov = Runtime.Tmatomic.get t.owners.(idx) in
  if ov <> 0 && ov <> d.tid + 1 then begin
    Readers.cm_wait ~eid:t.eid ~stats:t.stats ~ser:t.ser ~cm:t.cm
      ~descs:t.descs ~rollback:(rollback t) d idx ~owner:ov ~reason;
    contend t d idx ~reason
  end

let read_word t (d : Txdesc.t) addr =
  let costs = Runtime.Costs.get () in
  Stats.read t.stats ~tid:d.tid;
  check_kill t d;
  let idx = Memory.Stripe.index t.stripe addr in
  if Runtime.Tmatomic.get t.owners.(idx) = d.tid + 1 then begin
    (* Our own acquired object: redo log, else stable memory. *)
    Runtime.Exec.tick costs.log_lookup;
    let s = Wlog.probe d.wset addr in
    if s >= 0 then Wlog.slot_value d.wset s
    else begin
      Runtime.Exec.tick costs.mem;
      Memory.Heap.unsafe_read t.heap addr
    end
  end
  else begin
    (* Lazy mode may have buffered a write without owning the object. *)
    let s =
      match t.acquire with
      | Lazy when not (Wlog.is_empty d.wset) ->
          Runtime.Exec.tick costs.log_lookup;
          Wlog.probe d.wset addr
      | _ -> -1
    in
    if s >= 0 then Wlog.slot_value d.wset s
    else begin
        (* Visible readers announce themselves FIRST: a writer acquiring the
           object afterwards is guaranteed to see the bit and drain us;
           writers that already drained are caught by the ownership check
           below.  Either side of the race is covered. *)
        if t.visibility = Visible then Readers.announce t.readers d idx;
        (* Eager conflict detection on the read/write axis: an owned object
           sends the reader to the contention manager. *)
        contend t d idx ~reason:Tx_signal.Rw_validation;
        let rec snapshot () =
          let lv = wait_unbusy t d idx in
          Runtime.Exec.tick costs.mem;
          let value = Memory.Heap.unsafe_read t.heap addr in
          let lv2 = Runtime.Tmatomic.get t.versions.(idx) in
          if lv2 <> lv then snapshot () else (version_of lv, value)
        in
        let version, value = snapshot () in
        d.info.accesses <- d.info.accesses + 1;
        (match t.visibility with
        | Invisible ->
            Runtime.Exec.tick costs.log_append;
            Rset.push d.rset idx version;
            maybe_validate t d
        | Visible -> ());
        value
    end
  end

(* Acquire ownership of [idx]; pays the RSTM object-clone cost. *)
let acquire_stripe t (d : Txdesc.t) idx =
  let costs = Runtime.Costs.get () in
  let o = t.owners.(idx) in
  let rec go () =
    contend t d idx ~reason:Tx_signal.Ww_conflict;
    if not (Runtime.Tmatomic.cas o ~expect:0 ~replace:(d.tid + 1)) then go ()
  in
  go ();
  Hooks.inject_stall d;
  Ivec.push d.acq_stripes idx;
  (* Clone the object into the speculative copy. *)
  Runtime.Exec.tick (costs.mem * Memory.Stripe.granularity_words t.stripe);
  if t.visibility = Visible then
    Readers.drain t.readers ~stats:t.stats ~ser:t.ser ~cm:t.cm ~descs:t.descs
      ~rollback:(rollback t) d idx;
  d.info.accesses <- d.info.accesses + 1;
  t.cm.on_write d.info ~writes:(Ivec.length d.acq_stripes)

let write_word t (d : Txdesc.t) addr value =
  let costs = Runtime.Costs.get () in
  Stats.write t.stats ~tid:d.tid;
  check_kill t d;
  let idx = Memory.Stripe.index t.stripe addr in
  (match t.acquire with
  | Eager ->
      if Runtime.Tmatomic.get t.owners.(idx) <> d.tid + 1 then
        acquire_stripe t d idx
  | Lazy -> ignore (Rset.add_unique d.wstripes idx 0 : bool));
  Runtime.Exec.tick costs.log_append;
  Wlog.replace d.wset addr value

let commit t (d : Txdesc.t) =
  Hooks.commit_entry d;
  check_kill t d;
  if Wlog.is_empty d.wset then begin
    (* Read-only commit: every read was validated by the counter heuristic;
       retract visible-reader bits and finish. *)
    Readers.retract_all t.readers d;
    Hooks.commit_done ~stats:t.stats ~cm:t.cm ~ser:t.ser ~heap:t.heap d
  end
  else begin
    (* Commit gate: while an irrevocable transaction runs, updates must not
       advance the commit counter.  The waiter may hold eagerly-acquired
       objects, so it polls its kill flag — the irrevocable transaction can
       abort it out of the wait. *)
    Hooks.enter_update_commit ~stats:t.stats ~cm:t.cm ~ser:t.ser
      ~gate_check:(fun () -> check_kill t d)
      d;
    Hooks.inject_stretch d;
    (* Lazy mode acquires its whole write set now. *)
    if t.acquire = Lazy then
      Rset.iter
        (fun idx _ ->
          if Runtime.Tmatomic.get t.owners.(idx) <> d.tid + 1 then
            acquire_stripe t d idx)
        d.wstripes;
    (* Freeze the acquired objects, publish the commit. *)
    Ivec.iter
      (fun idx ->
        let v = t.versions.(idx) in
        Runtime.Tmatomic.set v (Runtime.Tmatomic.get v lor 1))
      d.acq_stripes;
    let cc = Runtime.Tmatomic.incr_get t.counter in
    (if t.visibility = Invisible && not (validate t d) then begin
       (* Unfreeze with the old version, release, abort. *)
       Ivec.iter
         (fun idx ->
           let v = t.versions.(idx) in
           Runtime.Tmatomic.set v (Runtime.Tmatomic.get v land lnot 1))
         d.acq_stripes;
       rollback t d Tx_signal.Rw_validation
     end);
    let costs = Runtime.Costs.get () in
    Wlog.iter
      (fun addr value ->
        Runtime.Exec.tick costs.mem;
        Memory.Heap.unsafe_write t.heap addr value)
      d.wset;
    Ivec.iter
      (fun idx ->
        Runtime.Tmatomic.set t.versions.(idx) (encode_version cc);
        Runtime.Tmatomic.set t.owners.(idx) 0)
      d.acq_stripes;
    Readers.retract_all t.readers d;
    Hooks.commit_done ~stats:t.stats ~cm:t.cm ~ser:t.ser ~heap:t.heap d
  end

let start t (d : Txdesc.t) ~restart =
  Hooks.tx_begin ~eid:t.eid d;
  t.cm.on_start d.info ~restart;
  d.valid_ts <- Runtime.Tmatomic.get t.counter;
  Hooks.phase_other d.tid

let emergency_release t (d : Txdesc.t) =
  release_owned t d;
  Readers.retract_all t.readers d;
  Hooks.emergency ~cm:t.cm ~ser:t.ser d

(* Retry driver with graceful degradation: see [Kernel.Driver] for the
   escalation protocol.  RSTM's managers can kill, so the token holder
   runs with [cm_ts = 0] and wins every encounter.  The reader bitmap
   exists in both visibility modes, so both refuse tids past its cap. *)
let engine ~acquire ~visibility ~cm ~granularity_words ~table_bits heap :
    Engine.t =
  let t = create ~acquire ~visibility ~cm ~granularity_words ~table_bits heap in
  Package.make ~name:(name ~acquire ~visibility cm) ~heap ~stats:t.stats
    ~cap:("rstm", Readers.cap)
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

(* Versioned-lock machinery shared by the word-based engines (TL2,
   TinySTM, MVSTM and the composed kernel engine): one lock word per
   stripe, unlocked = version << 1, locked = ((owner + 1) << 1) | 1.

   Each helper reproduces, tick for tick, the code block it replaced;
   see the equivalence argument in DESIGN.md §10.  Read sets and lazy
   write-stripe sets live in [Rset] journals (insertion order), so every
   loop here indexes the journal directly — same iteration order as the
   PR-5 [Ivec] pairs they replaced. *)

open Stm_intf

let[@inline] unlocked_of_version v = v lsl 1
let[@inline] is_locked lv = lv land 1 = 1
let[@inline] version_of lv = lv lsr 1
let[@inline] locked_by tid = ((tid + 1) lsl 1) lor 1

(* The lock table: one single-cell line per stripe, built on the
   stripe's first access.  (MVSTM's lines carry two more cells after
   the lock.) *)
let create_locks stripe =
  Runtime.Line_table.create (Memory.Stripe.table_size stripe)
    ~init:[| unlocked_of_version 0 |]

(* The lock of stripe [idx]: cell 0 of its line. *)
let[@inline] lock locks idx = Runtime.Line_table.cell locks idx 0

(* GV4 clock bump: try to CAS the sampled value forward; on failure
   another committer already advanced the clock and its value can be
   reused, saving a second RMW on the hot line.  Returns the commit
   version and whether the read set provably cannot have been
   invalidated: that is the case exactly when OUR CAS advanced the clock
   from OUR start value [rv] (so no update transaction committed in
   between).  A reused value equal to rv+1 gives no such guarantee —
   some other transaction committed with it. *)
let gv4_bump ~clock ~rv =
  let cur = Runtime.Tmatomic.get clock in
  if Runtime.Tmatomic.cas clock ~expect:cur ~replace:(cur + 1) then
    (cur + 1, cur = rv)
  else (Runtime.Tmatomic.get clock, false)

(* Restore saved lock values over the first [upto] entries of [stripes]
   (encounter-time abort path: [acq_stripes]/[acq_saved]). *)
let release_restoring ~locks stripes saved ~upto =
  for i = 0 to upto - 1 do
    Runtime.Tmatomic.set
      (lock locks (Ivec.unsafe_get stripes i))
      (Ivec.unsafe_get saved i)
  done

(* Same, over a lazy write-stripe journal (commit-time acquisition
   backout: [wstripes]/[acq_saved]). *)
let release_wstripes ~locks wstripes saved ~upto =
  for i = 0 to upto - 1 do
    Runtime.Tmatomic.set (lock locks (Rset.key wstripes i)) (Ivec.unsafe_get saved i)
  done

(* Lazy commit-time acquisition (TL2/MVSTM): lock every written stripe,
   saving the old lock values and acquisition versions; any conflict is
   a timid abort.  On conflict the stripes acquired so far are restored
   and the CONFLICTING stripe index is returned (the caller emits the
   conflict metric and rolls back); -1 on success. *)
let acquire_wstripes ~locks (d : Txdesc.t) =
  let n = Rset.length d.wstripes in
  let i = ref 0 in
  let conflict = ref (-1) in
  (try
     while !i < n do
       let idx = Rset.key d.wstripes !i in
       let l = lock locks idx in
       let lv = Runtime.Tmatomic.get l in
       if is_locked lv then raise Exit
       else if
         not (Runtime.Tmatomic.cas l ~expect:lv ~replace:(locked_by d.tid))
       then raise Exit
       else begin
         Hooks.inject_stall d;
         Ivec.push d.acq_saved lv;
         Wlog.replace d.acq_version idx (version_of lv);
         incr i
       end
     done
   with Exit ->
     (* [!i] indexes the stripe whose lock we lost — the conflict site. *)
     conflict := Rset.key d.wstripes !i;
     release_wstripes ~locks d.wstripes d.acq_saved ~upto:!i);
  !conflict

(* TL2/MVSTM commit-time validation against the snapshot [d.valid_ts]:
   a read stripe is valid while its version has not passed the snapshot;
   a stripe we commit-locked ourselves validates against the version at
   acquisition.  Enters the validate profiler phase; restores the commit
   phase on success (on failure the caller rolls back, which sets it). *)
let validate_rv ~locks (d : Txdesc.t) =
  if !Runtime.Exec.prof_on then
    Runtime.Exec.set_phase d.tid Runtime.Exec.ph_validate;
  let costs = Runtime.Costs.get () in
  let ok = ref true in
  let j = ref 0 in
  let nr = Rset.length d.rset in
  while !ok && !j < nr do
    Runtime.Exec.tick costs.validate_entry;
    let idx = Rset.key d.rset !j in
    let lv = Runtime.Tmatomic.get (lock locks idx) in
    (if is_locked lv then begin
       if lv <> locked_by d.tid then ok := false
       else begin
         let s = Wlog.probe d.acq_version idx in
         if s < 0 || Wlog.slot_value d.acq_version s > d.valid_ts then
           ok := false
       end
     end
     else if version_of lv > d.valid_ts then ok := false);
    incr j
  done;
  if !ok && !Runtime.Exec.prof_on then
    Runtime.Exec.set_phase d.tid Runtime.Exec.ph_commit;
  !ok

(* TinySTM-style exact validation: every read-journal pair must still
   carry the version observed at read time; a stripe we own
   encounter-time validates against the version at acquisition.
   Attribute the cycles to the validate phase, restoring whichever phase
   (read, write or commit) triggered it. *)
let validate_exact ~locks (d : Txdesc.t) =
  let prof_prev = Hooks.phase_enter_validate d.tid in
  let costs = Runtime.Costs.get () in
  let n = Rset.length d.rset in
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i < n do
    Runtime.Exec.tick costs.validate_entry;
    let idx = Rset.key d.rset !i in
    let logged = Rset.value d.rset !i in
    let lv = Runtime.Tmatomic.get (lock locks idx) in
    (if is_locked lv then begin
       if lv <> locked_by d.tid then ok := false
       else begin
         (* We own this stripe: the read is valid only if the version we
            logged is the one the stripe still had when we acquired it. *)
         let s = Wlog.probe d.acq_version idx in
         if s < 0 || Wlog.slot_value d.acq_version s <> logged then
           ok := false
       end
     end
     else if version_of lv <> logged then ok := false);
    incr i
  done;
  Hooks.phase_restore d.tid prof_prev;
  !ok

(* LSA-style snapshot extension over [validate_exact]. *)
let extend_exact ~locks ~clock (d : Txdesc.t) =
  let ts = Runtime.Tmatomic.get clock in
  if validate_exact ~locks d then begin
    d.valid_ts <- ts;
    true
  end
  else false

(* Redo-log write-back (stripe locks held). *)
let write_back ~heap (d : Txdesc.t) =
  let costs = Runtime.Costs.get () in
  Wlog.iter
    (fun addr value ->
      Runtime.Exec.tick costs.mem;
      Memory.Heap.unsafe_write heap addr value)
    d.wset

(* Publish [version] over every stripe in [stripes], releasing the
   locks. *)
let publish ~locks stripes ~version =
  Ivec.iter
    (fun idx -> Runtime.Tmatomic.set (lock locks idx) (unlocked_of_version version))
    stripes

(* Same, over a lazy write-stripe journal. *)
let publish_wstripes ~locks wstripes ~version =
  let v = unlocked_of_version version in
  for i = 0 to Rset.length wstripes - 1 do
    Runtime.Tmatomic.set (lock locks (Rset.key wstripes i)) v
  done

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
   same argument as the composed engine's Visible mode, with the
   bitmap's tid < 62 limit inherited. *)

open Stm_intf

type config = {
  cm : Cm.Cm_intf.spec;
  granularity_words : int;
  table_bits : int;
  seed : int;
}

let default_config =
  {
    cm = Cm.Cm_intf.Polka;
    granularity_words = 4;
    table_bits = 18;
    seed = 0xC0FFEE;
  }

type t = {
  heap : Memory.Heap.t;
  stripe : Memory.Stripe.t;
  owners : Runtime.Tmatomic.t array;
  readers : Runtime.Tmatomic.t array;
  cm : Cm.Cm_intf.t;
  descs : Txdesc.t array;
  stats : Stats.t;
  eid : int;
  ser : Serial.t;
}

let name = "tlrw"

let create ?(config = default_config) heap =
  let stripe =
    Memory.Stripe.create ~granularity_words:config.granularity_words
      ~table_bits:config.table_bits ()
  in
  let n = Memory.Stripe.table_size stripe in
  let lines = Array.init n (fun _ -> Runtime.Tmatomic.fresh_line ()) in
  {
    heap;
    stripe;
    owners = Array.init n (fun i -> Runtime.Tmatomic.make_shared lines.(i) 0);
    readers = Array.init n (fun i -> Runtime.Tmatomic.make_shared lines.(i) 0);
    cm = Cm.Factory.make config.cm;
    descs = Driver.make_descs ~seed:config.seed ();
    stats = Stats.create ();
    eid = Obs.Metrics.register_engine name;
    ser = Serial.create ();
  }

(* --- rollback ---------------------------------------------------------- *)

let retract_visible t (d : Txdesc.t) =
  Rset.iter
    (fun idx _ ->
      let r = t.readers.(idx) in
      let bit = 1 lsl d.tid in
      let rec clear () =
        let cur = Runtime.Tmatomic.get r in
        if cur land bit <> 0 then
          if
            not (Runtime.Tmatomic.cas r ~expect:cur ~replace:(cur land lnot bit))
          then clear ()
      in
      clear ())
    d.vreads

let release_owners t (d : Txdesc.t) =
  Ivec.iter (fun idx -> Runtime.Tmatomic.set t.owners.(idx) 0) d.acq_stripes

let rollback t (d : Txdesc.t) reason =
  Hooks.phase_commit d.tid;
  release_owners t d;
  retract_visible t d;
  Hooks.rollback ~stats:t.stats ~cm:t.cm ~ser:t.ser d ~reason

let check_kill t d =
  if Hooks.kill_due ~ser:t.ser d then rollback t d Tx_signal.Killed

(* CM-arbitrated wait on the owner of [idx]. *)
let cm_wait t (d : Txdesc.t) idx ~owner ~reason =
  check_kill t d;
  Hooks.stripe_conflict ~eid:t.eid ~stripe:idx;
  let victim = (t.descs.(owner - 1)).info in
  match Hooks.cm_resolve ~stats:t.stats ~ser:t.ser ~cm:t.cm d ~victim with
  | Cm.Cm_intf.Abort_self -> rollback t d reason
  | Cm.Cm_intf.Wait | Cm.Cm_intf.Killed_victim ->
      Stats.wait t.stats ~tid:d.tid;
      Runtime.Exec.pause ()

(* Abort or wait out every reader slot of [idx] other than our own. *)
let drain_readers t (d : Txdesc.t) idx =
  let r = t.readers.(idx) in
  let mine = 1 lsl d.tid in
  let rec go () =
    let cur = Runtime.Tmatomic.get r in
    let others = cur land lnot mine in
    if others <> 0 then begin
      check_kill t d;
      let victim_tid =
        let b = others land -others in
        let rec log2 n acc = if n = 1 then acc else log2 (n lsr 1) (acc + 1) in
        log2 b 0
      in
      let victim = (t.descs.(victim_tid)).info in
      (match Hooks.cm_resolve ~stats:t.stats ~ser:t.ser ~cm:t.cm d ~victim with
      | Cm.Cm_intf.Abort_self -> rollback t d Tx_signal.Rw_validation
      | Cm.Cm_intf.Wait | Cm.Cm_intf.Killed_victim ->
          Stats.wait t.stats ~tid:d.tid;
          Runtime.Exec.pause ());
      go ()
    end
  in
  go ()

(* --- read -------------------------------------------------------------- *)

let rec read_slot t (d : Txdesc.t) idx addr (costs : Runtime.Costs.t) =
  (* Announce BEFORE the owner check: a writer acquiring afterwards must
     drain our slot before write-back; one that acquired before is caught
     by the ownership check below. *)
  if not (Rset.mem d.vreads idx) then begin
    let r = t.readers.(idx) in
    let bit = 1 lsl d.tid in
    let rec announce () =
      let cur = Runtime.Tmatomic.get r in
      if cur land bit = 0 then
        if not (Runtime.Tmatomic.cas r ~expect:cur ~replace:(cur lor bit)) then
          announce ()
    in
    announce ();
    ignore (Rset.add_unique d.vreads idx 0 : bool)
  end;
  let wv = Runtime.Tmatomic.get t.owners.(idx) in
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
  Stats.read t.stats ~tid:d.tid;
  check_kill t d;
  let idx = Memory.Stripe.index t.stripe addr in
  if Runtime.Tmatomic.get t.owners.(idx) = d.tid + 1 then begin
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
  Stats.write t.stats ~tid:d.tid;
  check_kill t d;
  let idx = Memory.Stripe.index t.stripe addr in
  if Runtime.Tmatomic.get t.owners.(idx) <> d.tid + 1 then begin
    let w = t.owners.(idx) in
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
    t.cm.on_write d.info ~writes:(Ivec.length d.acq_stripes);
    (* Encounter-time drain: once we own the stripe and the slots are
       empty, no reader can observe it again until we release (they
       arbitrate against the owner word instead). *)
    drain_readers t d idx;
    d.info.accesses <- d.info.accesses + 1
  end;
  Runtime.Exec.tick costs.log_append;
  Wlog.replace d.wset addr value

(* --- commit ------------------------------------------------------------ *)

let commit t (d : Txdesc.t) =
  Hooks.commit_entry d;
  check_kill t d;
  if Txdesc.is_read_only d then begin
    retract_visible t d;
    Hooks.commit_done ~stats:t.stats ~cm:t.cm ~ser:t.ser ~heap:t.heap d
  end
  else begin
    (* Waiters hold reader slots and owner words, so the commit gate
       polls the kill flag (the irrevocable transaction aborts them out). *)
    Hooks.enter_update_commit ~stats:t.stats ~cm:t.cm ~ser:t.ser
      ~gate_check:(fun () -> check_kill t d)
      d;
    Hooks.inject_stretch d;
    Vlock.write_back ~heap:t.heap d;
    release_owners t d;
    retract_visible t d;
    Hooks.commit_done ~stats:t.stats ~cm:t.cm ~ser:t.ser ~heap:t.heap d
  end

let start t (d : Txdesc.t) ~restart =
  Hooks.tx_begin ~eid:t.eid d;
  t.cm.on_start d.info ~restart;
  Hooks.phase_other d.tid

let emergency_release t (d : Txdesc.t) =
  release_owners t d;
  retract_visible t d;
  Hooks.emergency ~cm:t.cm ~ser:t.ser d

let driver_ops t : Driver.ops =
  {
    Driver.ser = t.ser;
    cm = t.cm;
    descs = t.descs;
    start = (fun d ~restart -> start t d ~restart);
    commit = (fun d -> commit t d);
    emergency = (fun d -> emergency_release t d);
    user_abort = (fun d -> rollback t d Tx_signal.Killed);
  }

let check_tid tid = Engine.check_tid_limit ~engine:name ~limit:62 tid

let engine ?config heap : Engine.t =
  let t = create ?config heap in
  let dops = driver_ops t in
  let ops =
    Package.ops_array ~heap ~descs:t.descs ~read:(read_word t)
      ~write:(write_word t) ~free:Txdesc.buffer_free
  in
  Package.make ~name ~heap ~stats:t.stats ~ops
    ~runner:
      {
        Package.run =
          (fun ~tid ~irrevocable f ->
            check_tid tid;
            Driver.run dops ~tid ~irrevocable f);
      }

(* Single-global-lock "STM": every atomic block serialises on one test-and-
   test-and-set lock and accesses the heap directly.

   Not part of the paper's comparison, but the canonical sanity baseline:
   it bounds what serial execution achieves (no aborts, no logging, but no
   parallelism either), is useful in tests as a trivially correct reference,
   and illustrates in examples what TM buys over coarse locking.  A
   thread's counters, nesting depth and op table live in its descriptor
   ([Kernel.Driver.make_descs]); glock uses no other descriptor field. *)

open Stm_intf

type t = {
  heap : Memory.Heap.t;
  lock : Runtime.Tmatomic.t;
  descs : Kernel.Txdesc.t array;
  eid : int;  (* observability engine id *)
}

let name = "glock"

let create heap =
  {
    heap;
    lock = Runtime.Tmatomic.make 0;
    descs = Kernel.Driver.make_descs ();
    eid = Obs.Metrics.register_engine name;
  }

let acquire t (d : Kernel.Txdesc.t) =
  let tid = d.tid in
  let rec go () =
    (* test-and-test-and-set: spin on the read before retrying the CAS *)
    if Runtime.Tmatomic.get t.lock <> 0 then begin
      Stats.wait d.counters;
      Runtime.Exec.pause ();
      go ()
    end
    else if not (Runtime.Tmatomic.cas t.lock ~expect:0 ~replace:(tid + 1)) then go ()
  in
  go ()

let release t = Runtime.Tmatomic.set t.lock 0

let engine heap : Engine.t =
  let t = create heap in
  let costs () = Runtime.Costs.get () in
  let capacity = Memory.Heap.capacity heap in
  let build (d : Kernel.Txdesc.t) =
    let tid = d.tid in
    {
      Engine.read =
        (fun addr ->
          if addr < 0 || addr >= capacity then
            Memory.Heap.out_of_bounds heap addr;
          Stats.read d.counters;
          (* One combined check on the everything-off fast path; the
             individual collector flags are only consulted behind it. *)
          if !Runtime.Exec.hooks_on then begin
            if !Runtime.Exec.prof_on then
              Runtime.Exec.set_phase tid Runtime.Exec.ph_read;
            Runtime.Exec.tick (costs ()).mem;
            let v = Memory.Heap.unsafe_read t.heap addr in
            if !Runtime.Exec.prof_on then
              Runtime.Exec.set_phase tid Runtime.Exec.ph_other;
            if !Trace.enabled then Trace.on_read ~tid ~addr ~value:v;
            v
          end
          else begin
            Runtime.Exec.tick (costs ()).mem;
            Memory.Heap.unsafe_read t.heap addr
          end);
      write =
        (fun addr v ->
          if addr < 0 || addr >= capacity then
            Memory.Heap.out_of_bounds heap addr;
          Stats.write d.counters;
          if !Runtime.Exec.hooks_on then begin
            if !Runtime.Exec.prof_on then
              Runtime.Exec.set_phase tid Runtime.Exec.ph_write;
            Runtime.Exec.tick (costs ()).mem;
            Memory.Heap.unsafe_write t.heap addr v;
            if !Runtime.Exec.prof_on then
              Runtime.Exec.set_phase tid Runtime.Exec.ph_other;
            if !Trace.enabled then Trace.on_write ~tid ~addr ~value:v
          end
          else begin
            Runtime.Exec.tick (costs ()).mem;
            Memory.Heap.unsafe_write t.heap addr v
          end);
      alloc = (fun n -> Memory.Heap.alloc heap n);
      (* Direct execution under the global lock: like its writes, glock's
         frees take effect immediately (its only abort is injected before
         the body runs, so there is never anything to roll back). *)
      free = (fun addr n -> Memory.Heap.free heap addr n);
    }
  in
  let ops (d : Kernel.Txdesc.t) =
    if d.ops == Kernel.Txdesc.unbuilt_ops then d.ops <- build d;
    d.ops
  in
  let rec run ~tid f =
    Engine.check_tid_limit ~engine:name ~limit:Stats.max_threads tid;
    let d = Kernel.Driver.desc t.descs tid in
    if d.depth > 0 then begin
      d.depth <- d.depth + 1;
      Fun.protect ~finally:(fun () -> d.depth <- d.depth - 1)
        (fun () -> f (ops d))
    end
    else begin
      (* Begin recorded before the lock (= snapshot) is taken. *)
      if !Trace.enabled then Trace.on_begin ~tid;
      if !Runtime.Exec.prof_on then
        Runtime.Exec.set_phase tid Runtime.Exec.ph_commit;
      if !Obs.Metrics.on then Obs.Metrics.on_tx_begin ~eid:t.eid ~tid;
      Runtime.Exec.tick (costs ()).tx_begin;
      acquire t d;
      if !Runtime.Inject.on then Runtime.Inject.stall ~tid;
      (* A spurious abort models losing the CPU to a fault just after
         acquisition: nothing was executed or written yet (glock has no
         speculation), so recovery is release-and-retry from scratch. *)
      if !Runtime.Inject.on && Runtime.Inject.spurious_abort ~tid then begin
        release t;
        Runtime.Exec.tick (costs ()).tx_end;
        if !Trace.enabled then Trace.on_abort ~tid ~reason:Tx_signal.Killed;
        Stats.abort d.counters Tx_signal.Killed;
        if !Obs.Metrics.on then
          Obs.Metrics.on_tx_abort ~tid ~reason:Tx_signal.Killed;
        if !Runtime.Exec.prof_on then
          Runtime.Exec.set_phase tid Runtime.Exec.ph_other;
        run ~tid f
      end
      else begin
        if !Runtime.Exec.prof_on then
          Runtime.Exec.set_phase tid Runtime.Exec.ph_other;
        d.depth <- 1;
        match
          Fun.protect
            ~finally:(fun () ->
              d.depth <- 0;
              if !Runtime.Exec.prof_on then
                Runtime.Exec.set_phase tid Runtime.Exec.ph_commit;
              (* Stretch lands inside the critical section, where it delays
                 every waiter on the global lock. *)
              if !Runtime.Inject.on then Runtime.Inject.stretch ~tid;
              release t;
              Runtime.Exec.tick (costs ()).tx_end;
              if !Runtime.Exec.prof_on then
                Runtime.Exec.set_phase tid Runtime.Exec.ph_other)
            (fun () ->
              let v = f (ops d) in
              if !Trace.enabled then Trace.on_commit ~tid;
              Stats.commit d.counters;
              if !Obs.Metrics.on then Obs.Metrics.on_tx_commit ~tid;
              v)
        with
        | v -> v
        | exception Tx_signal.Retry ->
            (* Body-raised abort request; the protector already released
               the lock, so record the abort and re-run from scratch. *)
            if !Trace.enabled then Trace.on_abort ~tid ~reason:Tx_signal.Killed;
            Stats.abort d.counters Tx_signal.Killed;
            if !Obs.Metrics.on then
              Obs.Metrics.on_tx_abort ~tid ~reason:Tx_signal.Killed;
            run ~tid f
      end
    end
  in
  {
    Engine.name;
    heap;
    atomic = (fun ~tid f -> run ~tid f);
    (* Holding the global lock already is irrevocable, single execution. *)
    atomic_irrevocable = (fun ~tid f -> run ~tid f);
    stats = (fun () -> Kernel.Driver.snapshot t.descs);
    reset_stats = (fun () -> Kernel.Driver.reset t.descs);
  }

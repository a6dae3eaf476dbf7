(* Packaging a policy core as a uniform [Engine.t]: the one call every
   engine ends with.  An engine hands over its [Driver.ops] (its core and
   its policy entry points), its full-arity [read]/[write], and — if its
   metadata packs per-thread state into machine words — a thread cap
   [(label, limit)], by default [(core.name, Stats.max_threads)]; a tid
   outside [0, limit) raises [Engine.Unsupported_thread_count] with that
   label.  The engine's name and statistics are its core's.

   [read] and [write] are called only on addresses inside the heap: the
   wrappers check [0 <= addr < capacity] once, so an engine's unchecked
   heap accesses (and its stripe index arithmetic) never see a bad
   address.

   Each descriptor carries its thread's [tx_ops], built on that thread's
   first transaction ([Txdesc.unbuilt_ops] until then), so the
   per-transaction fast path allocates no closures; each op keeps one
   combined [hooks_on] check on the everything-off fast path, with the
   individual collector flags only consulted behind it. *)

open Stm_intf

let make ~heap ?cap ~(read : Txdesc.t -> int -> int)
    ~(write : Txdesc.t -> int -> int -> unit) (o : Driver.ops) : Engine.t =
  let name = o.core.name in
  let capacity = Memory.Heap.capacity heap in
  let build (d : Txdesc.t) =
    let tid = d.tid in
    {
      Engine.read =
        (fun addr ->
          if addr < 0 || addr >= capacity then
            Memory.Heap.out_of_bounds heap addr;
          if !Runtime.Exec.hooks_on then begin
            if !Runtime.Exec.prof_on then
              Runtime.Exec.set_phase tid Runtime.Exec.ph_read;
            let v = read d addr in
            if !Runtime.Exec.prof_on then
              Runtime.Exec.set_phase tid Runtime.Exec.ph_other;
            if !Trace.enabled then Trace.on_read ~tid ~addr ~value:v;
            v
          end
          else read d addr);
      write =
        (fun addr v ->
          if addr < 0 || addr >= capacity then
            Memory.Heap.out_of_bounds heap addr;
          if !Runtime.Exec.hooks_on then begin
            if !Runtime.Exec.prof_on then
              Runtime.Exec.set_phase tid Runtime.Exec.ph_write;
            write d addr v;
            if !Runtime.Exec.prof_on then
              Runtime.Exec.set_phase tid Runtime.Exec.ph_other;
            if !Trace.enabled then Trace.on_write ~tid ~addr ~value:v
          end
          else write d addr v);
      alloc = (fun n -> Memory.Heap.alloc heap n);
      free =
        (fun addr n ->
          Memory.Heap.check_free heap addr n;
          Txdesc.buffer_free d addr n);
    }
  in
  let ops_of (d : Txdesc.t) =
    if d.ops == Txdesc.unbuilt_ops then d.ops <- build d;
    d.ops
  in
  let engine, limit = Option.value cap ~default:(name, Stats.max_threads) in
  {
    Engine.name;
    heap;
    atomic =
      (fun ~tid f ->
        Engine.check_tid_limit ~engine ~limit tid;
        Driver.run_view o ~tid ~irrevocable:false ops_of f);
    atomic_irrevocable =
      (fun ~tid f ->
        Engine.check_tid_limit ~engine ~limit tid;
        Driver.run_view o ~tid ~irrevocable:true ops_of f);
    stats = (fun () -> Driver.snapshot o.core);
    reset_stats = (fun () -> Driver.reset o.core);
  }

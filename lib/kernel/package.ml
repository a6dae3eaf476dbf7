(* Packaging a policy core as a uniform [Engine.t]: the one call every
   engine ends with.  An engine hands over its [Driver.ops] (retry driver
   entry points), its full-arity [read]/[write], and — if its metadata
   packs per-thread state into machine words — a thread cap
   [(label, limit)]; tids at or beyond the limit raise
   [Engine.Unsupported_thread_count] with that label.

   The ops array holds one [tx_ops] per descriptor, built up front, so the
   per-transaction fast path allocates no closures; each op keeps one
   combined [hooks_on] check on the everything-off fast path, with the
   individual collector flags only consulted behind it. *)

open Stm_intf

let make ~name ~heap ~stats ?cap (o : Driver.ops)
    ~(read : Txdesc.t -> int -> int) ~(write : Txdesc.t -> int -> int -> unit)
    : Engine.t =
  let ops =
    Array.init Stats.max_threads (fun tid ->
        let d = o.descs.(tid) in
        {
          Engine.read =
            (fun addr ->
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
          free = (fun addr n -> Txdesc.buffer_free d addr n);
        })
  in
  let check_tid tid =
    match cap with
    | Some (engine, limit) -> Engine.check_tid_limit ~engine ~limit tid
    | None -> ()
  in
  {
    Engine.name;
    heap;
    atomic =
      (fun ~tid f ->
        check_tid tid;
        Driver.run o ~tid ~irrevocable:false (fun _ -> f ops.(tid)));
    atomic_irrevocable =
      (fun ~tid f ->
        check_tid tid;
        Driver.run o ~tid ~irrevocable:true (fun _ -> f ops.(tid)));
    stats = (fun () -> Stats.snapshot stats);
    reset_stats = (fun () -> Stats.reset stats);
  }

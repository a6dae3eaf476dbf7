(* Packaging a policy core as a uniform [Engine.t].

   [ops_array] builds one [tx_ops] per descriptor up front, so the
   per-transaction fast path allocates no closures; each op keeps one
   combined [hooks_on] check on the everything-off fast path, with the
   individual collector flags only consulted behind it.  Every engine
   packages itself through here. *)

open Stm_intf

let ops_array ~heap ~(descs : 'd array) ~(read : 'd -> int -> int)
    ~(write : 'd -> int -> int -> unit) ~(free : 'd -> int -> int -> unit) =
  Array.init Stats.max_threads (fun tid ->
      let d = descs.(tid) in
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
        free = (fun addr n -> free d addr n);
      })

(* [Engine.t]'s atomic fields are polymorphic, so the runner must come
   wrapped in a record to stay polymorphic through the call. *)
type 'd runner = { run : 'a. tid:int -> irrevocable:bool -> ('d -> 'a) -> 'a }

let make ~name ~heap ~stats ~ops ~(runner : 'd runner) : Engine.t =
  {
    Engine.name;
    heap;
    atomic =
      (fun ~tid f -> runner.run ~tid ~irrevocable:false (fun _ -> f ops.(tid)));
    atomic_irrevocable =
      (fun ~tid f -> runner.run ~tid ~irrevocable:true (fun _ -> f ops.(tid)));
    stats = (fun () -> Stats.snapshot stats);
    reset_stats = (fun () -> Stats.reset stats);
  }

(* Concurrent ordered set backed by the transactional red-black tree.

   Compares the same workload under SwissTM and under a single global lock
   (the coarse-locking strawman the paper's TM pitch replaces), printing
   simulated throughput for both — the TM run scales with threads, the
   global lock cannot.

     dune exec examples/concurrent_set.exe *)

let range = 8_192
let ops_per_thread = 4_000

let run spec threads =
  let heap = Memory.Heap.create ~words:(1 lsl 21) in
  let tree = Rbtree.Tx_rbtree.create heap in
  let engine = Engines.make spec heap in
  (* Pre-fill to 50 %. *)
  let rng0 = Runtime.Rng.create 3 in
  for _ = 1 to range / 2 do
    let k = Runtime.Rng.int rng0 range in
    ignore
      (Stm_intf.Engine.atomic engine ~tid:0 (fun tx ->
           Rbtree.Tx_rbtree.insert tree tx k k)
        : bool)
  done;
  Stm_intf.Engine.reset_stats engine;
  let body tid =
    let rng = Runtime.Rng.for_thread ~seed:11 ~tid in
    for _ = 1 to ops_per_thread do
      let k = Runtime.Rng.int rng range in
      let dice = Runtime.Rng.int rng 10 in
      if dice < 1 then
        ignore
          (Stm_intf.Engine.atomic engine ~tid (fun tx ->
               Rbtree.Tx_rbtree.insert tree tx k k)
            : bool)
      else if dice < 2 then
        ignore
          (Stm_intf.Engine.atomic engine ~tid (fun tx ->
               Rbtree.Tx_rbtree.remove tree tx k)
            : bool)
      else
        ignore
          (Stm_intf.Engine.atomic engine ~tid (fun tx ->
               Rbtree.Tx_rbtree.mem tree tx k)
            : bool)
    done
  in
  let makespan = Runtime.Sim.run_threads ~threads body in
  (match Rbtree.Tx_rbtree.check tree heap with
  | Ok _ -> ()
  | Error _ -> failwith "red-black invariants violated");
  let ops = threads * ops_per_thread in
  float_of_int ops /. Runtime.Costs.seconds_of_cycles makespan

let () =
  Printf.printf "%8s  %14s  %14s\n" "threads" "swisstm [op/s]" "glock [op/s]";
  List.iter
    (fun threads ->
      let tm = run Engines.swisstm threads in
      let gl = run Engines.glock threads in
      Printf.printf "%8d  %14.0f  %14.0f\n%!" threads tm gl)
    [ 1; 2; 4; 8 ];
  print_endline "OK (red-black invariants verified after every run)"

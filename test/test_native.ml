(* Native-mode stress: the same engine code on real [Domain]s.

   The container may expose a single core, but preemptive time slicing
   still produces genuine racy interleavings at memory-model granularity,
   which the cooperative simulator cannot; these tests are the safety net
   for real multicore users of the library. *)

let check = Alcotest.check

let engines =
  [
    ("swisstm", Engines.swisstm);
    ("tl2", Engines.tl2);
    ("tinystm", Engines.tinystm);
    ("rstm", Engines.rstm);
    ("glock", Engines.glock);
  ]

let native_bank (name, spec) () =
  let accounts = 32 in
  let iters = 1_500 in
  let threads = 4 in
  let heap = Memory.Heap.create ~words:(1 lsl 16) in
  let base = Memory.Heap.alloc heap accounts in
  for i = 0 to accounts - 1 do
    Memory.Heap.write heap (base + i) 100
  done;
  let engine = Engines.make spec heap in
  let domains =
    Array.init threads (fun tid ->
        Domain.spawn (fun () ->
            Runtime.Exec.set_native_tid tid;
            let rng = Runtime.Rng.for_thread ~seed:31 ~tid in
            for _ = 1 to iters do
              let a = Runtime.Rng.int rng accounts in
              let b = (a + 1 + Runtime.Rng.int rng (accounts - 1)) mod accounts in
              Stm_intf.Engine.atomic engine ~tid (fun tx ->
                  let va = tx.read (base + a) in
                  let vb = tx.read (base + b) in
                  tx.write (base + a) (va - 1);
                  tx.write (base + b) (vb + 1))
            done))
  in
  Array.iter Domain.join domains;
  let sum = ref 0 in
  for i = 0 to accounts - 1 do
    sum := !sum + Memory.Heap.read heap (base + i)
  done;
  check Alcotest.int
    (Printf.sprintf "money conserved natively under %s" name)
    (accounts * 100) !sum;
  check Alcotest.int "all committed" (threads * iters)
    (Stm_intf.Engine.stats engine).s_commits

let native_rbtree () =
  let heap = Memory.Heap.create ~words:(1 lsl 21) in
  let tree = Rbtree.Tx_rbtree.create heap in
  let engine = Engines.make Engines.swisstm heap in
  let domains =
    Array.init 4 (fun tid ->
        Domain.spawn (fun () ->
            Runtime.Exec.set_native_tid tid;
            let rng = Runtime.Rng.for_thread ~seed:77 ~tid in
            for _ = 1 to 800 do
              let k = Runtime.Rng.int rng 128 in
              if Runtime.Rng.chance rng 0.5 then
                ignore
                  (Stm_intf.Engine.atomic engine ~tid (fun tx ->
                       Rbtree.Tx_rbtree.insert tree tx k k)
                    : bool)
              else
                ignore
                  (Stm_intf.Engine.atomic engine ~tid (fun tx ->
                       Rbtree.Tx_rbtree.remove tree tx k)
                    : bool)
            done))
  in
  Array.iter Domain.join domains;
  match Rbtree.Tx_rbtree.check tree heap with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "red-black invariants broken natively"

let native_escalation_terminates () =
  (* Real domains under the abort storm: adaptive throttling plus
     irrevocable escalation must keep every thread terminating (no
     domain wedged behind the serial token or the throttle), with the
     escalation bound holding on real hardware, not just in the
     simulator.  Occasional irrevocable calls exercise the token under
     preemption. *)
  let threads = 4 in
  let iters = 400 in
  let heap = Memory.Heap.create ~words:(1 lsl 14) in
  let base = Memory.Heap.alloc heap 16 in
  let engine =
    Engines.make (Engines.with_cm Cm.Cm_intf.default_adaptive Engines.swisstm)
      heap
  in
  let r =
    Harness.Workload.with_faults ~seed:23
      ~profile:Runtime.Inject.abort_storm (fun () ->
        let counters = Array.make threads 0 in
        let domains =
          Array.init threads (fun tid ->
              Domain.spawn (fun () ->
                  Runtime.Exec.set_native_tid tid;
                  let rng = Runtime.Rng.for_thread ~seed:19 ~tid in
                  for i = 1 to iters do
                    let a = base + Runtime.Rng.int rng 16 in
                    let body (tx : Stm_intf.Engine.tx_ops) =
                      tx.write a (tx.read a + 1)
                    in
                    if i mod 64 = 0 then
                      Stm_intf.Engine.atomic_irrevocable engine ~tid body
                    else Stm_intf.Engine.atomic engine ~tid body;
                    counters.(tid) <- counters.(tid) + 1
                  done))
        in
        Array.iter Domain.join domains;
        Array.iter
          (fun c -> check Alcotest.int "thread completed all iterations" iters c)
          counters;
        Stm_intf.Engine.stats engine)
  in
  let total = ref 0 in
  for i = 0 to 15 do
    total := !total + Memory.Heap.read heap (base + i)
  done;
  check Alcotest.int "no lost updates under the storm" (threads * iters) !total;
  check Alcotest.int "all committed" (threads * iters) r.s_commits;
  (* Native preemption can interleave an abort between the budget check and
     the escalation, so allow a small slack over the simulator's exact K. *)
  Alcotest.(check bool)
    (Printf.sprintf "worst run %d bounded" r.s_max_consecutive_aborts)
    true
    (r.s_max_consecutive_aborts <= 8 + 4)

let native_workload_harness () =
  let heap = Memory.Heap.create ~words:(1 lsl 14) in
  let cell = Memory.Heap.alloc heap 1 in
  let engine = Engines.make Engines.tinystm heap in
  let remaining = Atomic.make 2_000 in
  let r =
    Harness.Workload.run_fixed_work_native engine ~threads:3 (fun ~tid ->
        if Atomic.fetch_and_add remaining (-1) <= 0 then false
        else begin
          Stm_intf.Engine.atomic engine ~tid (fun tx ->
              tx.write cell (tx.read cell + 1));
          true
        end)
  in
  check Alcotest.int "counter equals commits"
    (Memory.Heap.read heap cell)
    r.stats.s_commits

let suite =
  [
    ( "native",
      List.map
        (fun e ->
          Alcotest.test_case ("bank " ^ fst e) `Slow (native_bank e))
        engines
      @ [
          Alcotest.test_case "rbtree stress" `Slow native_rbtree;
          Alcotest.test_case "escalation terminates" `Slow
            native_escalation_terminates;
          Alcotest.test_case "native harness" `Quick native_workload_harness;
        ] );
  ]

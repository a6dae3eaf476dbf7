(* Tests for the §6 extensions: closed nesting, multi-version reads,
   quiescence-based privatization safety, and the extra contention
   managers. *)

let check = Alcotest.check

(* Engine handles for what [Engine.t] does not expose (closed nesting,
   MVSTM's snapshot telemetry), built from the default specs. *)
let swisstm_create heap =
  let s = Engines.swisstm in
  Swisstm.Swisstm_engine.create ~cm:s.cm ~granularity_words:s.granularity_words
    ~table_bits:s.table_bits ~privatization_safe:false
    ~debug_no_validation:false heap

let mvstm_create heap =
  let s = Engines.mvstm in
  Mvstm.Mvstm_engine.create ~cm:s.cm ~granularity_words:s.granularity_words
    ~table_bits:s.table_bits ~max_chain:8 heap

(* --- closed nesting -------------------------------------------------- *)

let test_nesting_commit_together () =
  let heap = Memory.Heap.create ~words:4096 in
  let a = Memory.Heap.alloc heap 1 and b = Memory.Heap.alloc heap 8 in
  let t = swisstm_create heap in
  Swisstm.Swisstm_engine.atomic t ~tid:0 (fun d ->
      Swisstm.Swisstm_engine.write_word t d a 1;
      Swisstm.Swisstm_engine.atomic_closed d (fun d ->
          Swisstm.Swisstm_engine.write_word t d b 2);
      (* inner writes are visible to the outer scope *)
      check Alcotest.int "outer sees inner" 2
        (Swisstm.Swisstm_engine.read_word t d b));
  check Alcotest.int "outer write committed" 1 (Memory.Heap.read heap a);
  check Alcotest.int "inner write committed" 2 (Memory.Heap.read heap b)

let test_nesting_inner_retry_preserves_outer () =
  (* Two threads fight over [hot] inside nested scopes; the outer counter
     [a] must be written exactly once per outer transaction even when the
     inner scope retries. *)
  let heap = Memory.Heap.create ~words:(1 lsl 14) in
  let a = Memory.Heap.alloc heap 1 in
  let hot = Memory.Heap.alloc heap 1 in
  let t = swisstm_create heap in
  let outer_bodies = ref 0 in
  let body tid () =
    for _ = 1 to 100 do
      Swisstm.Swisstm_engine.atomic t ~tid (fun d ->
          if tid = 0 then incr outer_bodies;
          let v = Swisstm.Swisstm_engine.read_word t d a in
          Swisstm.Swisstm_engine.write_word t d a (v + 1);
          Swisstm.Swisstm_engine.atomic_closed d (fun d ->
              let h = Swisstm.Swisstm_engine.read_word t d hot in
              Swisstm.Swisstm_engine.write_word t d hot (h + 1)))
    done
  in
  ignore
    (Runtime.Sim.run ~cap_cycles:1_000_000_000_000
       (Array.init 4 (fun tid () -> body tid ())));
  check Alcotest.int "outer counter consistent" 400 (Memory.Heap.read heap a);
  check Alcotest.int "inner counter consistent" 400 (Memory.Heap.read heap hot)

let test_nesting_undo_restores_redo_log () =
  (* A savepoint rollback must restore the outer transaction's pending
     write for an address the inner scope overwrote. *)
  let heap = Memory.Heap.create ~words:4096 in
  let a = Memory.Heap.alloc heap 1 in
  let t = swisstm_create heap in
  Swisstm.Swisstm_engine.atomic t ~tid:0 (fun d ->
      Swisstm.Swisstm_engine.write_word t d a 10;
      (try
         Swisstm.Swisstm_engine.atomic_closed d (fun d ->
             Swisstm.Swisstm_engine.write_word t d a 99;
             (* force an inner-only abort *)
             raise Exit)
       with Exit -> ());
      check Alcotest.int "outer redo value survives user exit" 99
        (* a user exception is NOT a transactional abort: the scope's
           writes stand (only Ww conflicts trigger partial rollback) *)
        (Swisstm.Swisstm_engine.read_word t d a));
  check Alcotest.int "committed" 99 (Memory.Heap.read heap a)

let test_nesting_retry_restarts_transaction () =
  (* A body-raised [Retry] inside a scope is not a scope-level conflict:
     it rolls back and retries the whole transaction, once. *)
  let heap = Memory.Heap.create ~words:4096 in
  let a = Memory.Heap.alloc heap 1 and b = Memory.Heap.alloc heap 8 in
  let t = swisstm_create heap in
  let attempts = ref 0 in
  Swisstm.Swisstm_engine.atomic t ~tid:0 (fun d ->
      incr attempts;
      let v = Swisstm.Swisstm_engine.read_word t d a in
      Swisstm.Swisstm_engine.write_word t d a (v + 1);
      Swisstm.Swisstm_engine.atomic_closed d (fun d ->
          Swisstm.Swisstm_engine.write_word t d b !attempts;
          if !attempts = 1 then raise Stm_intf.Tx_signal.Retry));
  let s = Kernel.Driver.snapshot t.core in
  check Alcotest.int "attempts" 2 !attempts;
  check Alcotest.int "killed aborts" 1 s.s_aborts_killed;
  check Alcotest.int "aborts" 1 (Stm_intf.Stats.total_aborts s);
  check Alcotest.int "commits" 1 s.s_commits;
  check Alcotest.int "outer write applied once" 1 (Memory.Heap.read heap a);
  check Alcotest.int "scope write from the second attempt" 2
    (Memory.Heap.read heap b)

let test_nesting_outside_tx_rejected () =
  let d = Kernel.Txdesc.create Kernel.Txdesc.absent.core ~tid:0 in
  Alcotest.(check bool) "rejected outside atomic" true
    (try
       ignore (Swisstm.Swisstm_engine.atomic_closed d (fun _ -> ()));
       false
     with Invalid_argument _ -> true)

(* --- multi-version engine --------------------------------------------- *)

let test_mvstm_basic () =
  let heap = Memory.Heap.create ~words:(1 lsl 14) in
  let a = Memory.Heap.alloc heap 1 in
  let e = Engines.make Engines.mvstm heap in
  Stm_intf.Engine.atomic e ~tid:0 (fun tx -> tx.write a 7);
  check Alcotest.int "write visible" 7
    (Stm_intf.Engine.atomic e ~tid:0 (fun tx -> tx.read a))

let test_mvstm_snapshot_serves_old_values () =
  (* A long reader overlapping writer commits must still see a consistent
     (conserved) snapshot — served from the version chains, without
     aborting. *)
  let heap = Memory.Heap.create ~words:(1 lsl 16) in
  let accounts = 32 in
  let base = Memory.Heap.alloc heap accounts in
  for i = 0 to accounts - 1 do
    Memory.Heap.write heap (base + i) 100
  done;
  let t = mvstm_create heap in
  let e =
    {
      Stm_intf.Engine.name = "mv";
      heap;
      atomic =
        (fun ~tid f ->
          Mvstm.Mvstm_engine.atomic t ~tid (fun d ->
              f
                {
                  Stm_intf.Engine.read = (fun a -> Mvstm.Mvstm_engine.read_word t d a);
                  write = (fun a v -> Mvstm.Mvstm_engine.write_word t d a v);
                  alloc = (fun n -> Memory.Heap.alloc heap n);
                  free = (fun a n -> Kernel.Txdesc.buffer_free d a n);
                }));
      atomic_irrevocable =
        (fun ~tid f ->
          Mvstm.Mvstm_engine.atomic_irrevocable t ~tid (fun d ->
              f
                {
                  Stm_intf.Engine.read = (fun a -> Mvstm.Mvstm_engine.read_word t d a);
                  write = (fun a v -> Mvstm.Mvstm_engine.write_word t d a v);
                  alloc = (fun n -> Memory.Heap.alloc heap n);
                  free = (fun a n -> Kernel.Txdesc.buffer_free d a n);
                }));
      stats = (fun () -> Kernel.Driver.snapshot t.core);
      reset_stats = (fun () -> Kernel.Driver.reset t.core);
    }
  in
  let bad = ref 0 in
  let writer tid () =
    let rng = Runtime.Rng.for_thread ~seed:3 ~tid in
    for _ = 1 to 300 do
      let x = Runtime.Rng.int rng accounts in
      let y = (x + 1 + Runtime.Rng.int rng (accounts - 1)) mod accounts in
      Stm_intf.Engine.atomic e ~tid (fun tx ->
          let vx = tx.read (base + x) in
          tx.write (base + x) (vx - 1);
          tx.write (base + y) (tx.read (base + y) + 1))
    done
  in
  let reader tid () =
    for _ = 1 to 150 do
      let sum =
        Stm_intf.Engine.atomic e ~tid (fun tx ->
            let s = ref 0 in
            for i = 0 to accounts - 1 do
              s := !s + tx.read (base + i);
              (* stretch the reader so writers commit mid-snapshot *)
              Runtime.Exec.tick 200
            done;
            !s)
      in
      if sum <> accounts * 100 then incr bad
    done
  in
  ignore
    (Runtime.Sim.run ~cap_cycles:1_000_000_000_000
       [| writer 0; writer 1; reader 2; reader 3 |]);
  check Alcotest.int "snapshots all consistent" 0 !bad;
  Alcotest.(check bool) "old versions actually served" true
    (Mvstm.Mvstm_engine.snapshot_reads t > 0)

let test_mvstm_chain_truncation_aborts_old_snapshots () =
  (* With max_chain = 1, a reader whose snapshot is many commits behind
     must abort rather than fabricate values (and eventually succeed). *)
  let heap = Memory.Heap.create ~words:(1 lsl 14) in
  let a = Memory.Heap.alloc heap 1 in
  let e =
    Engines.make { Engines.mvstm with family = Engines.Mvstm { max_chain = 1 } } heap
  in
  let body tid () =
    for i = 1 to 200 do
      if tid = 0 then Stm_intf.Engine.atomic e ~tid (fun tx -> tx.write a i)
      else
        ignore
          (Stm_intf.Engine.atomic e ~tid (fun tx ->
               let v = tx.read a in
               Runtime.Exec.tick 500;
               (* second read keeps the snapshot honest *)
               v + tx.read a)
            : int)
    done
  in
  ignore (Runtime.Sim.run ~cap_cycles:1_000_000_000_000 (Array.init 2 (fun tid () -> body tid ())));
  check Alcotest.int "final value" 200 (Memory.Heap.read heap a)

(* --- privatization-safe SwissTM --------------------------------------- *)

let test_quiescence_blocks_committer () =
  (* A committing writer must not finish before the older in-flight reader
     has validated past it. *)
  let run priv =
    let heap = Memory.Heap.create ~words:4096 in
    let a = Memory.Heap.alloc heap 1 in
    let spec =
      if priv then Engines.swisstm_priv_safe else Engines.swisstm
    in
    let e = Engines.make spec heap in
    let writer_done = ref 0 in
    let reader () =
      ignore
        (Stm_intf.Engine.atomic e ~tid:0 (fun tx ->
             let v = tx.read a in
             Runtime.Exec.tick 500_000;
             v)
          : int)
    in
    let writer () =
      Runtime.Exec.tick 1_000;
      Stm_intf.Engine.atomic e ~tid:1 (fun tx -> tx.write a 5);
      writer_done := Runtime.Exec.now ()
    in
    ignore (Runtime.Sim.run ~cap_cycles:1_000_000_000_000 [| reader; writer |]);
    !writer_done
  in
  let without = run false and with_q = run true in
  Alcotest.(check bool)
    (Printf.sprintf "quiescence defers the writer (%d -> %d)" without with_q)
    true
    (with_q > 400_000 && without < 400_000)

let test_priv_safe_still_correct () =
  (* the standard conservation workload under the quiescent engine *)
  let heap = Memory.Heap.create ~words:(1 lsl 14) in
  let base = Memory.Heap.alloc heap 16 in
  for i = 0 to 15 do
    Memory.Heap.write heap (base + i) 50
  done;
  let e = Engines.make Engines.swisstm_priv_safe heap in
  let body tid () =
    let rng = Runtime.Rng.for_thread ~seed:9 ~tid in
    for _ = 1 to 200 do
      let x = Runtime.Rng.int rng 16 in
      let y = (x + 1 + Runtime.Rng.int rng 15) mod 16 in
      Stm_intf.Engine.atomic e ~tid (fun tx ->
          tx.write (base + x) (tx.read (base + x) - 1);
          tx.write (base + y) (tx.read (base + y) + 1))
    done
  in
  ignore
    (Runtime.Sim.run ~cap_cycles:1_000_000_000_000
       (Array.init 4 (fun tid () -> body tid ())));
  let sum = ref 0 in
  for i = 0 to 15 do
    sum := !sum + Memory.Heap.read heap (base + i)
  done;
  check Alcotest.int "conserved under quiescence" 800 !sum

(* --- Karma / Timestamp managers ---------------------------------------- *)

let mk_info tid = Cm.Cm_intf.make_txinfo ~tid ~seed:1

let test_karma_accumulates () =
  let cm = Cm.Factory.make Cm.Cm_intf.Karma in
  let a = mk_info 0 and v = mk_info 1 in
  cm.on_start a ~restart:false;
  cm.on_start v ~restart:false;
  a.accesses <- 2;
  v.accesses <- 100;
  (* first encounter: attacker is poor, it must wait *)
  Alcotest.(check bool) "waits when poor" true
    (cm.resolve ~attacker:a ~victim:v = Cm.Cm_intf.Wait);
  (* after repeated aborts, karma accumulates and it finally wins *)
  for _ = 1 to 60 do
    a.accesses <- a.accesses + 2;
    cm.on_rollback a;
    cm.on_start a ~restart:true
  done;
  a.accesses <- 2;
  a.conflict_waits <- 0;
  Alcotest.(check bool) "karma carried across aborts" true (a.karma > 100);
  Alcotest.(check bool) "eventually kills" true
    (cm.resolve ~attacker:a ~victim:v = Cm.Cm_intf.Killed_victim)

let test_timestamp_grace_period () =
  let cm = Cm.Factory.make Cm.Cm_intf.Timestamp in
  let a = mk_info 0 and v = mk_info 1 in
  cm.on_start a ~restart:false;
  cm.on_start v ~restart:false;
  (* a is older: it waits through the grace period, then kills *)
  let rec drive n =
    match cm.resolve ~attacker:a ~victim:v with
    | Cm.Cm_intf.Wait -> if n > 20 then failwith "no kill" else drive (n + 1)
    | Cm.Cm_intf.Killed_victim -> n
    | Cm.Cm_intf.Abort_self -> failwith "older never self-aborts"
  in
  check Alcotest.int "grace period length" 8 (drive 0);
  (* the younger one immediately yields *)
  Alcotest.(check bool) "younger aborts" true
    (cm.resolve ~attacker:v ~victim:a = Cm.Cm_intf.Abort_self)

let concurrency_smoke spec () =
  let heap = Memory.Heap.create ~words:(1 lsl 14) in
  let base = Memory.Heap.alloc heap 16 in
  for i = 0 to 15 do
    Memory.Heap.write heap (base + i) 10
  done;
  let e = Engines.make spec heap in
  let body tid () =
    let rng = Runtime.Rng.for_thread ~seed:4 ~tid in
    for _ = 1 to 150 do
      let x = Runtime.Rng.int rng 16 in
      let y = (x + 1 + Runtime.Rng.int rng 15) mod 16 in
      Stm_intf.Engine.atomic e ~tid (fun tx ->
          tx.write (base + x) (tx.read (base + x) - 1);
          tx.write (base + y) (tx.read (base + y) + 1))
    done
  in
  ignore
    (Runtime.Sim.run ~cap_cycles:1_000_000_000_000
       (Array.init 4 (fun tid () -> body tid ())));
  let sum = ref 0 in
  for i = 0 to 15 do
    sum := !sum + Memory.Heap.read heap (base + i)
  done;
  check Alcotest.int "conserved" 160 !sum

let suite =
  [
    ( "closed-nesting",
      [
        Alcotest.test_case "commit together" `Quick test_nesting_commit_together;
        Alcotest.test_case "inner retry isolated" `Quick
          test_nesting_inner_retry_preserves_outer;
        Alcotest.test_case "user exception semantics" `Quick
          test_nesting_undo_restores_redo_log;
        Alcotest.test_case "rejected outside tx" `Quick
          test_nesting_outside_tx_rejected;
        Alcotest.test_case "body retry restarts the transaction" `Quick
          test_nesting_retry_restarts_transaction;
      ] );
    ( "mvstm",
      [
        Alcotest.test_case "basic" `Quick test_mvstm_basic;
        Alcotest.test_case "snapshot reads" `Slow
          test_mvstm_snapshot_serves_old_values;
        Alcotest.test_case "chain truncation" `Quick
          test_mvstm_chain_truncation_aborts_old_snapshots;
      ] );
    ( "privatization",
      [
        Alcotest.test_case "quiescence blocks committer" `Quick
          test_quiescence_blocks_committer;
        Alcotest.test_case "still correct" `Quick test_priv_safe_still_correct;
      ] );
    ( "extra-cms",
      [
        Alcotest.test_case "karma accumulates" `Quick test_karma_accumulates;
        Alcotest.test_case "timestamp grace" `Quick test_timestamp_grace_period;
        Alcotest.test_case "karma engine smoke" `Quick
          (concurrency_smoke (Engines.rstm_with ~cm:Cm.Cm_intf.Karma ()));
        Alcotest.test_case "timestamp engine smoke" `Quick
          (concurrency_smoke (Engines.rstm_with ~cm:Cm.Cm_intf.Timestamp ()));
      ] );
  ]

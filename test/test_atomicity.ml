(* Cross-engine atomicity, isolation and opacity tests under the
   deterministic simulator.  These are the tests that caught real engine
   bugs during development (stale-read validation holes, GV4 reuse, busy-
   bit leaks), so they run for EVERY engine configuration. *)

let check = Alcotest.check

let all_specs =
  [
    ("swisstm", Engines.swisstm);
    ("swisstm-timid", Engines.with_cm Cm.Cm_intf.Timid Engines.swisstm);
    ("swisstm-greedy", Engines.with_cm Cm.Cm_intf.Greedy Engines.swisstm);
    ("swisstm-serializer", Engines.with_cm Cm.Cm_intf.Serializer Engines.swisstm);
    ("swisstm-polka", Engines.with_cm Cm.Cm_intf.Polka Engines.swisstm);
    ("tl2", Engines.tl2);
    ("tinystm", Engines.tinystm);
    ("rstm-eager-inv", Engines.rstm);
    ("rstm-lazy-inv", Engines.rstm_with ~acquire:Rstm.Rstm_engine.Lazy ());
    ("rstm-eager-vis", Engines.rstm_with ~visibility:Rstm.Rstm_engine.Visible ());
    ("rstm-greedy", Engines.with_cm Cm.Cm_intf.Greedy Engines.rstm);
    ("rstm-serializer", Engines.with_cm Cm.Cm_intf.Serializer Engines.rstm);
    ("rstm-karma", Engines.with_cm Cm.Cm_intf.Karma Engines.rstm);
    ("rstm-timestamp", Engines.with_cm Cm.Cm_intf.Timestamp Engines.rstm);
    ("mvstm", Engines.mvstm);
    ("swisstm-priv", Engines.swisstm_priv_safe);
    ("norec", Engines.norec);
    ("tlrw", Engines.tlrw);
    ("glock", Engines.glock);
  ]

(* --- bank conservation + opacity probe ------------------------------------- *)

let bank_test ?(threads = 6) ?(iters = 250) ?(accounts = 64) ?policy spec () =
  let heap = Memory.Heap.create ~words:(1 lsl 16) in
  let base = Memory.Heap.alloc heap accounts in
  for i = 0 to accounts - 1 do
    Memory.Heap.write heap (base + i) 100
  done;
  let engine = Engines.make spec heap in
  let bad_snapshots = ref 0 in
  let body tid () =
    let rng = Runtime.Rng.for_thread ~seed:7 ~tid in
    for _ = 1 to iters do
      let a = Runtime.Rng.int rng accounts in
      let b = (a + 1 + Runtime.Rng.int rng (accounts - 1)) mod accounts in
      Stm_intf.Engine.atomic engine ~tid (fun tx ->
          let va = tx.read (base + a) in
          let vb = tx.read (base + b) in
          tx.write (base + a) (va - 1);
          tx.write (base + b) (vb + 1));
      (* Opacity probe: a committed read-only snapshot must be consistent. *)
      let snap =
        Stm_intf.Engine.atomic engine ~tid (fun tx ->
            let s = ref 0 in
            for i = 0 to accounts - 1 do
              s := !s + tx.read (base + i)
            done;
            !s)
      in
      if snap <> accounts * 100 then incr bad_snapshots
    done
  in
  ignore
    (Runtime.Sim.run ?policy ~cap_cycles:1_000_000_000_000
       (Array.init threads (fun tid () -> body tid ())));
  let sum = ref 0 in
  for i = 0 to accounts - 1 do
    sum := !sum + Memory.Heap.read heap (base + i)
  done;
  check Alcotest.int "money conserved" (accounts * 100) !sum;
  check Alcotest.int "no inconsistent snapshots" 0 !bad_snapshots;
  let s = Stm_intf.Engine.stats engine in
  check Alcotest.int "every tx committed exactly once" (2 * threads * iters)
    s.s_commits

(* --- write skew is prevented (serializability of the bank variant) -------- *)

let skew_test spec () =
  (* Two accounts with the constraint x + y >= 0 enforced inside each tx:
     under serializable TM the constraint can never be violated.  The heap
     is sized for engines that allocate version records per commit. *)
  let heap = Memory.Heap.create ~words:(1 lsl 19) in
  let x = Memory.Heap.alloc heap 1 and y = Memory.Heap.alloc heap 1 in
  Memory.Heap.write heap x 50;
  Memory.Heap.write heap y 50;
  let engine = Engines.make spec heap in
  let body tid () =
    let rng = Runtime.Rng.for_thread ~seed:13 ~tid in
    for _ = 1 to 400 do
      let target = if Runtime.Rng.chance rng 0.5 then x else y in
      Stm_intf.Engine.atomic engine ~tid (fun tx ->
          let vx = tx.read x and vy = tx.read y in
          (* withdraw 60 from one account if the SUM allows it *)
          if vx + vy >= 60 then tx.write target (tx.read target - 60)
          else begin
            (* deposit back to keep the workload alive *)
            tx.write x (vx + 30);
            tx.write y (vy + 30)
          end)
    done
  in
  ignore (Runtime.Sim.run ~cap_cycles:1_000_000_000_000 (Array.init 4 (fun tid () -> body tid ())));
  (* Serializable executions keep an invariant the sequential program
     keeps.  The sequential program never lets x+y drop below -59. *)
  let vx = Memory.Heap.read heap x and vy = Memory.Heap.read heap y in
  Alcotest.(check bool)
    (Printf.sprintf "no write skew (x+y = %d)" (vx + vy))
    true
    (vx + vy >= -59)

(* --- isolation: dirty reads never visible ----------------------------------- *)

let dirty_read_test ?(iters = 400) ?policy spec () =
  (* Writer repeatedly sets (a, b) from (even, even) to (odd, odd) inside a
     transaction; readers must never observe mixed parity. *)
  let heap = Memory.Heap.create ~words:(1 lsl 14) in
  let a = Memory.Heap.alloc heap 1 and b = Memory.Heap.alloc heap 1 in
  let engine = Engines.make spec heap in
  let mixed = ref 0 in
  let writer () =
    for i = 1 to iters do
      Stm_intf.Engine.atomic engine ~tid:0 (fun tx ->
          tx.write a i;
          (* interleave-prone gap: lots of unrelated reads *)
          ignore (tx.read a : int);
          tx.write b i)
    done
  in
  let reader tid () =
    for _ = 1 to iters do
      let va, vb =
        Stm_intf.Engine.atomic engine ~tid (fun tx -> (tx.read a, tx.read b))
      in
      if va <> vb then incr mixed
    done
  in
  ignore
    (Runtime.Sim.run ?policy ~cap_cycles:1_000_000_000_000
       [| writer; reader 1; reader 2 |]);
  check Alcotest.int "no torn transactional state" 0 !mixed

let per_engine (name, spec) =
  ( "atomicity:" ^ name,
    [
      Alcotest.test_case "bank conservation + opacity" `Slow (bank_test spec);
      Alcotest.test_case "no write skew" `Slow (skew_test spec);
      Alcotest.test_case "no dirty reads" `Quick (dirty_read_test spec);
    ] )

(* --- schedule-perturbation matrix ------------------------------------------ *)

(* The tests above all run under the default earliest-first scheduler, so
   they only ever see one interleaving per engine.  Re-run the invariant
   tests under a small matrix of perturbed schedules — fuzz-scale random
   seeds plus a PCT seed — with reduced iteration counts so the whole
   matrix stays within a few seconds.  Seeds are fixed: any failure here
   is replayable as (engine, policy, seed). *)

let policy_matrix =
  [
    ("random:1", Check.Fuzz.fuzz_random_policy 1);
    ("random:2", Check.Fuzz.fuzz_random_policy 2);
    ("pct:1", Check.Fuzz.fuzz_pct_policy 1);
  ]

let sched_specs =
  [
    ("swisstm", Engines.swisstm);
    ("swisstm-timid", Engines.with_cm Cm.Cm_intf.Timid Engines.swisstm);
    ("tl2", Engines.tl2);
    ("tinystm", Engines.tinystm);
    ("rstm-eager-inv", Engines.rstm);
    ("rstm-eager-vis", Engines.rstm_with ~visibility:Rstm.Rstm_engine.Visible ());
    ("mvstm", Engines.mvstm);
    ("norec", Engines.norec);
    ("tlrw", Engines.tlrw);
    ("glock", Engines.glock);
  ]

let per_engine_schedules (name, spec) =
  ( "atomicity-sched:" ^ name,
    List.concat_map
      (fun (pname, policy) ->
        [
          Alcotest.test_case (pname ^ " bank") `Slow
            (bank_test ~threads:4 ~iters:60 ~accounts:16 ~policy spec);
          Alcotest.test_case (pname ^ " dirty reads") `Slow
            (dirty_read_test ~iters:120 ~policy spec);
        ])
      policy_matrix )

let suite =
  List.map per_engine all_specs @ List.map per_engine_schedules sched_specs

(* Per-engine semantics tests, run against every engine configuration:
   read-own-write, write visibility, flat nesting, allocation, exception
   safety, stats accounting. *)

let check = Alcotest.check

let all_specs =
  [
    ("swisstm", Engines.swisstm);
    ("swisstm-timid", Engines.with_cm Cm.Cm_intf.Timid Engines.swisstm);
    ("swisstm-greedy", Engines.with_cm Cm.Cm_intf.Greedy Engines.swisstm);
    ("tl2", Engines.tl2);
    ("tinystm", Engines.tinystm);
    ("rstm-eager-inv", Engines.rstm);
    ("rstm-lazy-inv", Engines.rstm_with ~acquire:Rstm.Rstm_engine.Lazy ());
    ("rstm-eager-vis", Engines.rstm_with ~visibility:Rstm.Rstm_engine.Visible ());
    ( "rstm-lazy-vis",
      Engines.rstm_with ~acquire:Rstm.Rstm_engine.Lazy
        ~visibility:Rstm.Rstm_engine.Visible () );
    ("rstm-greedy", Engines.with_cm Cm.Cm_intf.Greedy Engines.rstm);
    ("rstm-serializer", Engines.with_cm Cm.Cm_intf.Serializer Engines.rstm);
    ("mvstm", Engines.mvstm);
    ("swisstm-priv", Engines.swisstm_priv_safe);
    ("swisstm-adaptive", Engines.with_cm Cm.Cm_intf.default_adaptive Engines.swisstm);
    ("tl2-adaptive", Engines.with_cm Cm.Cm_intf.default_adaptive Engines.tl2);
    ("tinystm-adaptive", Engines.with_cm Cm.Cm_intf.default_adaptive Engines.tinystm);
    ("rstm-adaptive", Engines.with_cm Cm.Cm_intf.default_adaptive Engines.rstm);
    ("mvstm-adaptive", Engines.with_cm Cm.Cm_intf.default_adaptive Engines.mvstm);
    ("glock", Engines.glock);
  ]

let with_engine spec f =
  let heap = Memory.Heap.create ~words:(1 lsl 16) in
  let engine = Engines.make spec heap in
  f heap engine

let atomic e f = Stm_intf.Engine.atomic e ~tid:0 f

let test_read_write spec () =
  with_engine spec (fun heap e ->
      let a = Memory.Heap.alloc heap 8 in
      atomic e (fun tx -> tx.write a 123);
      check Alcotest.int "committed write visible to next tx" 123
        (atomic e (fun tx -> tx.read a));
      check Alcotest.int "and to raw memory" 123 (Memory.Heap.read heap a))

let test_read_own_write spec () =
  with_engine spec (fun heap e ->
      let a = Memory.Heap.alloc heap 8 in
      Memory.Heap.write heap a 1;
      let observed =
        atomic e (fun tx ->
            tx.write a 2;
            let mid = tx.read a in
            tx.write a 3;
            (mid, tx.read a))
      in
      check Alcotest.(pair int int) "reads own redo log" (2, 3) observed;
      check Alcotest.int "final value" 3 (Memory.Heap.read heap a))

let test_read_own_write_same_stripe spec () =
  (* Write word 0 of a stripe, read word 1 of the same stripe: must see the
     pre-transaction value, not garbage from the redo log. *)
  with_engine spec (fun heap e ->
      let a = Memory.Heap.alloc heap 8 in
      Memory.Heap.write heap a 10;
      Memory.Heap.write heap (a + 1) 20;
      let observed =
        atomic e (fun tx ->
            tx.write a 99;
            tx.read (a + 1))
      in
      check Alcotest.int "unwritten neighbour word" 20 observed)

let test_flat_nesting spec () =
  with_engine spec (fun heap e ->
      let a = Memory.Heap.alloc heap 4 in
      atomic e (fun tx ->
          tx.write a 1;
          (* The inner atomic must join the outer transaction. *)
          atomic e (fun tx2 ->
              check Alcotest.int "inner sees outer write" 1 (tx2.read a);
              tx2.write a 2);
          check Alcotest.int "outer sees inner write" 2 (tx.read a));
      check Alcotest.int "committed once" 2 (Memory.Heap.read heap a))

let test_alloc_in_tx spec () =
  with_engine spec (fun heap e ->
      let cell =
        atomic e (fun tx ->
            let p = tx.alloc 4 in
            tx.write p 7;
            tx.write (p + 3) 8;
            p)
      in
      check Alcotest.int "allocated and initialised" 7 (Memory.Heap.read heap cell);
      check Alcotest.int "last word" 8 (Memory.Heap.read heap (cell + 3)))

let test_user_exception_releases spec () =
  with_engine spec (fun heap e ->
      let a = Memory.Heap.alloc heap 4 in
      Memory.Heap.write heap a 5;
      (try
         atomic e (fun tx ->
             tx.write a 6;
             failwith "user bug")
       with Failure _ -> ());
      (* Whatever locks the failed transaction took must be free again and
         (for encounter-time engines) the value restored. *)
      atomic e (fun tx -> tx.write a (tx.read a + 1));
      let v = Memory.Heap.read heap a in
      Alcotest.(check bool)
        (Printf.sprintf "usable after user exception (got %d)" v)
        true
        (v = 6 || v = 7))

(* A user exception must also withdraw the §6 quiescence slot: otherwise
   the failed transaction's snapshot stays published and every later
   update commit from another thread waits on it forever.  The per-engine
   case above reuses tid 0, whose next begin overwrites the slot, so it
   cannot see this; here tid 1 commits after tid 0's failure. *)
let test_priv_user_exception_unblocks () =
  with_engine Engines.swisstm_priv_safe (fun heap e ->
      let a = Memory.Heap.alloc heap 4 in
      ignore
        (Runtime.Sim.run ~cap_cycles:10_000_000
           [|
             (fun () ->
               (try
                  Stm_intf.Engine.atomic e ~tid:0 (fun tx ->
                      tx.write a 6;
                      failwith "user bug")
                with Failure _ -> ());
               Stm_intf.Engine.atomic e ~tid:1 (fun tx -> tx.write a 7));
           |]);
      check Alcotest.int "tid 1 committed" 7 (Memory.Heap.read heap a))

let test_stats_accounting spec () =
  with_engine spec (fun heap e ->
      let a = Memory.Heap.alloc heap 4 in
      Stm_intf.Engine.reset_stats e;
      for _ = 1 to 10 do
        atomic e (fun tx -> tx.write a (tx.read a + 1))
      done;
      let s = Stm_intf.Engine.stats e in
      check Alcotest.int "10 commits" 10 s.s_commits;
      check Alcotest.int "no aborts single-threaded" 0 (Stm_intf.Stats.total_aborts s);
      Alcotest.(check bool) "reads counted" true (s.s_reads >= 10);
      Alcotest.(check bool) "writes counted" true (s.s_writes >= 10);
      Stm_intf.Engine.reset_stats e;
      check Alcotest.int "reset" 0 (Stm_intf.Engine.stats e).s_commits);
  (* A contended simulated run under a manager that backs off: a reset
     must clear every counter, the manager's back-offs and the worst
     consecutive-abort run included. *)
  with_engine (Engines.with_cm Cm.Cm_intf.Timid spec) (fun heap e ->
      let a = Memory.Heap.alloc heap 1 in
      ignore
        (Runtime.Sim.run_threads ~threads:4 (fun tid ->
             for _ = 1 to 20 do
               Stm_intf.Engine.atomic e ~tid (fun tx ->
                   let v = tx.read a in
                   Runtime.Exec.tick 200;
                   tx.write a (v + 1))
             done)
          : int);
      let s = Stm_intf.Engine.stats e in
      check Alcotest.int "80 commits" 80 s.s_commits;
      if spec.family <> Engines.Glock then
        Alcotest.(check bool) "contended run backed off" true
          (s.s_backoffs > 0 && s.s_max_consecutive_aborts > 0);
      Stm_intf.Engine.reset_stats e;
      check
        (Alcotest.testable Stm_intf.Stats.pp ( = ))
        "every counter reset"
        (Stm_intf.Stats.snapshot (Stm_intf.Stats.create ()))
        (Stm_intf.Engine.stats e))

let test_read_only_no_writes spec () =
  with_engine spec (fun heap e ->
      let a = Memory.Heap.alloc heap 4 in
      Memory.Heap.write heap a 11;
      Stm_intf.Engine.reset_stats e;
      for _ = 1 to 5 do
        ignore (atomic e (fun tx -> tx.read a) : int)
      done;
      let s = Stm_intf.Engine.stats e in
      check Alcotest.int "5 commits" 5 s.s_commits;
      check Alcotest.int "no writes" 0 s.s_writes)

let test_return_value spec () =
  with_engine spec (fun _heap e ->
      check Alcotest.string "atomic returns body value" "hello"
        (atomic e (fun _tx -> "hello")))

let test_many_words spec () =
  (* A transaction touching hundreds of stripes commits atomically. *)
  with_engine spec (fun heap e ->
      let n = 400 in
      let a = Memory.Heap.alloc heap n in
      atomic e (fun tx ->
          for i = 0 to n - 1 do
            tx.write (a + i) (i * 3)
          done);
      let ok = ref true in
      for i = 0 to n - 1 do
        if Memory.Heap.read heap (a + i) <> i * 3 then ok := false
      done;
      Alcotest.(check bool) "all words written" true !ok)

(* A body-raised [Retry] rolls the attempt back through the engine's own
   rollback, counted as a killed abort; the retry commits once, and the
   engine is free for another thread afterwards. *)
let test_body_retry spec () =
  with_engine spec (fun heap e ->
      let a = Memory.Heap.alloc heap 4 in
      let attempts = ref 0 in
      atomic e (fun tx ->
          incr attempts;
          if !attempts = 1 then raise Stm_intf.Tx_signal.Retry;
          tx.write a (tx.read a + 1));
      let s = Stm_intf.Engine.stats e in
      check Alcotest.int "two attempts" 2 !attempts;
      check Alcotest.int "one commit" 1 s.s_commits;
      check Alcotest.int "written once" 1 (Memory.Heap.read heap a);
      check Alcotest.int "one killed abort" 1 s.s_aborts_killed;
      Stm_intf.Engine.atomic e ~tid:1 (fun tx -> tx.write a (tx.read a + 1));
      check Alcotest.int "another tid commits" 2 (Memory.Heap.read heap a))

let per_engine_cases (name, spec) =
  ( "engine:" ^ name,
    [
      Alcotest.test_case "read/write" `Quick (test_read_write spec);
      Alcotest.test_case "read-own-write" `Quick (test_read_own_write spec);
      Alcotest.test_case "read-own-stripe" `Quick
        (test_read_own_write_same_stripe spec);
      Alcotest.test_case "flat nesting" `Quick (test_flat_nesting spec);
      Alcotest.test_case "alloc in tx" `Quick (test_alloc_in_tx spec);
      Alcotest.test_case "user exception releases" `Quick
        (test_user_exception_releases spec);
      Alcotest.test_case "stats accounting" `Quick (test_stats_accounting spec);
      Alcotest.test_case "read-only tx" `Quick (test_read_only_no_writes spec);
      Alcotest.test_case "return value" `Quick (test_return_value spec);
      Alcotest.test_case "large write set" `Quick (test_many_words spec);
      Alcotest.test_case "body retry" `Quick (test_body_retry spec);
    ] )

(* --- lock-encoding units (engine internals) -------------------------------- *)

let test_swisstm_lock_encoding () =
  check Alcotest.int "version encode/decode" 37
    (Swisstm.Lock_table.version_of (Swisstm.Lock_table.encode_version 37));
  Alcotest.(check bool) "locked flag" true
    (Swisstm.Lock_table.is_r_locked Swisstm.Lock_table.r_locked);
  Alcotest.(check bool) "version not locked" false
    (Swisstm.Lock_table.is_r_locked (Swisstm.Lock_table.encode_version 12));
  check Alcotest.int "w owner roundtrip" 5
    (Swisstm.Lock_table.w_owner_of (Swisstm.Lock_table.encode_w_owner 5))

(* Both TL2 and TinySTM share the kernel's versioned-lock encoding. *)
let test_tl2_lock_encoding () =
  let open Kernel.Vlock in
  check Alcotest.int "version roundtrip" 99 (version_of (unlocked_of_version 99));
  Alcotest.(check bool) "unlocked not locked" false
    (is_locked (unlocked_of_version 99));
  Alcotest.(check bool) "locked" true (is_locked (locked_by 3))

let test_tinystm_lock_encoding () =
  let open Kernel.Vlock in
  check Alcotest.int "version roundtrip" 41 (version_of (unlocked_of_version 41));
  Alcotest.(check bool) "locked" true (is_locked (locked_by 0));
  Alcotest.(check bool) "distinct owners distinct" true
    (locked_by 1 <> locked_by 2)

(* --- transactional accesses outside the heap --------------------------- *)

(* Engines reach the heap with unchecked accesses, so an address outside
   [0, capacity) must be refused at the engine's entry point, before it
   can read garbage or corrupt memory (a write-back under held locks
   included).  The refusal unwinds like any foreign exception: the heap
   is unchanged and the next transaction commits. *)
let test_out_of_heap name () =
  let spec = Option.get (Engines.of_string name) in
  let heap = Memory.Heap.create ~words:1000 in
  let e = Engines.make spec heap in
  let a = Memory.Heap.alloc heap 4 in
  Memory.Heap.write heap a 7;
  let snapshot () =
    Array.init 999 (fun i -> Memory.Heap.read heap (i + 1))
  in
  let before = snapshot () in
  let refused what f =
    Alcotest.(check bool) (name ^ ": " ^ what ^ " raises") true
      (match atomic e f with
      | _ -> false
      | exception Invalid_argument _ -> true)
  in
  List.iter
    (fun bad ->
      refused (Printf.sprintf "read %d" bad) (fun tx -> tx.read bad);
      refused (Printf.sprintf "write %d" bad) (fun tx ->
          tx.write bad 1;
          0))
    [ -1; Memory.Heap.capacity heap ];
  (* Frees are buffered to commit, so a bad one must be refused at the
     call: at commit it would escape with the engine's locks held. *)
  refused "free 0 words" (fun tx ->
      tx.free a 0;
      0);
  Alcotest.(check bool) (name ^ ": heap unchanged") true (before = snapshot ());
  atomic e (fun tx -> tx.write a (tx.read a + 1));
  check Alcotest.int (name ^ ": a valid transaction commits") 8
    (Memory.Heap.read heap a)

(* --- construction cost ------------------------------------------------- *)

(* Words allocated by [f]: minor allocation plus direct major allocation
   (a large block skips the minor heap).  The minor part comes from
   [Gc.minor_words]: on OCaml 5.1 [Gc.counters] misses the words of the
   current minor heap, and read 1.75 words for a read-only transaction
   that allocated 14 (the rate over 10^6 transactions). *)
let words_allocated f =
  let _, promoted0, major0 = Gc.counters () and minor0 = Gc.minor_words () in
  let r = f () in
  let minor1 = Gc.minor_words () and _, promoted1, major1 = Gc.counters () in
  (minor1 -. minor0 +. (major1 -. promoted1) -. (major0 -. promoted0), r)

(* Stripe tables are built on first touch, chunk by chunk, so building an
   engine costs the chunk index (one word per 512 stripes), not a slot or
   a line per stripe. *)
let test_construction_words name () =
  let spec = Option.get (Engines.of_string name) in
  let stripes = 1 lsl spec.Engines.table_bits in
  check Alcotest.int (name ^ ": default table") (1 lsl 18) stripes;
  let heap = Memory.Heap.create ~words:1024 in
  let words, _e = words_allocated (fun () -> Engines.make spec heap) in
  let per_stripe = words /. float_of_int stripes in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.3f words per stripe < 0.1" name per_stripe)
    true (per_stripe < 0.1)

(* A thread's descriptor -- with its counters, op table and commit flag --
   is built on its first transaction, so building an engine allocates no
   per-thread state: on a 16-stripe table what is left (1,031-1,229 words
   run one test at a time, less inside the full suite) is the descriptor
   slot array (513 words) and the engine's own records.  One descriptor
   is ~1,300 words, and a second 512-slot per-thread array would exceed
   the bound on its own. *)
let test_construction_no_descriptors name () =
  let spec = Engines.with_table_bits 4 (Option.get (Engines.of_string name)) in
  let heap = Memory.Heap.create ~words:1024 in
  let words, _e = words_allocated (fun () -> Engines.make spec heap) in
  Alcotest.(check bool)
    (Printf.sprintf "%s: construction %.0f words < 1300" name words)
    true (words < 1300.)

(* A built stripe is one array of one-block cells plus its modelled
   line: a SwissTM two-cell line is 3 + 2 * 3 + 8 = 17 words and a TL2
   one-cell line 2 + 3 + 8 = 13, and [Obj.reachable_words] adds 1 for
   the shared empty [readers_hi] array.  A cell that boxed its value in
   an [int Atomic.t] again would add 2 words per cell (22 and 16). *)
let test_stripe_footprint () =
  let stripe = Memory.Stripe.create ~table_bits:4 () in
  let words tbl =
    Obj.reachable_words (Obj.repr (Runtime.Line_table.line tbl 0))
  in
  let swisstm = words (Swisstm.Lock_table.create stripe)
  and tl2 = words (Kernel.Vlock.create_locks stripe) in
  Alcotest.(check bool)
    (Printf.sprintf "swisstm line %d words <= 18" swisstm)
    true (swisstm <= 18);
  Alcotest.(check bool) (Printf.sprintf "tl2 line %d words <= 14" tl2) true (tl2 <= 14)

(* --- thread-id range ---------------------------------------------------- *)

(* Every engine refuses a tid outside its range by name instead of
   failing on an index: engines that pack per-thread state into machine
   words (visible-reader bitmaps, quiescence slots) at their cap, which
   keeps the 64-512-thread scale runs from corrupting a bitmap, and every
   other engine at its [Stats.max_threads]-slot descriptor table.  The
   last tid in range commits. *)
let thread_range (spec : Engines.spec) e =
  match spec.family with
  | Rstm _ -> ("rstm", Kernel.Readers.cap)
  | Tlrw -> ("tlrw", Kernel.Readers.cap)
  | Kernel { visibility = Kernel.Axes.Visible; _ } ->
      ("kernel-compose-visible", Kernel.Readers.cap)
  | Swisstm { privatization_safe = true; _ } ->
      ("swisstm-priv", Swisstm.Swisstm_engine.quiesce_slots)
  | _ -> (Stm_intf.Engine.name e, Stm_intf.Stats.max_threads)

let test_tid_range name () =
  let spec = Engines.with_table_bits 4 (Option.get (Engines.of_string name)) in
  let heap = Memory.Heap.create ~words:64 in
  let a = Memory.Heap.alloc heap 1 in
  let e = Engines.make spec heap in
  let engine, limit = thread_range spec e in
  List.iter
    (fun tid ->
      Alcotest.check_raises
        (Printf.sprintf "%s refuses tid %d" name tid)
        (Stm_intf.Engine.Unsupported_thread_count { engine; tid; limit })
        (fun () -> Stm_intf.Engine.atomic e ~tid (fun _ -> ())))
    (List.sort_uniq compare [ -1; limit; Stm_intf.Stats.max_threads ]);
  Stm_intf.Engine.atomic e ~tid:(limit - 1) (fun tx -> tx.write a 1);
  check Alcotest.int
    (Printf.sprintf "%s: tid %d commits" name (limit - 1))
    1 (Memory.Heap.read heap a)

(* --- per-transaction allocation ----------------------------------------- *)

(* Minor-heap words per committed transaction, averaged over 10,000 warm
   transactions.  The body closure is built once, outside the count.  A
   read-only transaction allocates nothing (the read path, the retry loop
   and a thread's descriptor, built by its first transaction and reused
   by every later one, are allocation-free); an 8-read/8-write one may
   not allocate more than these engines did when the bounds were set. *)
let rw_words_bound = [ ("swisstm", 13.); ("tl2", 11.); ("tinystm", 11.) ]

let test_tx_words name () =
  let heap = Memory.Heap.create ~words:1024 in
  let base = Memory.Heap.alloc heap 8 in
  let e = Engines.make (Option.get (Engines.of_string name)) heap in
  let ro tx =
    for i = 0 to 7 do
      ignore (tx.Stm_intf.Engine.read (base + i) : int)
    done
  in
  let rw tx =
    ro tx;
    for i = 0 to 7 do
      tx.Stm_intf.Engine.write (base + i) i
    done
  in
  let per_tx body =
    let run () = Stm_intf.Engine.atomic e ~tid:0 body in
    for _ = 1 to 1_000 do
      run ()
    done;
    let words, () =
      words_allocated (fun () ->
          for _ = 1 to 10_000 do
            run ()
          done)
    in
    words /. 10_000.
  in
  let ro_words = per_tx ro and rw_words = per_tx rw in
  let bound = List.assoc name rw_words_bound in
  Alcotest.(check bool)
    (Printf.sprintf "%s: 8-read tx %.2f words < 4" name ro_words)
    true (ro_words < 4.);
  Alcotest.(check bool)
    (Printf.sprintf "%s: 8r/8w tx %.1f words <= %.0f" name rw_words bound)
    true (rw_words <= bound)

(* --- irrevocability and escalation ------------------------------------- *)

let test_irrevocable_basic spec () =
  with_engine spec (fun heap e ->
      let a = Memory.Heap.alloc heap 4 in
      let v =
        Stm_intf.Engine.atomic_irrevocable e ~tid:0 (fun tx ->
            tx.write a 41;
            (* a nested atomic joins the irrevocable transaction *)
            Stm_intf.Engine.atomic e ~tid:0 (fun tx2 ->
                tx2.write a (tx2.read a + 1));
            tx.read a)
      in
      check Alcotest.int "returned value" 42 v;
      check Alcotest.int "committed" 42 (Memory.Heap.read heap a);
      (* the serial token must be free again for ordinary transactions
         and for the next irrevocable one *)
      Stm_intf.Engine.atomic e ~tid:1 (fun tx -> tx.write a 7);
      Stm_intf.Engine.atomic_irrevocable e ~tid:1 (fun tx -> tx.write a 8);
      check Alcotest.int "token cycles" 8 (Memory.Heap.read heap a))

let test_irrevocable_concurrent spec () =
  (* Irrevocable and ordinary transactions interleave in the simulator
     without deadlock or lost updates. *)
  with_engine spec (fun heap e ->
      let cell = Memory.Heap.alloc heap 1 in
      let per_thread = 30 in
      ignore
        (Runtime.Sim.run ~cap_cycles:1_000_000_000_000
           (Array.init 3 (fun tid () ->
                for _ = 1 to per_thread do
                  if tid = 0 then
                    Stm_intf.Engine.atomic_irrevocable e ~tid (fun tx ->
                        tx.write cell (tx.read cell + 1))
                  else
                    Stm_intf.Engine.atomic e ~tid (fun tx ->
                        tx.write cell (tx.read cell + 1))
                done)));
      check Alcotest.int "no lost updates" (3 * per_thread)
        (Memory.Heap.read heap cell))

(* Two engines of one family hold separate cores: while thread 0 keeps
   engine A's irrevocability token for a long body, thread 1's update
   commits on engine B pass B's gates, so all of them land inside A's
   body.  A shared token would park thread 1 at B's start gate until A's
   body gave up waiting. *)
let test_irrevocable_separate_cores spec () =
  let heap_a = Memory.Heap.create ~words:(1 lsl 16)
  and heap_b = Memory.Heap.create ~words:(1 lsl 16) in
  let ea = Engines.make spec heap_a and eb = Engines.make spec heap_b in
  let a = Memory.Heap.alloc heap_a 1 and b = Memory.Heap.alloc heap_b 1 in
  let b_commits = ref 0 and during = ref (-1) and n = 20 in
  ignore
    (Runtime.Sim.run ~cap_cycles:1_000_000_000_000
       [|
         (fun () ->
           Stm_intf.Engine.atomic_irrevocable ea ~tid:0 (fun tx ->
               tx.write a 1;
               let spins = ref 0 in
               while !b_commits < n && !spins < 100_000 do
                 incr spins;
                 Runtime.Exec.pause ()
               done;
               during := !b_commits));
         (fun () ->
           for _ = 1 to n do
             Stm_intf.Engine.atomic eb ~tid:1 (fun tx ->
                 tx.write b (tx.read b + 1));
             incr b_commits
           done);
       |]);
  check Alcotest.int "B commits inside A's irrevocable body" n !during;
  check Alcotest.int "B committed" n (Memory.Heap.read heap_b b)

(* The bound [make fault-smoke] enforces at scale, in miniature: under the
   abort storm the adaptive manager's escalation keeps every thread's
   worst consecutive-abort run within its budget K; timid does not. *)
let storm_worst_run spec =
  let heap = Memory.Heap.create ~words:(1 lsl 14) in
  let base = Memory.Heap.alloc heap 32 in
  let e = Engines.make (Engines.with_table_bits 10 spec) heap in
  let remaining = Array.make 4 80 in
  let r =
    Harness.Workload.with_faults ~seed:11 ~profile:Runtime.Inject.abort_storm
      (fun () ->
        Harness.Workload.run_fixed_work e ~threads:4 (fun ~tid ->
            if remaining.(tid) = 0 then false
            else begin
              remaining.(tid) <- remaining.(tid) - 1;
              let rng =
                Runtime.Rng.for_thread ~seed:(13 + remaining.(tid)) ~tid
              in
              Stm_intf.Engine.atomic e ~tid (fun tx ->
                  for _ = 1 to 6 do
                    let a = base + Runtime.Rng.int rng 32 in
                    tx.write a (tx.read a + 1)
                  done);
              true
            end))
  in
  check Alcotest.int "all work done" (4 * 80) r.Harness.Workload.ops;
  r.stats.s_max_consecutive_aborts

let test_escalation_bounds_storm () =
  let k =
    match Cm.Cm_intf.default_adaptive with
    | Cm.Cm_intf.Adaptive { escalate_after; _ } -> escalate_after
    | _ -> assert false
  in
  let bounded =
    storm_worst_run (Engines.with_cm Cm.Cm_intf.default_adaptive Engines.swisstm)
  in
  Alcotest.(check bool)
    (Printf.sprintf "adaptive worst run %d <= K=%d" bounded k)
    true (bounded <= k);
  let unbounded =
    storm_worst_run (Engines.with_cm Cm.Cm_intf.Timid Engines.swisstm)
  in
  Alcotest.(check bool)
    (Printf.sprintf "timid worst run %d > K=%d" unbounded k)
    true (unbounded > k)

(* Escalation comes before the next attempt of a transaction that
   aborted K times in a row (DESIGN §9): the budget is that
   transaction's.  Its conflict-free successor on the same thread must
   run its first attempt unescalated, not inherit the spent budget. *)
let test_escalation_per_transaction () =
  let k =
    match Cm.Cm_intf.default_adaptive with
    | Cm.Cm_intf.Adaptive { escalate_after; _ } -> escalate_after
    | _ -> assert false
  in
  let spec = Engines.with_cm Cm.Cm_intf.default_adaptive Engines.swisstm in
  with_engine spec (fun _ e ->
      let escalations () =
        Obs.Report.cell
          (List.find
             (fun (t : Obs.Report.table) -> t.title = "metrics: aborts and CM decisions")
             (Obs.Metrics.tables ()))
          (Stm_intf.Engine.name e) "escalations"
        |> int_of_float
      in
      Obs.Metrics.reset ();
      Obs.Metrics.enable ();
      let attempts = ref 0 in
      let first, second =
        Fun.protect ~finally:Obs.Metrics.disable (fun () ->
            atomic e (fun _ ->
                incr attempts;
                if !attempts <= k then raise Stm_intf.Tx_signal.Retry);
            let first = escalations () in
            atomic e (fun _ -> ());
            (first, escalations ()))
      in
      Obs.Metrics.reset ();
      check Alcotest.int "K aborts, then one more attempt" (k + 1) !attempts;
      check Alcotest.int "that attempt escalated" 1 first;
      check Alcotest.int "the next transaction did not" 1 second)

(* Every engine label, pinned to the values captured on the tree just
   before the flat [Engines.spec]: [Engines.name] keys
   [Obs.Metrics.register_engine] and every bench table, and
   [Engine.name] is what an instantiated engine reports.  Each row is
   (registry name or spec, [Engines.name], [Engine.name]). *)
let pinned_labels =
  let named n =
    match Engines.of_string n with
    | Some s -> (n, s)
    | None -> Alcotest.failf "unknown engine %s" n
  in
  let adaptive n s = (n ^ " with_cm adaptive", Engines.with_cm Cm.Cm_intf.default_adaptive s) in
  let gran1 n s = (n ^ " with_granularity 1", Engines.with_granularity 1 s) in
  [
    (named "swisstm", "swisstm", "swisstm");
    (named "tl2", "tl2", "tl2");
    (named "tinystm", "tinystm", "tinystm");
    (named "rstm", "rstm(eager,inv,polka)", "rstm(eager,inv,polka)");
    (named "rstm-lazy", "rstm(lazy,inv,polka)", "rstm(lazy,inv,polka)");
    (named "rstm-visible", "rstm(eager,vis,polka)", "rstm(eager,vis,polka)");
    (named "rstm-serializer", "rstm(eager,inv,serializer)", "rstm(eager,inv,serializer)");
    (named "rstm-greedy", "rstm(eager,inv,greedy)", "rstm(eager,inv,greedy)");
    (named "rstm-karma", "rstm(eager,inv,karma)", "rstm(eager,inv,karma)");
    (named "rstm-timestamp", "rstm(eager,inv,timestamp)", "rstm(eager,inv,timestamp)");
    (named "swisstm-timid", "swisstm(timid)", "swisstm");
    (named "swisstm-greedy", "swisstm(greedy)", "swisstm");
    (named "swisstm-priv", "swisstm+quiescence", "swisstm");
    (named "mvstm", "mvstm", "mvstm");
    (named "swisstm-adaptive", "swisstm(adaptive(wn=10,thr=512,k=8))", "swisstm");
    (named "tl2-adaptive", "tl2(adaptive(wn=10,thr=512,k=8))", "tl2");
    (named "tinystm-adaptive", "tinystm(adaptive(wn=10,thr=512,k=8))", "tinystm");
    (named "rstm-adaptive", "rstm(eager,inv,adaptive(wn=10,thr=512,k=8))", "rstm(eager,inv,adaptive(wn=10,thr=512,k=8))");
    (named "mvstm-adaptive", "mvstm(adaptive(wn=10,thr=512,k=8))", "mvstm");
    (named "glock", "glock", "glock");
    (named "norec", "norec", "norec");
    (named "tlrw", "tlrw", "tlrw");
    (named "norec-adaptive", "norec(adaptive(wn=10,thr=512,k=8))", "norec");
    (named "tlrw-adaptive", "tlrw(adaptive(wn=10,thr=512,k=8))", "tlrw");
    (named "k-eager+inv+commit+redo", "k-eager+inv+commit+redo", "k-eager+inv+commit+redo");
    (named "k-lazy+inv+incr+redo", "k-lazy+inv+incr+redo", "k-lazy+inv+incr+redo");
    (named "k-mixed+inv+commit+redo", "k-mixed+inv+commit+redo", "k-mixed+inv+commit+redo");
    (named "k-eager+vis+commit+redo", "k-eager+vis+commit+redo", "k-eager+vis+commit+redo");
    (named "k-mixed+inv+counter+redo", "k-mixed+inv+counter+redo", "k-mixed+inv+counter+redo");
    (named "k-mixed+inv+incr+redo", "k-mixed+inv+incr+redo", "k-mixed+inv+incr+redo");
    (named "swisstm-broken", "swisstm!noval", "swisstm");
    (adaptive "tl2" Engines.tl2, "tl2(adaptive(wn=10,thr=512,k=8))", "tl2");
    (adaptive "tinystm" Engines.tinystm, "tinystm(adaptive(wn=10,thr=512,k=8))", "tinystm");
    (adaptive "rstm" Engines.rstm, "rstm(eager,inv,adaptive(wn=10,thr=512,k=8))", "rstm(eager,inv,adaptive(wn=10,thr=512,k=8))");
    (adaptive "mvstm" Engines.mvstm, "mvstm(adaptive(wn=10,thr=512,k=8))", "mvstm");
    (gran1 "swisstm" Engines.swisstm, "swisstm", "swisstm");
    (gran1 "tl2" Engines.tl2, "tl2", "tl2");
  ]

let test_labels_pinned () =
  (* every registry name is pinned, so a new engine must add its row *)
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (n ^ " has a pinned label")
        true
        (List.exists (fun ((m, _), _, _) -> m = n) pinned_labels))
    Engines.known_names;
  List.iter
    (fun ((what, spec), spec_name, engine_name) ->
      Alcotest.(check string) (what ^ ": Engines.name") spec_name
        (Engines.name spec);
      let e =
        Engines.make (Engines.with_table_bits 4 spec)
          (Memory.Heap.create ~words:64)
      in
      Alcotest.(check string) (what ^ ": Engine.name") engine_name
        (Stm_intf.Engine.name e))
    pinned_labels


(* --- commit-time validation bound ---------------------------------------

   Tid 0's update transaction reads stripe X at snapshot [valid_ts]; inside
   its body, on its first attempt only, tid 1 commits a write to X, moving
   X's version to [valid_ts + 1]; tid 0 then writes stripe Y.  Its commit
   must fail read-set validation and retry once.  A validation bound off by
   one ([version > valid_ts + 1]) lets the stale read commit. *)
let test_commit_validation_bound spec () =
  with_engine spec (fun heap e ->
      let x = Memory.Heap.alloc heap 64 in
      let y = x + 32 in
      let attempts = ref 0 in
      Stm_intf.Engine.atomic e ~tid:0 (fun tx ->
          incr attempts;
          let v = tx.read x in
          if !attempts = 1 then
            Stm_intf.Engine.atomic e ~tid:1 (fun tx1 -> tx1.write x 5);
          tx.write y (v + 1));
      let s = Stm_intf.Engine.stats e in
      check Alcotest.int "one r/w abort" 1 s.s_aborts_rw;
      check Alcotest.int "no other abort" 1 (Stm_intf.Stats.total_aborts s);
      check Alcotest.int "two attempts" 2 !attempts;
      check Alcotest.int "y from the fresh x" 6 (Memory.Heap.read heap y))

let suite =
  List.map per_engine_cases all_specs
  @ [
      ( "commit-validation",
        [
          Alcotest.test_case "tl2" `Quick
            (test_commit_validation_bound Engines.tl2);
          Alcotest.test_case "mvstm" `Quick
            (test_commit_validation_bound Engines.mvstm);
        ] );
      ( "lock-encodings",
        [
          Alcotest.test_case "swisstm" `Quick test_swisstm_lock_encoding;
          Alcotest.test_case "tl2" `Quick test_tl2_lock_encoding;
          Alcotest.test_case "tinystm" `Quick test_tinystm_lock_encoding;
        ] );
      ( "engine-labels",
        [ Alcotest.test_case "names pinned" `Quick test_labels_pinned ] );
      ( "out-of-heap",
        List.map
          (fun name -> Alcotest.test_case name `Quick (test_out_of_heap name))
          Engines.known_names );
      ( "construction",
        List.map
          (fun name ->
            Alcotest.test_case name `Quick (test_construction_words name))
          [ "swisstm"; "tl2"; "rstm-visible"; "tlrw"; "k-eager+vis+commit+redo" ]
        @ List.map
            (fun name ->
              Alcotest.test_case ("no descriptors " ^ name) `Quick
                (test_construction_no_descriptors name))
            [
              "swisstm"; "tl2"; "tinystm"; "norec"; "tlrw"; "mvstm";
              "k-eager+vis+commit+redo"; "glock";
            ]
        @ [ Alcotest.test_case "stripe footprint" `Quick test_stripe_footprint ] );
      ( "tid-range",
        List.map
          (fun name -> Alcotest.test_case name `Quick (test_tid_range name))
          Engines.known_names );
      ( "tx-allocation",
        List.map
          (fun (name, _) -> Alcotest.test_case name `Quick (test_tx_words name))
          rw_words_bound );
      ( "quiescence-slots",
        [
          Alcotest.test_case "swisstm-priv user exception unblocks committers"
            `Quick test_priv_user_exception_unblocks;
        ] );
      ( "irrevocability",
        List.concat_map
          (fun (name, spec) ->
            [
              Alcotest.test_case (name ^ " basic") `Quick
                (test_irrevocable_basic spec);
              Alcotest.test_case (name ^ " concurrent") `Quick
                (test_irrevocable_concurrent spec);
              Alcotest.test_case (name ^ " separate cores") `Quick
                (test_irrevocable_separate_cores spec);
            ])
          all_specs
        @ [
            Alcotest.test_case "escalation bounds abort storm" `Quick
              test_escalation_bounds_storm;
            Alcotest.test_case "escalation budget is per transaction" `Quick
              test_escalation_per_transaction;
          ] );
    ]

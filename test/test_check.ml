(* Checker self-tests: hand-written opaque and non-opaque histories with
   known verdicts, exercising every accept/reject path of
   Check.Opacity.check directly (no engine involved), plus determinism of
   the perturbation policies and corpus round-trips.  These pin down the
   checker's semantics so fuzzer verdicts can be trusted. *)

let b tid = Stm_intf.Trace.Begin { tid; time = 0 }
let r tid addr value = Stm_intf.Trace.Read { tid; addr; value; time = 0 }
let w tid addr value = Stm_intf.Trace.Write { tid; addr; value; time = 0 }
let c tid = Stm_intf.Trace.Commit { tid; time = 0 }
let a tid =
  Stm_intf.Trace.Abort { tid; reason = Stm_intf.Tx_signal.Ww_conflict; time = 0 }

let verdict ?level ?(scope_aborts = 0) ~init ~final evs =
  Check.Opacity.check ?level ~events:(Array.of_list evs) ~scope_aborts ~init
    ~final ()

let pp_verdict = function
  | Check.Opacity.Opaque -> "Opaque"
  | Check.Opacity.Violation m -> "Violation: " ^ m
  | Check.Opacity.Gave_up m -> "Gave_up: " ^ m

let expect name pred v =
  if not (pred v) then Alcotest.failf "%s: unexpected verdict %s" name (pp_verdict v)

let opaque = function Check.Opacity.Opaque -> true | _ -> false
let violation = function Check.Opacity.Violation _ -> true | _ -> false
let gave_up = function Check.Opacity.Gave_up _ -> true | _ -> false

(* --- accept paths ----------------------------------------------------- *)

let test_simple_opaque () =
  (* T0 writes, T1 later reads what T0 wrote: the recorded commit order is
     its own witness. *)
  expect "sequential history" opaque
    (verdict
       ~init:[ (0, 5); (1, 0) ]
       ~final:[ (0, 5); (1, 6) ]
       [ b 0; r 0 0 5; w 0 1 6; c 0; b 1; r 1 1 6; c 1 ])

let test_read_your_own_write () =
  expect "RYOW accepted" opaque
    (verdict ~init:[ (0, 0) ] ~final:[ (0, 7) ]
       [ b 0; w 0 0 7; r 0 0 7; c 0 ])

let test_commuted_witness () =
  (* A read-only transaction that overlaps a writer and commits after it,
     yet read the OLD value: legal (it serializes first), but only found
     by backtracking past the recorded commit order.  This is exactly the
     shape mvstm produces for old-snapshot readers. *)
  expect "RO old-snapshot reader" opaque
    (verdict ~init:[ (0, 0) ] ~final:[ (0, 1) ]
       [ b 1; b 0; w 0 0 1; c 0; r 1 0 0; c 1 ])

let test_aborted_consistent () =
  (* An aborted attempt that read a consistent pre-writer snapshot is
     fine under opacity: some witness prefix (the empty one) explains it. *)
  expect "consistent aborted attempt" opaque
    (verdict ~init:[ (0, 0); (1, 0) ] ~final:[ (0, 1); (1, 1) ]
       [ b 1; r 1 0 0; r 1 1 0; b 0; w 0 0 1; w 0 1 1; c 0; a 1 ])

(* --- reject paths: committed transactions ------------------------------ *)

let test_write_skew () =
  (* Classic write skew: both read {x,y} = {0,0}, each writes one cell.
     No sequential order explains both reads, so even plain
     serializability must reject it. *)
  let evs =
    [
      b 0; b 1; r 0 0 0; r 0 1 0; r 1 0 0; r 1 1 0; w 0 0 1; w 1 1 1; c 0; c 1;
    ]
  and init = [ (0, 0); (1, 0) ]
  and final = [ (0, 1); (1, 1) ] in
  expect "write skew (opacity)" violation (verdict ~init ~final evs);
  expect "write skew (serializability)" violation
    (verdict ~level:Kernel.Axes.Serializable ~init ~final evs)

let test_real_time_order_enforced () =
  (* T1 begins strictly after T0 committed x:=1 but read x = 0.  Without
     the real-time edge the order [T1; T0] would explain it, so this pins
     down that recorded precedence constrains the witness. *)
  expect "stale read after commit" violation
    (verdict ~init:[ (0, 0) ] ~final:[ (0, 1) ]
       [ b 0; w 0 0 1; c 0; b 1; r 1 0 0; c 1 ])

let test_final_state_mismatch () =
  (* The witness must reproduce the heap the run actually left behind. *)
  expect "final state mismatch" violation
    (verdict ~init:[ (0, 0) ] ~final:[ (0, 2) ] [ b 0; w 0 0 1; c 0 ])

let test_non_repeatable_read () =
  (* Same address, two different values, no own write in between: the
     attempt is internally inconsistent regardless of any witness. *)
  expect "non-repeatable read" violation
    (verdict ~init:[ (0, 0) ] ~final:[ (0, 0) ]
       [ b 0; r 0 0 0; r 0 0 1; c 0 ])

let test_ryow_mismatch () =
  expect "RYOW mismatch" violation
    (verdict ~init:[ (0, 0) ] ~final:[ (0, 7) ]
       [ b 0; w 0 0 7; r 0 0 9; c 0 ])

(* --- reject paths: aborted attempts (the opacity / serializability gap) - *)

let test_stale_read_then_abort () =
  (* An aborted attempt that began after T0 committed x:=1 yet read
     x = 0: a zombie.  Opacity rejects it; serializability, which places
     no constraint on aborted attempts, accepts the same trace. *)
  let evs = [ b 0; w 0 0 1; c 0; b 1; r 1 0 0; a 1 ]
  and init = [ (0, 0) ]
  and final = [ (0, 1) ] in
  expect "zombie read (opacity)" violation (verdict ~init ~final evs);
  expect "zombie read (serializability)" opaque
    (verdict ~level:Kernel.Axes.Serializable ~init ~final evs)

let test_torn_abort_snapshot () =
  (* Writer atomically moves (x, y) from (0, 0) to (1, 1); the aborted
     attempt saw the torn state (1, 0), which no witness prefix
     contains. *)
  expect "torn snapshot in aborted attempt" violation
    (verdict
       ~init:[ (0, 0); (1, 0) ]
       ~final:[ (0, 1); (1, 1) ]
       [ b 1; b 0; w 0 0 1; w 0 1 1; c 0; r 1 0 1; r 1 1 0; a 1 ])

(* --- gave-up and malformed paths --------------------------------------- *)

let test_malformed () =
  expect "commit without begin" violation
    (verdict ~init:[] ~final:[] [ c 0 ])

let test_live_attempt () =
  expect "unfinished attempt" gave_up (verdict ~init:[] ~final:[] [ b 0 ])

let test_scope_aborts () =
  expect "partial rollback" gave_up
    (verdict ~scope_aborts:1 ~init:[] ~final:[] [ b 0; c 0 ])

(* --- policy determinism ------------------------------------------------ *)

let run_events policy =
  let p = Check.Program.generate ~cells:6 ~threads:3 ~seed:42 () in
  let o = Check.Program.run ~spec:Engines.swisstm ~policy p in
  (o.Check.Program.events, o.Check.Program.final)

let test_policy_deterministic () =
  (* Same (program, policy, seed) must reproduce the identical history —
     the property that makes corpus triples replayable. *)
  List.iter
    (fun policy ->
      let e1, f1 = run_events policy and e2, f2 = run_events policy in
      Alcotest.(check bool)
        (Runtime.Sim.policy_name policy ^ " events replay identically")
        true
        (e1 = e2 && f1 = f2))
    [
      Runtime.Sim.Earliest_first;
      Check.Fuzz.fuzz_random_policy 3;
      Check.Fuzz.fuzz_pct_policy 5;
    ]

let test_policy_spec_roundtrip () =
  List.iter
    (fun policy ->
      let s = Check.Fuzz.spec_of_policy policy in
      match Check.Fuzz.policy_of_spec s with
      | Some p ->
          Alcotest.(check bool) (s ^ " round-trips") true (p = policy)
      | None -> Alcotest.failf "policy spec %S failed to parse" s)
    [
      Runtime.Sim.Earliest_first;
      Check.Fuzz.fuzz_random_policy 7;
      Check.Fuzz.fuzz_pct_policy 7;
      Runtime.Sim.Random { seed = 1; window = 5000; quantum = 2000 };
      Runtime.Sim.Pct { seed = 9; depth = 2; horizon = 2_000_000 };
    ]

let test_program_roundtrip () =
  for seed = 0 to 9 do
    let p = Check.Program.generate ~cells:8 ~threads:3 ~seed () in
    match Check.Program.of_string (Check.Program.to_string p) with
    | Ok q -> Alcotest.(check bool) "program text round-trips" true (p = q)
    | Error m -> Alcotest.failf "seed %d: reparse failed: %s" seed m
  done;
  (* the shrinker empties threads; a printed counterexample must reparse *)
  let p = Check.Program.generate ~cells:8 ~threads:3 ~seed:0 () in
  let p = { p with threads = [| []; p.threads.(1); [] |] } in
  match Check.Program.of_lines (Check.Program.to_lines p) with
  | Ok q -> Alcotest.(check bool) "empty threads round-trip" true (p = q)
  | Error m -> Alcotest.failf "empty threads: reparse failed: %s" m

(* An armed injector restarts its fault streams at every [run_once], so
   a failing triple replays under the faults it failed with: two runs of
   one triple inject the same faults and reach the same verdict. *)
let test_inject_replays () =
  let p = Check.Program.generate ~cells:8 ~threads:3 ~seed:1 () in
  let run () =
    let r =
      Check.Fuzz.run_once ~spec:Engines.tl2 ~policy:(Check.Fuzz.fuzz_random_policy 3) p
    in
    Runtime.Inject.(r, injected_aborts (), injected_stalls (), injected_stretches ())
  in
  Runtime.Inject.arm ~seed:7 Runtime.Inject.abort_storm;
  let first, second =
    Fun.protect ~finally:Runtime.Inject.disarm (fun () ->
        let first = run () in
        (first, run ()))
  in
  let _, aborts, _, _ = first in
  Alcotest.(check bool) "the storm struck" true (aborts > 0);
  Alcotest.(check bool) "same faults, same verdict" true (first = second)

(* --- end-to-end teeth: the broken engine is caught ---------------------- *)

let test_broken_engine_caught () =
  (* swisstm with validation disabled must produce a checkable violation
     within the smoke budget; this is the in-suite version of
     [stm_fuzz --self-check]. *)
  let st =
    Check.Fuzz.fuzz ~spec:Engines.swisstm_broken ~name:"swisstm-broken"
      ~make_policy:Check.Fuzz.fuzz_random_policy ~seeds:8 ~progs:10 ~threads:3
      ~stop_after:1 ()
  in
  Alcotest.(check bool)
    "broken engine caught" true
    (st.Check.Fuzz.failures <> [])

let suite =
  [
    ( "check:opacity",
      [
        Alcotest.test_case "accepts sequential history" `Quick
          test_simple_opaque;
        Alcotest.test_case "accepts read-your-own-write" `Quick
          test_read_your_own_write;
        Alcotest.test_case "accepts commuted witness (backtracking)" `Quick
          test_commuted_witness;
        Alcotest.test_case "accepts consistent aborted attempt" `Quick
          test_aborted_consistent;
        Alcotest.test_case "rejects write skew" `Quick test_write_skew;
        Alcotest.test_case "enforces real-time order" `Quick
          test_real_time_order_enforced;
        Alcotest.test_case "rejects final-state mismatch" `Quick
          test_final_state_mismatch;
        Alcotest.test_case "rejects non-repeatable read" `Quick
          test_non_repeatable_read;
        Alcotest.test_case "rejects RYOW mismatch" `Quick test_ryow_mismatch;
        Alcotest.test_case "rejects zombie read before abort" `Quick
          test_stale_read_then_abort;
        Alcotest.test_case "rejects torn abort snapshot" `Quick
          test_torn_abort_snapshot;
        Alcotest.test_case "flags malformed traces" `Quick test_malformed;
        Alcotest.test_case "gives up on live attempts" `Quick
          test_live_attempt;
        Alcotest.test_case "gives up on partial rollback" `Quick
          test_scope_aborts;
      ] );
    ( "check:fuzzer",
      [
        Alcotest.test_case "policies are deterministic" `Quick
          test_policy_deterministic;
        Alcotest.test_case "policy specs round-trip" `Quick
          test_policy_spec_roundtrip;
        Alcotest.test_case "injected runs replay" `Quick test_inject_replays;
        Alcotest.test_case "program text round-trips" `Quick
          test_program_roundtrip;
        Alcotest.test_case "broken engine is caught" `Slow
          test_broken_engine_caught;
      ] );
  ]

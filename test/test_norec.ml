(* PR-7 battery for the value-based validation family.

   Three layers:
   - unit tests for the [Stm_intf.Vset] value journal (logging,
     revalidation, value-ABA, generation-stamped clear) and the
     [Kernel.Seqlock] state machine norec commits under;
   - QCheck differential runs of norec/tlrw against glock on random
     sequential programs (the same generator test_differential.ml uses
     for the classic engines);
   - concurrent commutative programs over the schedule-perturbation
     matrix (seeded-random and PCT), replayable by (engine, policy,
     program). *)

let check = Alcotest.check

(* --- Vset ------------------------------------------------------------ *)

let test_vset_log_revalidate () =
  let open Stm_intf in
  let v = Vset.create () in
  Alcotest.(check bool) "fresh vset empty" true (Vset.is_empty v);
  let mem = [| 10; 20; 30; 40 |] in
  Vset.log v 0 mem.(0);
  Vset.log v 2 mem.(2);
  Vset.log v 3 mem.(3);
  check Alcotest.int "length" 3 (Vset.length v);
  check Alcotest.int "addr 1" 2 (Vset.addr v 1);
  check Alcotest.int "value 1" 30 (Vset.value v 1);
  let order = ref [] in
  Vset.iter (fun a x -> order := (a, x) :: !order) v;
  check
    Alcotest.(list (pair int int))
    "journal order = insertion order"
    [ (0, 10); (2, 30); (3, 40) ]
    (List.rev !order);
  let read a = mem.(a) in
  Alcotest.(check bool) "revalidate: unchanged memory" true
    (Vset.revalidate ~read v);
  mem.(2) <- 31;
  Alcotest.(check bool) "revalidate: changed value fails" false
    (Vset.revalidate ~read v)

let test_vset_value_aba () =
  let open Stm_intf in
  let v = Vset.create () in
  let mem = [| 7 |] in
  Vset.log v 0 mem.(0);
  (* A -> B -> A: the memory state is indistinguishable from "no write
     happened", so value-based revalidation MUST pass — this is exactly
     the false positive lock-table version validation cannot avoid. *)
  mem.(0) <- 99;
  mem.(0) <- 7;
  Alcotest.(check bool) "A->B->A passes (no false positive)" true
    (Vset.revalidate ~read:(fun a -> mem.(a)) v);
  (* ...and a real change still fails. *)
  mem.(0) <- 99;
  Alcotest.(check bool) "A->B fails" false
    (Vset.revalidate ~read:(fun a -> mem.(a)) v)

let test_vset_clear_generations () =
  let open Stm_intf in
  let v = Vset.create () in
  let boom _ = Alcotest.fail "revalidate touched a cleared entry" in
  Vset.log v 5 55;
  Vset.log v 6 66;
  Vset.clear v;
  Alcotest.(check bool) "empty after clear" true (Vset.is_empty v);
  check Alcotest.int "length 0 after clear" 0 (Vset.length v);
  (* Entries from a previous generation must be invisible to revalidate:
     the read function fails the test if called at all. *)
  Alcotest.(check bool) "revalidate over empty vset" true
    (Vset.revalidate ~read:boom v);
  Vset.iter (fun _ _ -> Alcotest.fail "iter visited a cleared entry") v;
  (* The journal is reusable across generations (a descriptor clears its
     logs at every transaction begin). *)
  for g = 1 to 3 do
    Vset.log v g (g * 10);
    check Alcotest.int "fresh generation length" 1 (Vset.length v);
    Alcotest.(check bool) "fresh generation revalidates" true
      (Vset.revalidate ~read:(fun _ -> g * 10) v);
    Vset.clear v
  done

(* --- Seqlock --------------------------------------------------------- *)

let test_seqlock_state_machine () =
  let open Kernel in
  let l = Seqlock.create () in
  let s0 = Seqlock.read l in
  check Alcotest.int "starts at 0" 0 s0;
  Alcotest.(check bool) "even = unlocked" false (Seqlock.is_locked s0);
  let snap = Seqlock.snapshot l ~on_spin:(fun () -> Alcotest.fail "spun on a free lock") in
  check Alcotest.int "snapshot of a free lock" s0 snap;
  Alcotest.(check bool) "not moved since snapshot" false
    (Seqlock.moved l ~since:snap);
  Alcotest.(check bool) "acquire from snapshot" true
    (Seqlock.try_acquire l ~snapshot:snap);
  Alcotest.(check bool) "locked = odd" true (Seqlock.is_locked (Seqlock.read l));
  Alcotest.(check bool) "moved while locked" true (Seqlock.moved l ~since:snap);
  Alcotest.(check bool) "second acquire from a stale snapshot fails" false
    (Seqlock.try_acquire l ~snapshot:snap);
  Seqlock.release l ~snapshot:snap;
  let s1 = Seqlock.read l in
  Alcotest.(check bool) "released = even" false (Seqlock.is_locked s1);
  check Alcotest.int "release advances by 2" (snap + 2) s1;
  Alcotest.(check bool) "moved after a commit" true (Seqlock.moved l ~since:snap)

(* --- differential + schedule matrix ---------------------------------- *)

let new_engines = [ ("norec", Engines.norec); ("tlrw", Engines.tlrw) ]

(* norec against tl2 directly on top of the usual everyone-vs-glock
   check: the two engines disagree on validation machinery (values vs
   lock-table versions), so equal final heaps over random programs is
   the cheapest whole-family cross-check there is. *)
let norec_vs_tl2 =
  QCheck.Test.make ~name:"norec = tl2 on random sequential programs"
    ~count:50
    (QCheck.make ~print:Test_differential.print_program
       Test_differential.program_gen)
    (fun p ->
      Test_differential.run_program Engines.norec p
      = Test_differential.run_program Engines.tl2 p)

let suite =
  [
    ( "norec",
      [
        Alcotest.test_case "vset log/revalidate" `Quick
          test_vset_log_revalidate;
        Alcotest.test_case "vset value ABA" `Quick test_vset_value_aba;
        Alcotest.test_case "vset clear generations" `Quick
          test_vset_clear_generations;
        Alcotest.test_case "seqlock state machine" `Quick
          test_seqlock_state_machine;
      ] );
    ( "norec-differential",
      List.map
        (fun e -> QCheck_alcotest.to_alcotest (Test_differential.differential e))
        new_engines
      @ [ QCheck_alcotest.to_alcotest norec_vs_tl2 ]
      @ List.map
          (fun e ->
            Alcotest.test_case
              ("concurrent commutative " ^ fst e)
              `Quick
              (Test_differential.test_concurrent_commutative e))
          new_engines
      @ List.concat_map
          (fun e ->
            List.map
              (fun (pname, policy) ->
                Alcotest.test_case
                  (Printf.sprintf "concurrent commutative %s [%s]" (fst e)
                     pname)
                  `Slow
                  (Test_differential.test_concurrent_commutative ~iters:60
                     ~policy e))
              Test_differential.policy_matrix)
          new_engines );
  ]

(* Differential testing: every engine must produce exactly the same final
   heap as the trivially-correct global-lock engine when the SAME
   deterministic program runs single-threaded, and the same SERIALIZABLE
   outcome space when run concurrently (checked via commutative programs
   whose final state is schedule-independent). *)

let check = Alcotest.check

let engines =
  [
    ("swisstm", Engines.swisstm);
    ("swisstm-priv", Engines.swisstm_priv_safe);
    ("tl2", Engines.tl2);
    ("tinystm", Engines.tinystm);
    ("rstm", Engines.rstm);
    ("rstm-lazy", Engines.rstm_with ~acquire:Rstm.Rstm_engine.Lazy ());
    ("rstm-visible", Engines.rstm_with ~visibility:Rstm.Rstm_engine.Visible ());
    ("mvstm", Engines.mvstm);
  ]

(* A tiny random transactional program over [cells] words: each
   transaction is a list of actions interpreted against tx_ops. *)
type action = Rd of int | Wr of int * int | Acc of int * int
  (* Acc (i, j): cells[i] <- cells[i] + cells[j] + 1 *)

type program = action list list (* transactions *)

let cells = 24

let action_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Rd (i mod cells)) nat;
        map (fun (i, v) -> Wr (i mod cells, v mod 1000)) (pair nat nat);
        map (fun (i, j) -> Acc (i mod cells, j mod cells)) (pair nat nat);
      ])

let program_gen : program QCheck.Gen.t =
  QCheck.Gen.(
    list_size (int_range 1 25) (list_size (int_range 1 12) action_gen))

let print_action = function
  | Rd i -> Printf.sprintf "R%d" i
  | Wr (i, v) -> Printf.sprintf "W%d=%d" i v
  | Acc (i, j) -> Printf.sprintf "A%d+=%d" i j

let print_program p =
  String.concat " | "
    (List.map (fun tx -> String.concat "," (List.map print_action tx)) p)

let run_program spec (p : program) =
  let heap = Memory.Heap.create ~words:(1 lsl 16) in
  let base = Memory.Heap.alloc heap cells in
  for i = 0 to cells - 1 do
    Memory.Heap.write heap (base + i) i
  done;
  let e = Engines.make spec heap in
  List.iter
    (fun tx_actions ->
      Stm_intf.Engine.atomic e ~tid:0 (fun tx ->
          List.iter
            (function
              | Rd i -> ignore (tx.read (base + i) : int)
              | Wr (i, v) -> tx.write (base + i) v
              | Acc (i, j) ->
                  tx.write (base + i) (tx.read (base + i) + tx.read (base + j) + 1))
            tx_actions))
    p;
  List.init cells (fun i -> Memory.Heap.read heap (base + i))

let differential (name, spec) =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s = glock on random sequential programs" name)
    ~count:50
    (QCheck.make ~print:print_program program_gen)
    (fun p -> run_program spec p = run_program Engines.glock p)

(* Concurrent determinism: a commutative program (each thread increments a
   disjoint counter and a shared accumulator) must produce the same final
   sums under every engine. *)
let test_concurrent_commutative ?(iters = 120) ?policy (name, spec) () =
  let heap = Memory.Heap.create ~words:(1 lsl 16) in
  let shared = Memory.Heap.alloc heap 1 in
  let mine = Memory.Heap.alloc heap 8 in
  let e = Engines.make spec heap in
  let body tid () =
    for _ = 1 to iters do
      Stm_intf.Engine.atomic e ~tid (fun tx ->
          tx.write (mine + tid) (tx.read (mine + tid) + 1);
          tx.write shared (tx.read shared + 1))
    done
  in
  ignore
    (Runtime.Sim.run ?policy ~cap_cycles:1_000_000_000_000
       (Array.init 4 (fun tid () -> body tid ())));
  check Alcotest.int
    (Printf.sprintf "%s shared total" name)
    (4 * iters)
    (Memory.Heap.read heap shared);
  for tid = 0 to 3 do
    check Alcotest.int "private total" iters (Memory.Heap.read heap (mine + tid))
  done

(* The commutative-program check is schedule-independent by construction,
   so re-run it under perturbed schedules: fixed random and PCT seeds at
   fuzz scale (the benchmark-scale defaults barely reorder these short
   transactions).  Replayable as (engine, policy-spec, this program). *)
let policy_matrix =
  [
    ("random:1", Check.Fuzz.fuzz_random_policy 1);
    ("random:2", Check.Fuzz.fuzz_random_policy 2);
    ("pct:1", Check.Fuzz.fuzz_pct_policy 1);
  ]

let suite =
  [
    ( "differential",
      List.map (fun e -> QCheck_alcotest.to_alcotest (differential e)) engines
      @ List.map
          (fun e ->
            Alcotest.test_case
              ("concurrent commutative " ^ fst e)
              `Quick
              (test_concurrent_commutative e))
          engines
      @ List.concat_map
          (fun e ->
            List.map
              (fun (pname, policy) ->
                Alcotest.test_case
                  (Printf.sprintf "concurrent commutative %s [%s]" (fst e) pname)
                  `Slow
                  (test_concurrent_commutative ~iters:60 ~policy e))
              policy_matrix)
          engines );
  ]

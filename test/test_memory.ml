(* Unit tests for the memory substrate: heap, stripes, fixed point. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- Heap ------------------------------------------------------------- *)

let test_heap_rw () =
  let h = Memory.Heap.create ~words:1024 in
  let a = Memory.Heap.alloc h 4 in
  Memory.Heap.write h a 42;
  Memory.Heap.write h (a + 3) (-7);
  check Alcotest.int "read back" 42 (Memory.Heap.read h a);
  check Alcotest.int "read back 2" (-7) (Memory.Heap.read h (a + 3));
  check Alcotest.int "fresh words zero" 0 (Memory.Heap.read h (a + 1))

let test_heap_null_reserved () =
  let h = Memory.Heap.create ~words:1024 in
  let a = Memory.Heap.alloc h 1 in
  Alcotest.(check bool) "never hands out null" true (a > Memory.Heap.null)

let test_heap_alloc_disjoint () =
  let h = Memory.Heap.create ~words:(1 lsl 18) in
  let blocks = List.init 200 (fun i -> (Memory.Heap.alloc h (1 + (i mod 17)), 1 + (i mod 17))) in
  let sorted = List.sort compare blocks in
  let rec no_overlap = function
    | (a1, n1) :: ((a2, _) :: _ as rest) ->
        a1 + n1 <= a2 && no_overlap rest
    | _ -> true
  in
  Alcotest.(check bool) "blocks disjoint" true (no_overlap sorted)

let test_heap_oom () =
  let h = Memory.Heap.create ~words:128 in
  Alcotest.(check bool) "raises out of memory" true
    (try
       for _ = 1 to 1000 do
         ignore (Memory.Heap.alloc h 8)
       done;
       false
     with Memory.Heap.Out_of_memory _ -> true)

let test_heap_no_chunk_burn_near_exhaustion () =
  (* Regression: a chunk-path allocation that claims a fresh chunk and then
     fails must still record the claimed range — raising first leaked a
     full chunk per failed retry, so smaller requests that fit in the
     chunk's in-bounds prefix spuriously ran out of memory. *)
  let h = Memory.Heap.create ~words:12288 in
  check Alcotest.int "first word" 1 (Memory.Heap.alloc h 1);
  check Alcotest.int "fills first chunk" 2 (Memory.Heap.alloc h 8000);
  Alcotest.(check bool) "second big alloc exhausts" true
    (try
       ignore (Memory.Heap.alloc h 8000);
       false
     with Memory.Heap.Out_of_memory _ -> true);
  (* The failed allocation's chunk starts at 8193 and its in-bounds prefix
     (up to 12288) must remain usable. *)
  check Alcotest.int "prefix still reachable" 8193 (Memory.Heap.alloc h 100)

let test_heap_bounds_checked () =
  let h = Memory.Heap.create ~words:64 in
  Alcotest.(check bool) "read oob rejected" true
    (try
       ignore (Memory.Heap.read h 9999);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "read null rejected" true
    (try
       ignore (Memory.Heap.read h 0);
       false
     with Invalid_argument _ -> true)

let test_heap_large_block () =
  let h = Memory.Heap.create ~words:(1 lsl 16) in
  (* Blocks above the chunk size take the direct path. *)
  let a = Memory.Heap.alloc h 20_000 in
  Memory.Heap.write h (a + 19_999) 5;
  check Alcotest.int "large block usable" 5 (Memory.Heap.read h (a + 19_999))

(* The buffer is zeroed as [alloc] hands it out, not when the heap is
   built: dirty every word first (as a reused buffer may be), and both
   allocation paths still return zeroed words. *)
let test_heap_alloc_zeroes () =
  let h = Memory.Heap.create ~words:(1 lsl 16) in
  for a = 1 to Memory.Heap.capacity h - 1 do
    Memory.Heap.write h a (-1)
  done;
  let all_zero a n =
    List.for_all (fun i -> Memory.Heap.read h (a + i) = 0) (List.init n Fun.id)
  in
  let small = Memory.Heap.alloc h 5 and large = Memory.Heap.alloc h 20_000 in
  Alcotest.(check bool) "chunk block zeroed" true (all_zero small 5);
  Alcotest.(check bool) "large block zeroed" true (all_zero large 20_000)

let test_heap_alloc_per_thread_sharded () =
  (* Allocations from different simulated threads must not overlap. *)
  let h = Memory.Heap.create ~words:(1 lsl 18) in
  let acquired = Array.make 4 [] in
  let body tid () =
    for _ = 1 to 50 do
      acquired.(tid) <- Memory.Heap.alloc h 3 :: acquired.(tid)
    done
  in
  ignore (Runtime.Sim.run (Array.init 4 body));
  let all = Array.to_list acquired |> List.concat |> List.sort compare in
  let rec distinct = function
    | a :: (b :: _ as rest) -> a <> b && distinct rest
    | _ -> true
  in
  Alcotest.(check bool) "addresses distinct" true (distinct all)

(* --- Stripe ------------------------------------------------------------ *)

let test_stripe_default_granularity () =
  let s = Memory.Stripe.create () in
  check Alcotest.int "4 words" 4 (Memory.Stripe.granularity_words s);
  (* Words 0..3 share stripe 0; word 4 starts stripe 1. *)
  Alcotest.(check bool) "0 and 3 same" true (Memory.Stripe.same_stripe s 0 3);
  Alcotest.(check bool) "3 and 4 differ" false (Memory.Stripe.same_stripe s 3 4)

let test_stripe_paper_mapping () =
  (* Paper §3.3: index = (addr >> log2 gran) & (table_size - 1). *)
  let s = Memory.Stripe.create ~granularity_words:4 ~table_bits:8 () in
  check Alcotest.int "mapping" ((1234 lsr 2) land 255) (Memory.Stripe.index s 1234)

let test_stripe_aliasing_wraps () =
  let s = Memory.Stripe.create ~granularity_words:1 ~table_bits:4 () in
  Alcotest.(check bool) "aliases 16 apart" true (Memory.Stripe.same_stripe s 3 19)

let prop_stripe_index_in_table =
  QCheck.Test.make ~name:"stripe index within table" ~count:500
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 6))
    (fun (addr, g) ->
      let s = Memory.Stripe.create ~granularity_words:(1 lsl g) ~table_bits:10 () in
      let i = Memory.Stripe.index s addr in
      i >= 0 && i < Memory.Stripe.table_size s)

let prop_stripe_consecutive_words_share =
  QCheck.Test.make ~name:"words within a stripe share its lock" ~count:500
    QCheck.(pair (int_range 0 100_000) (int_range 1 5))
    (fun (addr, g) ->
      let gran = 1 lsl g in
      let s = Memory.Stripe.create ~granularity_words:gran ~table_bits:16 () in
      let base = addr - (addr mod gran) in
      List.for_all
        (fun k -> Memory.Stripe.same_stripe s base (base + k))
        (List.init gran Fun.id))

let test_stripe_invalid_args () =
  Alcotest.(check bool) "non-pow2 rejected" true
    (try
       ignore (Memory.Stripe.create ~granularity_words:3 ());
       false
     with Invalid_argument _ -> true)

(* --- Fixedpoint ---------------------------------------------------------- *)

let prop_fixedpoint_roundtrip =
  QCheck.Test.make ~name:"fixedpoint roundtrip within eps" ~count:500
    (QCheck.float_range (-1000.) 1000.)
    (fun f ->
      let eps = 2. /. Memory.Fixedpoint.scale in
      Float.abs (Memory.Fixedpoint.to_float (Memory.Fixedpoint.of_float f) -. f)
      < eps)

let prop_fixedpoint_add =
  QCheck.Test.make ~name:"fixedpoint addition tracks float addition" ~count:500
    QCheck.(pair (float_range (-100.) 100.) (float_range (-100.) 100.))
    (fun (a, b) ->
      let fa = Memory.Fixedpoint.of_float a and fb = Memory.Fixedpoint.of_float b in
      let eps = 4. /. Memory.Fixedpoint.scale in
      Float.abs (Memory.Fixedpoint.to_float (Memory.Fixedpoint.add fa fb) -. (a +. b))
      < eps)

let test_fixedpoint_mul_div () =
  let x = Memory.Fixedpoint.of_float 3.5 and y = Memory.Fixedpoint.of_float 2.0 in
  Alcotest.(check (float 0.001)) "mul" 7.0
    (Memory.Fixedpoint.to_float (Memory.Fixedpoint.mul x y));
  Alcotest.(check (float 0.001)) "div" 1.75
    (Memory.Fixedpoint.to_float (Memory.Fixedpoint.div x y));
  Alcotest.(check bool) "div by zero rejected" true
    (try
       ignore (Memory.Fixedpoint.div x 0);
       false
     with Invalid_argument _ -> true)

let test_fixedpoint_int_conversion () =
  Alcotest.(check int) "of_int/to_int" 17
    (Memory.Fixedpoint.to_int_round (Memory.Fixedpoint.of_int 17));
  Alcotest.(check int) "round" 3
    (Memory.Fixedpoint.to_int_round (Memory.Fixedpoint.of_float 2.6))

(* --- Epoch reclaimer --------------------------------------------------- *)

(* Native domains free concurrently under an armed reclaimer, announcing
   quiescent states as they go, so deferrals and reclamations race across
   domains.  Every deferral must be counted and matched by exactly one
   reclamation once the reclaimer is disarmed and drained. *)
let test_epoch_counters_concurrent () =
  let domains = 4 and frees = 20_000 and words = 4 in
  let h = Memory.Heap.create ~words:(1 lsl 18) in
  Memory.Epoch.arm ();
  let worker tid () =
    Runtime.Exec.set_native_tid tid;
    Memory.Epoch.online ~tid;
    for _ = 1 to frees do
      Memory.Heap.free h (Memory.Heap.alloc h words) words;
      Memory.Epoch.quiescent ~tid
    done;
    Memory.Epoch.offline ~tid
  in
  let ds = List.init domains (fun tid -> Domain.spawn (worker tid)) in
  List.iter Domain.join ds;
  Memory.Epoch.disarm ();
  check Alcotest.int "deferred = reclaimed" (Memory.Epoch.deferred ())
    (Memory.Epoch.reclaimed ());
  check Alcotest.int "limbo empty" 0 (Memory.Epoch.limbo_depth ());
  Alcotest.(check bool) "frees were deferred" true
    (Memory.Epoch.deferred () >= domains * frees)

(* Building a heap allocates no free-list storage: a thread's row of 64
   list heads is built on its first [free], so a 16-word heap is the
   buffer and a few per-thread words, not 512 x 64 list heads. *)
let test_heap_create_small () =
  let h = Memory.Heap.create ~words:16 in
  let words = Obj.reachable_words (Obj.repr h) in
  Alcotest.(check bool)
    (Printf.sprintf "%d words reachable <= 2000" words)
    true (words <= 2000);
  let a = Memory.Heap.alloc h 3 in
  Memory.Heap.free h a 3;
  check Alcotest.int "freed block recycled" a (Memory.Heap.alloc h 3)

let suite =
  [
    ( "heap",
      [
        Alcotest.test_case "read/write" `Quick test_heap_rw;
        Alcotest.test_case "null reserved" `Quick test_heap_null_reserved;
        Alcotest.test_case "allocations disjoint" `Quick test_heap_alloc_disjoint;
        Alcotest.test_case "out of memory" `Quick test_heap_oom;
        Alcotest.test_case "no chunk burn near exhaustion" `Quick
          test_heap_no_chunk_burn_near_exhaustion;
        Alcotest.test_case "bounds checked" `Quick test_heap_bounds_checked;
        Alcotest.test_case "large blocks" `Quick test_heap_large_block;
        Alcotest.test_case "alloc zeroes" `Quick test_heap_alloc_zeroes;
        Alcotest.test_case "per-thread sharding" `Quick
          test_heap_alloc_per_thread_sharded;
        Alcotest.test_case "create allocates no free lists" `Quick
          test_heap_create_small;
      ] );
    ( "epoch",
      [
        Alcotest.test_case "counters exact across domains" `Quick
          test_epoch_counters_concurrent;
      ] );
    ( "stripe",
      [
        Alcotest.test_case "default granularity" `Quick
          test_stripe_default_granularity;
        Alcotest.test_case "paper mapping" `Quick test_stripe_paper_mapping;
        Alcotest.test_case "aliasing wraps" `Quick test_stripe_aliasing_wraps;
        Alcotest.test_case "invalid args" `Quick test_stripe_invalid_args;
        qtest prop_stripe_index_in_table;
        qtest prop_stripe_consecutive_words_share;
      ] );
    ( "fixedpoint",
      [
        qtest prop_fixedpoint_roundtrip;
        qtest prop_fixedpoint_add;
        Alcotest.test_case "mul/div" `Quick test_fixedpoint_mul_div;
        Alcotest.test_case "int conversion" `Quick test_fixedpoint_int_conversion;
      ] );
  ]

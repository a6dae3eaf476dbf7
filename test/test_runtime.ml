(* Unit tests for the runtime: RNG, simulator, cost-charging atomics,
   back-off. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- Rng ----------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Runtime.Rng.create 42 and b = Runtime.Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Runtime.Rng.int a 1000) (Runtime.Rng.int b 1000)
  done

(* A draw allocates nothing: the state is not a boxed [int64] field, and
   [int]'s rejection loop is not a closure.  Benchmark set-ups draw
   hundreds of thousands of values, and the CM draws on every back-off. *)
let test_rng_allocation_free () =
  let r = Runtime.Rng.create 7 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (Sys.opaque_identity (Runtime.Rng.int r 97))
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words for 10,000 draws < 100" words)
    true (words < 100.)

let test_rng_thread_streams_differ () =
  let a = Runtime.Rng.for_thread ~seed:1 ~tid:0 in
  let b = Runtime.Rng.for_thread ~seed:1 ~tid:1 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Runtime.Rng.int a 1_000_000 = Runtime.Rng.int b 1_000_000 then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let prop_rng_bounds =
  QCheck.Test.make ~name:"Rng.int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, n) ->
      let rng = Runtime.Rng.create seed in
      let x = Runtime.Rng.int rng n in
      x >= 0 && x < n)

let prop_rng_float_bounds =
  QCheck.Test.make ~name:"Rng.float stays in bounds" ~count:500
    QCheck.(pair small_int (float_range 0.001 1000.))
    (fun (seed, x) ->
      let rng = Runtime.Rng.create seed in
      let f = Runtime.Rng.float rng x in
      f >= 0. && f < x)

let test_rng_uniformity () =
  let rng = Runtime.Rng.create 7 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let i = Runtime.Rng.int rng 10 in
    buckets.(i) <- buckets.(i) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "bucket within 5% of uniform" true
        (abs (c - (n / 10)) < n / 20))
    buckets

let test_rng_no_seed_tid_aliasing () =
  (* Regression: the pre-SplitMix64 derivation added the raw seed to the
     golden-ratio thread offset linearly, so (seed, tid) = (1, 2) and
     (1 + 2*phi, 0) started from the same state and produced identical
     streams.  The avalanched seed must break this family of collisions. *)
  let a = Runtime.Rng.for_thread ~seed:1 ~tid:2 in
  let b = Runtime.Rng.for_thread ~seed:(1 + 0x3C6EF372FE94F82A) ~tid:0 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Runtime.Rng.int a 1_000_000 = Runtime.Rng.int b 1_000_000 then incr same
  done;
  Alcotest.(check bool) "aliased streams now differ" true (!same < 4)

let test_rng_rejection_accepts_large_bounds () =
  (* The rejection loop must terminate and stay in bounds even when the
     bound does not divide the 62-bit draw range (worst rejection rate is
     just under 1/2 at bounds above 2^61). *)
  let rng = Runtime.Rng.create 11 in
  let n = (1 lsl 61) + 3 in
  for _ = 1 to 50 do
    let x = Runtime.Rng.int rng n in
    Alcotest.(check bool) "in bounds" true (x >= 0 && x < n)
  done

(* [Rng.int] draws, reduces and returns inline, calling out only to
   reject.  Its stream is pinned by the digest of the first 10,000 draws
   at four bounds, captured from the out-of-line rejection loop it
   replaced.  The last bound, 2^61 + 1, rejects almost half its draws. *)
let test_rng_int_stream_frozen () =
  List.iter
    (fun (n, digest) ->
      let rng = Runtime.Rng.create 5 in
      let buf = Buffer.create 65_536 in
      for _ = 1 to 10_000 do
        Buffer.add_string buf (string_of_int (Runtime.Rng.int rng n));
        Buffer.add_char buf ';'
      done;
      check Alcotest.string
        (Printf.sprintf "bound %d" n)
        digest
        (Digest.to_hex (Digest.string (Buffer.contents buf))))
    [
      (1, "94dd72db4df2142ff937437d55f0e375");
      (3, "e2caa2a15020931fa8c169f61f647606");
      (97, "77b6e60b2a9dda00c58ddf59006a7983");
      ((1 lsl 61) + 1, "fdda4b8df361f7eaa4c296a7c5be4613");
    ]

let test_rng_shuffle_permutation () =
  let rng = Runtime.Rng.create 3 in
  let arr = Array.init 100 Fun.id in
  Runtime.Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check Alcotest.(array int) "is a permutation" (Array.init 100 Fun.id) sorted

(* --- Sim ------------------------------------------------------------------ *)

let test_sim_min_time_order () =
  (* Thread i ticks i+1 per step: events must interleave in virtual-time
     order, as checked via a recorded trace. *)
  let log = ref [] in
  let body tid () =
    for step = 1 to 3 do
      Runtime.Exec.tick (100 * (tid + 1));
      log := (Runtime.Exec.now (), tid, step) :: !log
    done
  in
  ignore (Runtime.Sim.run (Array.init 3 body));
  let events = List.rev !log in
  let times = List.map (fun (t, _, _) -> t) events in
  let rec nondecreasing = function
    | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "virtual times nondecreasing" true (nondecreasing times)

let test_sim_deterministic () =
  let run () =
    let log = Buffer.create 64 in
    let body tid () =
      let rng = Runtime.Rng.for_thread ~seed:5 ~tid in
      for _ = 1 to 20 do
        Runtime.Exec.tick (1 + Runtime.Rng.int rng 50);
        Buffer.add_string log (Printf.sprintf "%d@%d;" tid (Runtime.Exec.now ()))
      done
    in
    ignore (Runtime.Sim.run (Array.init 4 body));
    Buffer.contents log
  in
  check Alcotest.string "identical traces" (run ()) (run ())

let test_sim_final_vtimes () =
  let body tid () = Runtime.Exec.tick (10 * (tid + 1)) in
  let vts = Runtime.Sim.run (Array.init 3 body) in
  check Alcotest.(array int) "per-thread totals" [| 10; 20; 30 |] vts

let test_sim_timeout () =
  let body () = while true do Runtime.Exec.tick 1000 done in
  Alcotest.check_raises "livelock detected"
    (Runtime.Sim.Timeout 1_001_000)
    (fun () -> ignore (Runtime.Sim.run ~cap_cycles:1_000_000 [| body |]))

let test_sim_nested_rejected () =
  let body () = ignore (Runtime.Sim.run [| (fun () -> ()) |]) in
  Alcotest.check_raises "nested sim rejected" Runtime.Sim.Nested_simulation
    (fun () -> ignore (Runtime.Sim.run [| body |]))

let test_sim_empty () =
  check Alcotest.(array int) "empty run" [||] (Runtime.Sim.run [||])

let test_sim_exception_propagates_and_resets () =
  (try ignore (Runtime.Sim.run [| (fun () -> failwith "boom") |]) with
  | Failure _ -> ());
  Alcotest.(check bool) "exec state reset" false (Runtime.Exec.in_sim ());
  (* The simulator must be reusable after a crash. *)
  let vts = Runtime.Sim.run [| (fun () -> Runtime.Exec.tick 5) |] in
  check Alcotest.(array int) "usable after crash" [| 5 |] vts

let test_exec_outside_sim () =
  Alcotest.(check bool) "not in sim" false (Runtime.Exec.in_sim ());
  Runtime.Exec.tick 1_000;
  check Alcotest.int "now is 0 outside" 0 (Runtime.Exec.now ());
  check Alcotest.int "self is 0 outside" 0 (Runtime.Exec.self ())

let test_exec_pause_advances_time () =
  let final = ref 0 in
  let body () =
    for _ = 1 to 10 do
      Runtime.Exec.pause ()
    done;
    final := Runtime.Exec.now ()
  in
  ignore (Runtime.Sim.run [| body |]);
  check Alcotest.int "10 pauses" (10 * (Runtime.Costs.get ()).pause) !final

(* --- Tmatomic ------------------------------------------------------------- *)

let costs = Runtime.Costs.default

let measure body =
  let v = Runtime.Sim.run [| body |] in
  v.(0)

let test_tmatomic_read_miss_then_hit () =
  let a = Runtime.Tmatomic.make 1 in
  let t =
    measure (fun () ->
        ignore (Runtime.Tmatomic.get a);
        ignore (Runtime.Tmatomic.get a))
  in
  (* First access misses; an immediately repeated access by the same
     thread takes the ~free local fast path. *)
  check Alcotest.int "miss + local re-access" (costs.miss_socket + 1) t

let test_tmatomic_write_invalidate () =
  let a = Runtime.Tmatomic.make 0 in
  (* Thread 1 writes after thread 0 read: both pay misses; thread 0's
     second read misses again (invalidated). *)
  let t0_second_read = ref 0 in
  let body tid () =
    if tid = 0 then begin
      ignore (Runtime.Tmatomic.get a);
      Runtime.Exec.tick 1_000;
      let before = Runtime.Exec.now () in
      ignore (Runtime.Tmatomic.get a);
      t0_second_read := Runtime.Exec.now () - before
    end
    else begin
      Runtime.Exec.tick 300;
      Runtime.Tmatomic.set a 5
    end
  in
  ignore (Runtime.Sim.run (Array.init 2 body));
  (* A remote write invalidates the line: the re-read is a coherence miss
     (possibly amplified by the hot-line queue model, never below base). *)
  Alcotest.(check bool)
    (Printf.sprintf "second read misses after remote write (%d)" !t0_second_read)
    true
    (!t0_second_read >= costs.miss_socket)

let test_tmatomic_shared_line () =
  let line = Runtime.Tmatomic.fresh_line () in
  let a = Runtime.Tmatomic.make_shared line 0 in
  let b = Runtime.Tmatomic.make_shared line 0 in
  let t =
    measure (fun () ->
        ignore (Runtime.Tmatomic.get a);
        ignore (Runtime.Tmatomic.get b))
  in
  check Alcotest.int "second cell on same line is a local re-access"
    (costs.miss_socket + 1) t

let test_tmatomic_semantics () =
  let a = Runtime.Tmatomic.make 10 in
  Alcotest.(check bool) "cas succeeds" true
    (Runtime.Tmatomic.cas a ~expect:10 ~replace:20);
  Alcotest.(check bool) "cas fails" false
    (Runtime.Tmatomic.cas a ~expect:10 ~replace:30);
  check Alcotest.int "value" 20 (Runtime.Tmatomic.unsafe_get a);
  check Alcotest.int "faa returns old" 20 (Runtime.Tmatomic.fetch_and_add a 5);
  check Alcotest.int "incr_get returns new" 26 (Runtime.Tmatomic.incr_get a)

let test_tmatomic_native_mode_uncharged () =
  (* Outside a simulation the model fields must not be touched. *)
  let a = Runtime.Tmatomic.make 0 in
  ignore (Runtime.Tmatomic.get a);
  Runtime.Tmatomic.set a 1;
  check Alcotest.int "native ops work" 1 (Runtime.Tmatomic.unsafe_get a)

(* The one-block cell on 2 native domains: fetch-and-add and CAS loops
   lose no increment, and each domain's set/get on its own cell (on the
   same modelled line) reads back what it wrote, while minor collections
   move the cells out of the minor heap mid-run. *)
let test_tmatomic_native_exact () =
  let n = 100_000 in
  let line = Runtime.Tmatomic.fresh_line () in
  let faa = Runtime.Tmatomic.make_shared line 0
  and cas = Runtime.Tmatomic.make_shared line 0 in
  let own = Array.init 2 (fun _ -> Runtime.Tmatomic.make_shared line 0) in
  let rec cas_incr c =
    let v = Runtime.Tmatomic.get c in
    if not (Runtime.Tmatomic.cas c ~expect:v ~replace:(v + 1)) then cas_incr c
  in
  let worker d () =
    let lost = ref 0 in
    for i = 1 to n do
      ignore (Runtime.Tmatomic.fetch_and_add faa 1 : int);
      cas_incr cas;
      Runtime.Tmatomic.set own.(d) i;
      if Runtime.Tmatomic.get own.(d) <> i then incr lost;
      if d = 0 && i land 16383 = 0 then Gc.minor ()
    done;
    !lost
  in
  let lost = List.map Domain.join (List.init 2 (fun d -> Domain.spawn (worker d))) in
  check Alcotest.int "fetch_and_add total" (2 * n) (Runtime.Tmatomic.unsafe_get faa);
  check Alcotest.int "cas total" (2 * n) (Runtime.Tmatomic.unsafe_get cas);
  check Alcotest.(list int) "set/get round trips lost" [ 0; 0 ] lost;
  check Alcotest.(pair int int) "own cells final" (n, n)
    (Runtime.Tmatomic.unsafe_get own.(0), Runtime.Tmatomic.unsafe_get own.(1))

(* --- Tid_table ------------------------------------------------------------- *)

(* A slot is built once, by its first [get], and only then: [iter] and
   [fold] see the built entries in slot order, never the sentinel. *)
let test_tid_table () =
  let built = ref [] in
  let t =
    Runtime.Tid_table.create ~absent:(ref (-1)) (fun tid ->
        built := tid :: !built;
        ref tid)
  in
  let e5 = Runtime.Tid_table.get t 5 in
  let e2 = Runtime.Tid_table.get t 2 in
  Alcotest.(check bool) "same entry on re-access" true
    (Runtime.Tid_table.get t 5 == e5 && Runtime.Tid_table.get t 2 == e2);
  check Alcotest.(list int) "built once each, on first use" [ 2; 5 ] !built;
  let seen = ref [] in
  Runtime.Tid_table.iter (fun r -> seen := !r :: !seen) t;
  check Alcotest.(list int) "iter: built slots in order" [ 5; 2 ] !seen;
  check Alcotest.int "fold: built slots only" 7
    (Runtime.Tid_table.fold (fun acc r -> acc + !r) 0 t);
  Alcotest.check_raises "out of range" (Invalid_argument "index out of bounds")
    (fun () -> ignore (Runtime.Tid_table.get t Runtime.Topology.max_cores : int ref))

(* --- Line_table ------------------------------------------------------------ *)

(* A line built on first touch holds its initial values and is one
   modelled cache line, charged exactly like eagerly built [make_shared]
   cells; later accesses return the same cells.  Only the touched chunk
   is allocated: the untouched ones stay the one shared absent chunk. *)
let test_line_table_first_touch () =
  let t = Runtime.Line_table.create 2048 ~init:[| 3; 5 |] in
  Alcotest.(check bool) "untouched" true
    (Runtime.Line_table.slot t 2 == Runtime.Line_table.absent);
  let a = Runtime.Line_table.cell t 2 0 and b = Runtime.Line_table.cell t 2 1 in
  check Alcotest.(pair int int) "initial values" (3, 5)
    (Runtime.Tmatomic.unsafe_get a, Runtime.Tmatomic.unsafe_get b);
  Alcotest.(check bool) "same cells on re-access" true
    (Runtime.Line_table.cell t 2 0 == a
    && (Runtime.Line_table.slot t 2).(1) == b);
  Alcotest.(check bool) "neighbours untouched" true
    (Runtime.Line_table.slot t 1 == Runtime.Line_table.absent
    && Runtime.Line_table.slot t 3 == Runtime.Line_table.absent);
  Alcotest.(check bool) "only the touched chunk allocated" true
    (t.chunks.(0) != t.chunks.(1) && t.chunks.(1) == t.chunks.(3));
  let fresh = Runtime.Line_table.create 1 ~init:[| 0; 0 |] in
  let cycles =
    measure (fun () ->
        ignore (Runtime.Tmatomic.get (Runtime.Line_table.cell fresh 0 0));
        ignore (Runtime.Tmatomic.get (Runtime.Line_table.cell fresh 0 1)))
  in
  check Alcotest.int "two cells share one line, first touch free"
    (costs.miss_socket + 1) cycles

(* Native domains race on the first touch of untouched lines: every
   domain must get the physically same cells, so no increment is lost to
   a line built twice. *)
let test_line_table_native_race () =
  let domains = 4 and lines = 1 lsl 16 and width = 2 and incs = 2 in
  let t = Runtime.Line_table.create lines ~init:(Array.make width 0) in
  let ready = Atomic.make 0 in
  let seen =
    Array.init domains (fun _ -> Array.make (lines * width) (Runtime.Tmatomic.make 0))
  in
  let rec cas_incr c =
    let v = Runtime.Tmatomic.get c in
    if not (Runtime.Tmatomic.cas c ~expect:v ~replace:(v + 1)) then cas_incr c
  in
  let worker d () =
    Atomic.incr ready;
    while Atomic.get ready < domains do
      Domain.cpu_relax ()
    done;
    for l = 0 to lines - 1 do
      for w = 0 to width - 1 do
        let c = Runtime.Line_table.cell t l w in
        seen.(d).((l * width) + w) <- c;
        for _ = 1 to incs do
          cas_incr c
        done
      done
    done
  in
  List.iter Domain.join (List.init domains (fun d -> Domain.spawn (worker d)));
  let lost = ref 0 and split = ref 0 in
  for l = 0 to lines - 1 do
    for w = 0 to width - 1 do
      let c = Runtime.Line_table.cell t l w in
      if Runtime.Tmatomic.unsafe_get c <> domains * incs then incr lost;
      for d = 0 to domains - 1 do
        if seen.(d).((l * width) + w) != c then incr split
      done
    done
  done;
  check Alcotest.int "cells whose sum is not exact" 0 !lost;
  check Alcotest.int "cells not physically shared" 0 !split

(* --- Backoff --------------------------------------------------------------- *)

let prop_backoff_linear_bounds =
  QCheck.Test.make ~name:"linear backoff bounded" ~count:300
    QCheck.(pair small_int (int_range 1 50))
    (fun (seed, attempt) ->
      let rng = Runtime.Rng.create seed in
      let d =
        Runtime.Backoff.delay
          (Runtime.Backoff.Linear { base = 100; cap = 2_000 })
          rng ~attempt
      in
      d >= 0 && d <= min 2_000 (100 * attempt))

let prop_backoff_exponential_bounds =
  QCheck.Test.make ~name:"exponential backoff bounded" ~count:300
    QCheck.(pair small_int (int_range 1 64))
    (fun (seed, attempt) ->
      let rng = Runtime.Rng.create seed in
      let d =
        Runtime.Backoff.delay
          (Runtime.Backoff.Exponential { base = 10; cap = 5_000 })
          rng ~attempt
      in
      d >= 0 && d <= 5_000)

let test_backoff_none () =
  let rng = Runtime.Rng.create 1 in
  check Alcotest.int "no backoff" 0
    (Runtime.Backoff.delay Runtime.Backoff.No_backoff rng ~attempt:10)

let test_backoff_waits_in_sim () =
  let t =
    measure (fun () -> Runtime.Backoff.wait_cycles 12_345)
  in
  check Alcotest.int "wait charges virtual time" 12_345 t

let test_backoff_linear_overflow () =
  (* Regression: [base * attempt] overflowed to a negative span for the
     unbounded attempt counts an abort storm produces, and [Rng.int]
     raises on non-positive bounds. *)
  let rng = Runtime.Rng.create 9 in
  List.iter
    (fun attempt ->
      let d =
        Runtime.Backoff.delay Runtime.Backoff.default_linear rng ~attempt
      in
      Alcotest.(check bool)
        (Printf.sprintf "attempt %d within cap" attempt)
        true
        (d >= 0 && d <= 3_000_000))
    [ 1_000; 1_000_000; max_int / 3_000; max_int ]

let test_backoff_native_short_waits () =
  (* Native path: waits under 8 cycles used to be dropped entirely
     ([cycles / 8] spins).  This only checks the call completes and takes
     the native branch — the rounding itself is a code invariant. *)
  Alcotest.(check bool) "not in sim" false (Runtime.Exec.in_sim ());
  Runtime.Backoff.wait_cycles 1;
  Runtime.Backoff.wait_cycles 7;
  Runtime.Backoff.wait_cycles 8;
  ()

(* --- Inject ----------------------------------------------------------------- *)

let storm = Runtime.Inject.abort_storm

let test_inject_deterministic () =
  let draws () =
    Runtime.Inject.arm ~seed:5 storm;
    let seq =
      List.init 200 (fun i ->
          Runtime.Inject.spurious_abort ~tid:(i land 3))
    in
    Runtime.Inject.disarm ();
    (seq, Runtime.Inject.injected_aborts ())
  in
  let s1, n1 = draws () in
  let s2, n2 = draws () in
  Alcotest.(check (list bool)) "same fault sequence" s1 s2;
  check Alcotest.int "same telemetry" n1 n2;
  Alcotest.(check bool) "storm actually fires" true (n1 > 0)

let test_inject_seed_changes_stream () =
  Runtime.Inject.arm ~seed:5 storm;
  let a = List.init 400 (fun _ -> Runtime.Inject.spurious_abort ~tid:0) in
  Runtime.Inject.arm ~seed:6 storm;
  let b = List.init 400 (fun _ -> Runtime.Inject.spurious_abort ~tid:0) in
  Runtime.Inject.disarm ();
  Alcotest.(check bool) "different seeds, different faults" true (a <> b)

let test_inject_exemption () =
  Runtime.Inject.arm ~seed:7 storm;
  Runtime.Inject.exempt := 2;
  let condemned = ref 0 in
  for _ = 1 to 2_000 do
    if Runtime.Inject.spurious_abort ~tid:2 then incr condemned;
    Runtime.Inject.stall ~tid:2;
    Runtime.Inject.stretch ~tid:2
  done;
  check Alcotest.int "exempt thread never condemned" 0 !condemned;
  check Alcotest.int "no stalls injected" 0 (Runtime.Inject.injected_stalls ());
  check Alcotest.int "no stretches injected" 0
    (Runtime.Inject.injected_stretches ());
  Runtime.Inject.disarm ();
  Alcotest.(check bool) "disarm clears on" false !Runtime.Inject.on;
  check Alcotest.int "disarm clears exemption" (-1) !Runtime.Inject.exempt

let test_inject_storm_rate () =
  (* abort_storm condemns roughly one access in eight. *)
  Runtime.Inject.arm ~seed:3 storm;
  let n = 20_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Runtime.Inject.spurious_abort ~tid:0 then incr hits
  done;
  Runtime.Inject.disarm ();
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "rate %.3f near 1/8" rate)
    true
    (rate > 0.10 && rate < 0.15)

(* --- Costs ------------------------------------------------------------------ *)

let test_costs_override () =
  let saved = Runtime.Costs.get () in
  Runtime.Costs.set { saved with mem = 99 };
  check Alcotest.int "override visible" 99 (Runtime.Costs.get ()).mem;
  Runtime.Costs.reset ();
  check Alcotest.int "reset restores" Runtime.Costs.default.mem
    (Runtime.Costs.get ()).mem

let suite =
  [
    ( "rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "allocation-free" `Quick test_rng_allocation_free;
        Alcotest.test_case "thread streams differ" `Quick
          test_rng_thread_streams_differ;
        Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
        Alcotest.test_case "no seed/tid aliasing" `Quick
          test_rng_no_seed_tid_aliasing;
        Alcotest.test_case "rejection at large bounds" `Quick
          test_rng_rejection_accepts_large_bounds;
        Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutation;
        Alcotest.test_case "int stream frozen" `Quick test_rng_int_stream_frozen;
        qtest prop_rng_bounds;
        qtest prop_rng_float_bounds;
      ] );
    ( "sim",
      [
        Alcotest.test_case "virtual-time order" `Quick test_sim_min_time_order;
        Alcotest.test_case "deterministic" `Quick test_sim_deterministic;
        Alcotest.test_case "final vtimes" `Quick test_sim_final_vtimes;
        Alcotest.test_case "timeout on livelock" `Quick test_sim_timeout;
        Alcotest.test_case "nested rejected" `Quick test_sim_nested_rejected;
        Alcotest.test_case "empty run" `Quick test_sim_empty;
        Alcotest.test_case "exception resets state" `Quick
          test_sim_exception_propagates_and_resets;
        Alcotest.test_case "exec outside sim" `Quick test_exec_outside_sim;
        Alcotest.test_case "pause advances time" `Quick
          test_exec_pause_advances_time;
      ] );
    ( "tmatomic",
      [
        Alcotest.test_case "read miss then hit" `Quick
          test_tmatomic_read_miss_then_hit;
        Alcotest.test_case "write invalidates readers" `Quick
          test_tmatomic_write_invalidate;
        Alcotest.test_case "shared cache line" `Quick test_tmatomic_shared_line;
        Alcotest.test_case "cas/faa semantics" `Quick test_tmatomic_semantics;
        Alcotest.test_case "native mode" `Quick test_tmatomic_native_mode_uncharged;
        Alcotest.test_case "native domains exact" `Quick test_tmatomic_native_exact;
      ] );
    ("tid-table", [ Alcotest.test_case "built on first use" `Quick test_tid_table ]);
    ( "line-table",
      [
        Alcotest.test_case "first touch" `Quick test_line_table_first_touch;
        Alcotest.test_case "native first-touch race" `Quick
          test_line_table_native_race;
      ] );
    ( "backoff",
      [
        qtest prop_backoff_linear_bounds;
        qtest prop_backoff_exponential_bounds;
        Alcotest.test_case "none" `Quick test_backoff_none;
        Alcotest.test_case "wait charges time" `Quick test_backoff_waits_in_sim;
        Alcotest.test_case "linear overflow clamped" `Quick
          test_backoff_linear_overflow;
        Alcotest.test_case "native short waits" `Quick
          test_backoff_native_short_waits;
      ] );
    ( "inject",
      [
        Alcotest.test_case "deterministic" `Quick test_inject_deterministic;
        Alcotest.test_case "seed changes stream" `Quick
          test_inject_seed_changes_stream;
        Alcotest.test_case "exemption" `Quick test_inject_exemption;
        Alcotest.test_case "storm rate" `Quick test_inject_storm_rate;
      ] );
    ( "costs",
      [ Alcotest.test_case "override/reset" `Quick test_costs_override ] );
  ]

(* --- Ivec -------------------------------------------------------------- *)

let test_ivec () =
  let v = Stm_intf.Ivec.create ~capacity:2 () in
  for i = 1 to 10 do
    Stm_intf.Ivec.push v (i * i)
  done;
  Alcotest.(check int) "length" 10 (Stm_intf.Ivec.length v);
  Alcotest.(check int) "get" 49 (Stm_intf.Ivec.get v 6);
  Stm_intf.Ivec.set v 6 0;
  Alcotest.(check int) "set" 0 (Stm_intf.Ivec.get v 6);
  Stm_intf.Ivec.truncate v 3;
  Alcotest.(check (list int)) "truncate" [ 1; 4; 9 ] (Stm_intf.Ivec.to_list v);
  Alcotest.(check bool) "exists" true (Stm_intf.Ivec.exists (fun x -> x = 4) v);
  Alcotest.(check bool) "bounds" true
    (try
       ignore (Stm_intf.Ivec.get v 3);
       false
     with Invalid_argument _ -> true);
  Stm_intf.Ivec.clear v;
  Alcotest.(check int) "clear" 0 (Stm_intf.Ivec.length v)

let test_costs_env () =
  Unix.putenv "SWISSTM_COSTS" "mem=42,cache_miss=99,bogus=1";
  Runtime.Costs.apply_env ();
  Alcotest.(check int) "mem overridden" 42 (Runtime.Costs.get ()).mem;
  Alcotest.(check int) "miss overridden" 99 (Runtime.Costs.get ()).miss_socket;
  Unix.putenv "SWISSTM_COSTS" "";
  Runtime.Costs.reset ();
  Alcotest.(check int) "reset" Runtime.Costs.default.mem (Runtime.Costs.get ()).mem

let suite =
  suite
  @ [
      ("ivec", [ Alcotest.test_case "basic ops" `Quick test_ivec ]);
      ("costs-env", [ Alcotest.test_case "SWISSTM_COSTS" `Quick test_costs_env ]);
    ]

(* --- Topology (PR 10) --------------------------------------------------- *)

(* Every topology test restores the flat default: the topology is a
   process-wide setting and the rest of the suite depends on it. *)
let with_topology topo f =
  Runtime.Topology.set topo;
  Fun.protect ~finally:Runtime.Topology.reset f

let test_topology_make_validation () =
  let bad label f =
    Alcotest.(check bool) label true
      (try ignore (f ()); false with Invalid_argument _ -> true)
  in
  bad "zero sockets" (fun () ->
      Runtime.Topology.make ~sockets:0 ~cores_per_socket:4);
  bad "zero cores per socket" (fun () ->
      Runtime.Topology.make ~sockets:4 ~cores_per_socket:0);
  bad "product over max_cores" (fun () ->
      Runtime.Topology.make ~sockets:64 ~cores_per_socket:64);
  let t = Runtime.Topology.make ~sockets:4 ~cores_per_socket:32 in
  check Alcotest.int "cores" 128 (Runtime.Topology.cores t);
  check Alcotest.int "flat spans max_cores" Runtime.Topology.max_cores
    (Runtime.Topology.cores Runtime.Topology.flat)

let test_topology_placement () =
  with_topology (Runtime.Topology.make ~sockets:4 ~cores_per_socket:32)
    (fun () ->
      Alcotest.(check bool) "not flat" false (Runtime.Topology.is_flat ());
      check Alcotest.int "tid 0 on socket 0" 0 (Runtime.Topology.socket_of_tid 0);
      check Alcotest.int "tid 31 on socket 0" 0
        (Runtime.Topology.socket_of_tid 31);
      check Alcotest.int "tid 32 on socket 1" 1
        (Runtime.Topology.socket_of_tid 32);
      check Alcotest.int "tid 127 on socket 3" 3
        (Runtime.Topology.socket_of_tid 127);
      (* tids wrap onto cores mod cores: placement is total over all tids *)
      check Alcotest.int "tid 128 wraps to core 0" 0
        (Runtime.Topology.core_of_tid 128);
      check Alcotest.int "tid 128 wraps to socket 0" 0
        (Runtime.Topology.socket_of_tid 128));
  Alcotest.(check bool) "flat restored" true (Runtime.Topology.is_flat ())

(* [socket_of_tid] reads a table that [set] rebuilds: it must agree with
   the placement formula for every tid under every shape, and again once
   [reset] restores flat. *)
let test_topology_socket_table () =
  let module T = Runtime.Topology in
  let agree label =
    let t = T.get () in
    for tid = 0 to T.max_cores - 1 do
      let want = tid mod T.cores t / t.cores_per_socket in
      if T.socket_of_tid tid <> want then
        Alcotest.failf "%s: socket_of_tid %d = %d, expected %d" label tid
          (T.socket_of_tid tid) want
    done
  in
  List.iter
    (fun (label, topo) ->
      with_topology topo (fun () -> agree label);
      agree (label ^ ", then reset"))
    [
      ("flat", T.flat);
      ("2x4", T.make ~sockets:2 ~cores_per_socket:4);
      ("8x64", T.make ~sockets:8 ~cores_per_socket:64);
      ("64x8", T.make ~sockets:64 ~cores_per_socket:8);
    ]

let test_topology_socket_counters () =
  with_topology (Runtime.Topology.make ~sockets:2 ~cores_per_socket:4)
    (fun () ->
      Runtime.Topology.count_hit ~socket:0;
      Runtime.Topology.count_hit ~socket:0;
      Runtime.Topology.count_miss ~socket:1;
      Runtime.Topology.count_steal ~socket:1;
      check
        Alcotest.(array (triple int int int))
        "per-socket counters" [| (2, 0, 0); (0, 1, 1) |]
        (Runtime.Topology.socket_counters ());
      (* [set] must reset counters and directory state: two identical runs
         never share queuing history. *)
      Runtime.Topology.set (Runtime.Topology.make ~sockets:2 ~cores_per_socket:4);
      check
        Alcotest.(array (triple int int int))
        "set resets counters" [| (0, 0, 0); (0, 0, 0) |]
        (Runtime.Topology.socket_counters ()))

(* A multi-socket topology whose active threads all sit on one socket must
   charge exactly the flat model: this is the degeneracy that keeps the
   frozen <=8-thread gates meaningful under the new cost model.  The
   workload keeps writer and reader roles separate so every miss is a
   same-socket transfer (la <> c) in both models. *)
let ping_pong_vtimes ?(tick_scale = 1) ~reader_tid () =
  let cell = Runtime.Tmatomic.make 0 in
  let body tid () =
    if tid = 0 then
      for i = 1 to 40 do
        Runtime.Exec.tick (150 * tick_scale);
        Runtime.Tmatomic.set cell i
      done
    else if tid = reader_tid then
      for _ = 1 to 40 do
        Runtime.Exec.tick (170 * tick_scale);
        ignore (Runtime.Tmatomic.get cell)
      done
  in
  Runtime.Sim.run (Array.init (reader_tid + 1) body)

let test_topology_single_socket_degeneracy () =
  let flat = ping_pong_vtimes ~reader_tid:1 () in
  let numa =
    with_topology (Runtime.Topology.make ~sockets:16 ~cores_per_socket:32)
      (fun () -> ping_pong_vtimes ~reader_tid:1 ())
  in
  check Alcotest.(array int) "same-socket run bit-identical to flat" flat numa

let test_topology_cross_socket_costs_more () =
  (* Sparse ticks (beyond the hot-line queue window) so the comparison is
     pure transfer distance, not queue dynamics. *)
  let same_socket =
    with_topology (Runtime.Topology.make ~sockets:16 ~cores_per_socket:32)
      (fun () -> ping_pong_vtimes ~tick_scale:10 ~reader_tid:1 ())
  in
  let cross_socket =
    with_topology (Runtime.Topology.make ~sockets:16 ~cores_per_socket:32)
      (fun () -> ping_pong_vtimes ~tick_scale:10 ~reader_tid:32 ())
  in
  Alcotest.(check bool)
    (Printf.sprintf "cross-socket reader slower (%d > %d)"
       cross_socket.(32) same_socket.(1))
    true
    (cross_socket.(32) > same_socket.(1))

(* Regression for the pre-PR-10 reader bitmask: [1 lsl (c land 63)]
   silently aliased tid 64 onto tid 0's reader bit, so after a read by
   tid 64, tid 0 was charged a phantom hit on a line it never touched.
   With the real reader set, tid 0's first read must be a full miss. *)
let test_tmatomic_no_tid_aliasing_at_65_threads () =
  let cell = Runtime.Tmatomic.make 7 in
  let excl = Runtime.Tmatomic.make 0 in
  let tid0_read = ref 0 and tid64_reread = ref 0 and tid64_rewrite = ref 0 in
  let body tid () =
    if tid = 64 then begin
      ignore (Runtime.Tmatomic.get cell);
      let b = Runtime.Exec.now () in
      ignore (Runtime.Tmatomic.get cell);
      tid64_reread := Runtime.Exec.now () - b;
      (* Exclusivity must also work through the overflow words: a second
         write by the sole owner/reader is a local hit. *)
      Runtime.Tmatomic.set excl 1;
      let b = Runtime.Exec.now () in
      Runtime.Tmatomic.set excl 2;
      tid64_rewrite := Runtime.Exec.now () - b
    end
    else if tid = 0 then begin
      Runtime.Exec.tick 2_000;
      let b = Runtime.Exec.now () in
      ignore (Runtime.Tmatomic.get cell);
      tid0_read := Runtime.Exec.now () - b
    end
  in
  ignore (Runtime.Sim.run (Array.init 65 body));
  Alcotest.(check bool)
    (Printf.sprintf "tid 0 pays a real miss after tid 64's read (%d)"
       !tid0_read)
    true
    (!tid0_read >= costs.miss_socket);
  Alcotest.(check bool)
    (Printf.sprintf "tid 64 re-read is a hit (%d)" !tid64_reread)
    true
    (!tid64_reread <= costs.atomic_hit);
  check Alcotest.int "tid 64 exclusive re-write is local" 1 !tid64_rewrite

(* Distance must be monotone: for any same-socket reader r1 and
   cross-socket reader r2 of a line homed at socket 0, r1's transfer is
   cheaper.  Reads are spaced > queue_window apart so the per-line queue
   stays cold and the costs are pure distance. *)
let prop_distance_monotone =
  QCheck.Test.make ~name:"NUMA distance costs are monotone" ~count:25
    QCheck.(pair (int_range 1 31) (int_range 32 511))
    (fun (r1, r2) ->
      with_topology (Runtime.Topology.make ~sockets:16 ~cores_per_socket:32)
        (fun () ->
          let cell = Runtime.Tmatomic.make 0 in
          let cost1 = ref 0 and cost2 = ref 0 in
          let body tid () =
            if tid = 0 then ignore (Runtime.Tmatomic.get cell)
            else if tid = r1 then begin
              Runtime.Exec.tick 2_000;
              let b = Runtime.Exec.now () in
              ignore (Runtime.Tmatomic.get cell);
              cost1 := Runtime.Exec.now () - b
            end
            else if tid = r2 then begin
              Runtime.Exec.tick 10_000;
              let b = Runtime.Exec.now () in
              ignore (Runtime.Tmatomic.get cell);
              cost2 := Runtime.Exec.now () - b
            end
          in
          ignore (Runtime.Sim.run (Array.init (r2 + 1) body));
          !cost1 = costs.miss_socket
          && !cost2 >= costs.miss_cross
          && !cost1 < !cost2))

let test_costs_distance_ordering () =
  Alcotest.(check bool) "miss_local <= miss_socket <= miss_cross" true
    (costs.miss_local <= costs.miss_socket
    && costs.miss_socket <= costs.miss_cross)

(* --- Sim dispatch ------------------------------------------------------- *)

let with_dispatch_hook hook f =
  let saved_hook = !Runtime.Sim.on_dispatch in
  let saved_enabled = !Runtime.Sim.on_dispatch_enabled in
  Runtime.Sim.on_dispatch := hook;
  Runtime.Sim.on_dispatch_enabled := true;
  Fun.protect
    ~finally:(fun () ->
      Runtime.Sim.on_dispatch := saved_hook;
      Runtime.Sim.on_dispatch_enabled := saved_enabled)
    f

(* The indexed-heap dispatcher replaced O(n) linear searches whose
   schedules every frozen simulated figure was measured under.  The
   searches are gone; what they produced on this 8-thread body is pinned
   here per policy: the digest of the dispatch sequence (the thread id of
   every dispatch decision) and the final vtimes, both captured from the
   linear-search dispatcher. *)
let dispatch_trace ~policy =
  let buf = Buffer.create 256 in
  with_dispatch_hook
    (fun tid -> Buffer.add_string buf (string_of_int tid ^ ";"))
    (fun () ->
      let body tid () =
        let rng = Runtime.Rng.for_thread ~seed:11 ~tid in
        for _ = 1 to 30 do
          Runtime.Exec.tick (1 + Runtime.Rng.int rng 400);
          if Runtime.Rng.int rng 4 = 0 then Runtime.Exec.pause ()
        done
      in
      let vts = Runtime.Sim.run ~policy (Array.init 8 body) in
      (Digest.to_hex (Digest.string (Buffer.contents buf)), vts))

let test_sim_dispatch_frozen () =
  let vtimes = [| 6183; 6801; 6290; 6817; 6254; 6781; 6127; 6847 |] in
  List.iter
    (fun (name, policy, digest) ->
      let got_digest, got_vts = dispatch_trace ~policy in
      check Alcotest.string (name ^ ": same dispatch sequence") digest
        got_digest;
      check Alcotest.(array int) (name ^ ": same final vtimes") vtimes got_vts)
    [
      ("earliest", Runtime.Sim.Earliest_first, "417746d56f91177bb5cc8ae0fd367185");
      ("random", Runtime.Sim.random_policy 3, "31f8d4271d3a51ef1eb5c30b1700d3d8");
      ("pct", Runtime.Sim.pct_policy 5, "9396edb3d289edecec7ffca5a83b49f5");
    ]

(* The same pinning over thread counts that leave the dispatch tree's
   leaf row partly empty (3, 5, 13), a single thread and 64, with bodies
   of unequal length so threads finish, and leave the tree, while others
   still run.  PCT's short horizon makes its change points and lag
   demotions fire; the random policy's narrow window varies the
   candidate set.  Digests of the dispatch sequence and of the final
   vtimes were captured from the indexed-heap dispatcher. *)
let uneven_trace ~threads ~policy =
  let buf = Buffer.create 4096 in
  with_dispatch_hook
    (fun tid -> Buffer.add_string buf (string_of_int tid ^ ";"))
    (fun () ->
      let body tid () =
        let rng = Runtime.Rng.for_thread ~seed:23 ~tid in
        for _ = 1 to 4 + (tid * 7 mod 19) do
          Runtime.Exec.tick (1 + Runtime.Rng.int rng 600);
          if Runtime.Rng.int rng 5 = 0 then Runtime.Exec.pause ()
        done
      in
      let vts = Runtime.Sim.run ~policy (Array.init threads body) in
      let hex s = Digest.to_hex (Digest.string s) in
      ( hex (Buffer.contents buf),
        hex (String.concat ";" (Array.to_list (Array.map string_of_int vts))) ))

let uneven_policies =
  [
    ("earliest", Runtime.Sim.Earliest_first);
    ("random", Runtime.Sim.random_policy ~window:600 ~quantum:300 7);
    ("pct", Runtime.Sim.pct_policy ~depth:6 ~horizon:3_000 9);
  ]

let test_sim_dispatch_uneven_frozen () =
  List.iter
    (fun (threads, name, digest, vtimes) ->
      let policy = List.assoc name uneven_policies in
      let got_digest, got_vtimes = uneven_trace ~threads ~policy in
      let label what = Printf.sprintf "%s, %d threads: %s" name threads what in
      check Alcotest.string (label "dispatch sequence") digest got_digest;
      check Alcotest.string (label "final vtimes") vtimes got_vtimes)
    [
      (1, "earliest", "1fd16a9acfe1ff5a7f2fb1e287d49f94",
        "a9078e8653368c9c291ae2f8b74012e7");
      (1, "random", "d4449deec8bad4cd52a0f0a51310bbb6",
        "a9078e8653368c9c291ae2f8b74012e7");
      (1, "pct", "d4449deec8bad4cd52a0f0a51310bbb6",
        "a9078e8653368c9c291ae2f8b74012e7");
      (3, "earliest", "97b9c5c17bebcca680b1fbd7210678fb",
        "df10596f0b55eca64431eeff2839cfc4");
      (3, "random", "b29cd8af2c65a75da2094ef5ddf897f4",
        "df10596f0b55eca64431eeff2839cfc4");
      (3, "pct", "e9e75329d0057bacaeceb9981d2c243d",
        "df10596f0b55eca64431eeff2839cfc4");
      (5, "earliest", "e9761d605535227076c3dcf075b6e508",
        "4399924def8a468ba6c64260bb569754");
      (5, "random", "4178bc4e8cab83962b4272fb26eb42c9",
        "4399924def8a468ba6c64260bb569754");
      (5, "pct", "8c6e28fa6029de4c8bccf7b22cdb50a9",
        "4399924def8a468ba6c64260bb569754");
      (13, "earliest", "0ad3d5a63f3932b2f15b8132f4f0ece6",
        "cc5914419b7a7e0b1ea8ba5afdea1c91");
      (13, "random", "4f828beb0ce2be26344cd649598fbae0",
        "cc5914419b7a7e0b1ea8ba5afdea1c91");
      (13, "pct", "6c97b3cd0a3049075414d2dfc691789a",
        "cc5914419b7a7e0b1ea8ba5afdea1c91");
      (64, "earliest", "7f07b83098e590fea4da5709265ddaec",
        "69f6f7c216c814b41db54d6e940ecc27");
      (64, "random", "e3d301426e8eecdaf16187283333072d",
        "69f6f7c216c814b41db54d6e940ecc27");
      (64, "pct", "17b0348ce437cdf44e73096d87ec0495",
        "69f6f7c216c814b41db54d6e940ecc27");
    ]

(* Every live thread spins past [cap_cycles]: the [Timeout] payload is
   the smallest live clock at the decision that gives up, pinned per
   policy and thread count. *)
let test_sim_timeout_frozen () =
  let payload ~threads ~policy =
    let body tid () =
      let rng = Runtime.Rng.for_thread ~seed:31 ~tid in
      while true do
        Runtime.Exec.tick (1 + Runtime.Rng.int rng 900);
        if Runtime.Rng.int rng 6 = 0 then Runtime.Exec.pause ()
      done
    in
    match Runtime.Sim.run ~cap_cycles:40_000 ~policy (Array.init threads body) with
    | _ -> -1
    | exception Runtime.Sim.Timeout t -> t
  in
  List.iter
    (fun (threads, name, expected) ->
      check Alcotest.int
        (Printf.sprintf "%s, %d threads" name threads)
        expected
        (payload ~threads ~policy:(List.assoc name uneven_policies)))
    [
      (1, "earliest", 40183);
      (1, "random", 40183);
      (1, "pct", 40183);
      (5, "earliest", 40175);
      (5, "random", 40183);
      (5, "pct", 40302);
      (13, "earliest", 40094);
      (13, "random", 40094);
      (13, "pct", 40314);
    ]

(* A dispatch key packs a clock above a tid field, so the cap (plus the
   random policy's window) must leave room for the tid bits: [run]
   refuses by name, before any thread starts, a cap that does not pack,
   and runs the largest one that does. *)
let test_sim_pack_refusal () =
  let refused ?policy ~threads cap =
    let started = ref false in
    match
      Runtime.Sim.run ?policy ~cap_cycles:cap
        (Array.make threads (fun () -> started := true))
    with
    | _ -> false
    | exception Invalid_argument msg ->
        String.starts_with ~prefix:"Sim.run: cap_cycles" msg && not !started
  in
  let fits ?policy ~threads cap =
    let vts = Runtime.Sim.run ?policy ~cap_cycles:cap (Array.make threads ignore) in
    Array.length vts = threads
  in
  Alcotest.(check bool) "max_int cap, 1 thread" true
    (refused ~threads:1 max_int);
  (* 64 threads take 6 tid bits: clocks up to 2^56 - 2 pack. *)
  Alcotest.(check bool) "2^56 cap, 64 threads" true
    (refused ~threads:64 (1 lsl 56));
  Alcotest.(check bool) "2^56 - 3 cap, 64 threads" true
    (fits ~threads:64 ((1 lsl 56) - 3));
  Alcotest.(check bool) "2^56 cap, 1 thread" true (fits ~threads:1 (1 lsl 56));
  (* 65 threads take 7. *)
  Alcotest.(check bool) "2^55 cap, 65 threads" true
    (refused ~threads:65 (1 lsl 55));
  let policy = Runtime.Sim.random_policy ~window:1_000 1 in
  Alcotest.(check bool) "random window counts" true
    (refused ~policy ~threads:64 ((1 lsl 56) - 1_002));
  Alcotest.(check bool) "random window fits" true
    (fits ~policy ~threads:64 ((1 lsl 56) - 1_003))

(* A yield allocates only the continuation it parks: on an 8-fiber
   [tick 1] loop (every tick a switch), after a warm-up run, a dispatch
   costs at most 4 minor words.  A handler that builds its park closure
   per yield costs 11.  Two loop lengths are differenced so the run's
   fixed setup (state arrays, handlers) cancels out. *)
let test_sim_dispatch_alloc () =
  let dispatches = ref 0 in
  with_dispatch_hook
    (fun _ -> incr dispatches)
    (fun () ->
      let measure ticks =
        dispatches := 0;
        let w0 = Gc.minor_words () in
        ignore
          (Runtime.Sim.run_threads ~threads:8 (fun _ ->
               for _ = 1 to ticks do
                 Runtime.Exec.tick 1
               done)
            : int);
        (Gc.minor_words () -. w0, float_of_int !dispatches)
      in
      ignore (measure 1000);
      let w1, d1 = measure 1000 in
      let w2, d2 = measure 3000 in
      let per = (w2 -. w1) /. (d2 -. d1) in
      Alcotest.(check bool)
        (Printf.sprintf "%.2f minor words per dispatch <= 4" per)
        true (per <= 4.0))

(* --- Steal (PR 10) ------------------------------------------------------- *)

let test_steal_create_validation () =
  let bad label cores =
    Alcotest.(check bool) label true
      (try
         ignore (Runtime.Steal.create ~cores ());
         false
       with Invalid_argument _ -> true)
  in
  bad "zero cores" 0;
  bad "over max_cores" (Runtime.Topology.max_cores + 1)

let test_steal_order_and_counters () =
  (* Owner end is LIFO, thief end is FIFO: with two tasks on core 1, a
     thief takes the oldest and the owner keeps the newest. *)
  Fun.protect ~finally:Runtime.Topology.reset_counters (fun () ->
      let t = Runtime.Steal.create ~cores:2 () in
      let log = ref [] in
      let task name = fun () -> log := name :: !log in
      Runtime.Steal.push t ~core:1 (task "old");
      Runtime.Steal.push t ~core:1 (task "new");
      check Alcotest.int "two pending" 2 (Runtime.Steal.pending t);
      check Alcotest.bool "own deque of core 0 empty" true
        (Runtime.Steal.pop_own t ~core:0 = None);
      (match Runtime.Steal.try_steal t ~core:0 with
      | Some task -> task ()
      | None -> Alcotest.fail "steal from the only victim must succeed");
      (match Runtime.Steal.pop_own t ~core:1 with
      | Some task -> task ()
      | None -> Alcotest.fail "owner pop must find the remaining task");
      check Alcotest.(list string) "thief took oldest, owner newest"
        [ "new"; "old" ] !log;
      check Alcotest.int "none pending" 0 (Runtime.Steal.pending t);
      check Alcotest.int "one steal" 1 (Runtime.Steal.steals t);
      Alcotest.(check bool) "probes counted" true (Runtime.Steal.probes t >= 1))

let test_steal_probe_budget () =
  (* A fruitless round is bounded: at 512 cores an idle thief probes 32
     victims, not 511 — otherwise probe misses dwarf the balanced work. *)
  Fun.protect ~finally:Runtime.Topology.reset_counters (fun () ->
      let t = Runtime.Steal.create ~cores:512 () in
      check Alcotest.bool "fruitless" true
        (Runtime.Steal.try_steal t ~core:0 = None);
      check Alcotest.int "probe budget capped at 32" 32
        (Runtime.Steal.probes t);
      let small = Runtime.Steal.create ~cores:8 () in
      check Alcotest.bool "fruitless small" true
        (Runtime.Steal.try_steal small ~core:3 = None);
      check Alcotest.int "small round probes all 7 victims" 7
        (Runtime.Steal.probes small))

(* Task-parallel mode end to end: equal seeds must reproduce the same
   makespan, steal count and probe count, and a skewed task mix on two
   sockets must actually migrate work. *)
let taskpar_run ~threads ~tasks =
  with_topology
    (Runtime.Topology.make ~sockets:(threads / 32) ~cores_per_socket:32)
    (fun () ->
      Harness.Taskpar.run ~seed:7 ~threads ~tasks (fun ~task ctx ->
          for _ = 1 to 1 + (task mod 4) do
            Runtime.Exec.tick ((1 + (task mod 7)) * 300)
          done;
          if task mod 5 = 0 then
            ctx.Harness.Taskpar.spawn (fun _ -> Runtime.Exec.tick 500)))

let test_taskpar_deterministic () =
  let a = taskpar_run ~threads:64 ~tasks:192 in
  let b = taskpar_run ~threads:64 ~tasks:192 in
  check Alcotest.int "same makespan" a.Harness.Taskpar.elapsed_cycles
    b.Harness.Taskpar.elapsed_cycles;
  check Alcotest.int "same steals" a.steals b.steals;
  check Alcotest.int "same probes" a.probes b.probes;
  check Alcotest.int "all tasks ran (initial + spawned)" (192 + 39) a.tasks;
  Alcotest.(check bool) "skewed mix migrates work" true (a.steals > 0);
  Alcotest.(check bool) "probes dominate steals" true (a.probes >= a.steals)

let test_taskpar_128_cores_with_spawns () =
  (* Regression: [Steal.pop_own] used to charge its cycle tick before
     removing the task; the tick yields, a thief stole the task in the
     window, and the deque's bottom ran below top (Invalid_argument) on
     spawning runs at high core counts.  This shape must just complete. *)
  let r = taskpar_run ~threads:128 ~tasks:256 in
  check Alcotest.int "all tasks ran" (256 + 52) r.Harness.Taskpar.tasks;
  check Alcotest.int "threads as asked" 128 r.threads;
  Alcotest.(check bool) "makespan positive" true (r.elapsed_cycles > 0)

let suite =
  suite
  @ [
      ( "topology",
        [
          Alcotest.test_case "make validation" `Quick
            test_topology_make_validation;
          Alcotest.test_case "tid placement" `Quick test_topology_placement;
          Alcotest.test_case "socket table matches placement" `Quick
            test_topology_socket_table;
          Alcotest.test_case "socket counters" `Quick
            test_topology_socket_counters;
          Alcotest.test_case "single-socket degeneracy" `Quick
            test_topology_single_socket_degeneracy;
          Alcotest.test_case "cross-socket costs more" `Quick
            test_topology_cross_socket_costs_more;
          Alcotest.test_case "no tid aliasing at 65 threads" `Quick
            test_tmatomic_no_tid_aliasing_at_65_threads;
          Alcotest.test_case "distance ordering" `Quick
            test_costs_distance_ordering;
          qtest prop_distance_monotone;
        ] );
      ( "dispatch",
        [
          Alcotest.test_case "frozen schedules under all policies" `Quick
            test_sim_dispatch_frozen;
          Alcotest.test_case "frozen schedules, uneven bodies" `Quick
            test_sim_dispatch_uneven_frozen;
          Alcotest.test_case "frozen timeout payloads" `Quick
            test_sim_timeout_frozen;
          Alcotest.test_case "unpackable cap refused by name" `Quick
            test_sim_pack_refusal;
          Alcotest.test_case "yields allocate <= 4 words per dispatch" `Quick
            test_sim_dispatch_alloc;
        ] );
      ( "steal",
        [
          Alcotest.test_case "create validation" `Quick
            test_steal_create_validation;
          Alcotest.test_case "deque order and counters" `Quick
            test_steal_order_and_counters;
          Alcotest.test_case "probe budget" `Quick test_steal_probe_budget;
          Alcotest.test_case "taskpar deterministic" `Quick
            test_taskpar_deterministic;
          Alcotest.test_case "taskpar 128 cores with spawns" `Quick
            test_taskpar_128_cores_with_spawns;
        ] );
    ]

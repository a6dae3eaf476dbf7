(* Bechamel micro-benchmarks: real (wall-clock) per-operation overhead of
   each engine, single threaded — the implementation-level numbers behind
   the paper's explanation of Figure 5 (RSTM's high single-location access
   cost; SwissTM's two-lock reads costing more than TL2/TinySTM's one). *)

open Bechamel
open Toolkit

let engines =
  [
    ("swisstm", Engines.swisstm);
    ("tl2", Engines.tl2);
    ("tinystm", Engines.tinystm);
    ("rstm", Engines.rstm);
    ("glock", Engines.glock);
  ]

(* One committed transaction doing [reads] reads + [writes] writes over a
   private region (no contention: pure engine overhead). *)
let tx_test name spec ~reads ~writes =
  let heap = Memory.Heap.create ~words:(1 lsl 16) in
  let base = Memory.Heap.alloc heap 256 in
  let engine = Engines.make spec heap in
  Test.make ~name
    (Staged.stage (fun () ->
         Stm_intf.Engine.atomic engine ~tid:0 (fun tx ->
             for i = 0 to reads - 1 do
               ignore (tx.read (base + (i land 255)) : int)
             done;
             for i = 0 to writes - 1 do
               tx.write (base + (i land 255)) i
             done)))

(* Read-after-write heavy: write 8 words, then re-read each of them.  Every
   read hits the redo log, exercising the write-log lookup fast path (and,
   on the miss side, one extra read of a never-written word per tx keeps
   the bloom-filter miss case honest). *)
let raw_test name spec =
  let heap = Memory.Heap.create ~words:(1 lsl 16) in
  let base = Memory.Heap.alloc heap 256 in
  let engine = Engines.make spec heap in
  Test.make ~name
    (Staged.stage (fun () ->
         Stm_intf.Engine.atomic engine ~tid:0 (fun tx ->
             for i = 0 to 7 do
               tx.write (base + i) i
             done;
             for i = 0 to 7 do
               ignore (tx.read (base + i) : int)
             done;
             ignore (tx.read (base + 128) : int))))

(* Read-heavy mix (PR 6): 2 writes then 16 reads, 2 of which hit the
   write log — the shape the allocation-free read set targets. *)
let raw_16r2w_test name spec =
  let heap = Memory.Heap.create ~words:(1 lsl 16) in
  let base = Memory.Heap.alloc heap 256 in
  let engine = Engines.make spec heap in
  Test.make ~name
    (Staged.stage (fun () ->
         Stm_intf.Engine.atomic engine ~tid:0 (fun tx ->
             for i = 0 to 1 do
               tx.write (base + i) i
             done;
             for i = 0 to 15 do
               ignore (tx.read (base + i) : int)
             done)))

(* Cold metadata: 8 reads per transaction at stripes drawn (full-period
   LCG) from 2^16 lines, every one built before timing.  The lines' lock
   words then mostly miss the caches, so beside the hot ro-8reads this
   prices each read's metadata footprint, not its instructions. *)
let cold_lines = 1 lsl 16

let cold_test name (spec : Engines.spec) =
  let stride = spec.granularity_words in
  let heap = Memory.Heap.create ~words:(2 * cold_lines * stride) in
  let base = Memory.Heap.alloc heap (cold_lines * stride) in
  let engine = Engines.make spec heap in
  for chunk = 0 to (cold_lines / 1024) - 1 do
    Stm_intf.Engine.atomic engine ~tid:0 (fun tx ->
        for i = 0 to 1023 do
          ignore (tx.read (base + (((chunk * 1024) + i) * stride)) : int)
        done)
  done;
  let x = ref 0 in
  Test.make ~name
    (Staged.stage (fun () ->
         Stm_intf.Engine.atomic engine ~tid:0 (fun tx ->
             for _ = 1 to 8 do
               x := ((!x * 0x5DEECE66D) + 11) land (cold_lines - 1);
               ignore (tx.read (base + (!x * stride)) : int)
             done)))

let run_one test =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] test in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  results

(* OLS estimate of one run of [test] (named [label]), in ns. *)
let time label test =
  let tbl = run_one test in
  match Hashtbl.find_opt tbl label with
  | Some ols -> (
      match Analyze.OLS.estimates ols with
      | Some (t :: _) -> t
      | _ -> Float.nan)
  | None -> Float.nan

(* --- the simulator's own host cost ---------------------------------------

   What a simulated access costs the host, split the way [Runtime.Sim]
   spends it: a bare effect round trip (perform, park the continuation,
   resume it) is the floor under every switch; [Exec.tick 1] among
   equal clocks switches on every call, so it prices one [Sim] dispatch
   at 2, 8 and 64 fibers; those clocks advance round-robin, so every
   dispatch decision is predictable.  [tick (1 + Rng.int rng 64)] at 8
   fibers makes the earliest thread change unpredictably, as it does in
   a simulated benchmark.  A [Tmatomic] charge inside a 1-fiber
   simulation, which never switches, prices the coherence model. *)

type _ Effect.t += Bare : unit Effect.t

let sim_calls = 8192

let bare_round_trips () =
  let parked = ref None in
  let park =
    Some (fun (k : (unit, unit) Effect.Deep.continuation) -> parked := Some k)
  in
  Effect.Deep.match_with
    (fun () ->
      for _ = 1 to sim_calls do
        Effect.perform Bare
      done)
    ()
    {
      retc = ignore;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) Effect.Deep.continuation -> unit) option ->
          match eff with Bare -> park | _ -> None);
    };
  let rec resume () =
    match !parked with
    | Some k ->
        parked := None;
        Effect.Deep.continue k ();
        resume ()
    | None -> ()
  in
  resume ()

let in_sim ~fibers f () =
  let calls = sim_calls / fibers in
  ignore
    (Runtime.Sim.run_threads ~threads:fibers (fun _ ->
         for _ = 1 to calls do
           f ()
         done)
      : int)

let uneven_ticks ~fibers () =
  let calls = sim_calls / fibers in
  ignore
    (Runtime.Sim.run_threads ~threads:fibers (fun tid ->
         let rng = Runtime.Rng.for_thread ~seed:1 ~tid in
         for _ = 1 to calls do
           Runtime.Exec.tick (1 + Runtime.Rng.int rng 64)
         done)
      : int)

let sim_table () =
  Bench_common.section
    "Micro (Bechamel, real time): simulator host cost per operation";
  let cell = Runtime.Tmatomic.make 0 in
  let cas () =
    let v = Runtime.Tmatomic.unsafe_get cell in
    ignore (Runtime.Tmatomic.cas cell ~expect:v ~replace:(v + 1) : bool)
  in
  let per_call label f =
    time label (Test.make ~name:label (Staged.stage f))
    /. float_of_int sim_calls
  in
  List.iter
    (fun (label, f) -> Printf.printf "%-22s %10.1f ns\n%!" label (per_call label f))
    [
      ("effect round trip", bare_round_trips);
      ("switch, 2 fibers", in_sim ~fibers:2 (fun () -> Runtime.Exec.tick 1));
      ("switch, 8 fibers", in_sim ~fibers:8 (fun () -> Runtime.Exec.tick 1));
      ("switch, 64 fibers", in_sim ~fibers:64 (fun () -> Runtime.Exec.tick 1));
      ("uneven ticks, 8 fibers", uneven_ticks ~fibers:8);
      ( "tmatomic get, 1 fiber",
        in_sim ~fibers:1 (fun () ->
            ignore (Runtime.Tmatomic.get cell : int)) );
      ("tmatomic cas, 1 fiber", in_sim ~fibers:1 cas);
    ]

let run () =
  Bench_common.section
    "Micro (Bechamel, real time): single-threaded transaction overhead";
  Printf.printf "%-10s %15s %15s %15s %15s %15s %15s\n" "engine" "ro-8reads[ns]"
    "rw-8r8w[ns]" "wo-8writes[ns]" "raw-8w8r[ns]" "raw-16r2w[ns]" "cold-8reads[ns]";
  List.iter
    (fun (name, spec) ->
      let ro = time "ro" (tx_test "ro" spec ~reads:8 ~writes:0) in
      let rw = time "rw" (tx_test "rw" spec ~reads:8 ~writes:8) in
      let wo = time "wo" (tx_test "wo" spec ~reads:0 ~writes:8) in
      let raw = time "raw" (raw_test "raw" spec) in
      let raw16 = time "raw-16r2w" (raw_16r2w_test "raw-16r2w" spec) in
      let cold = time "cold" (cold_test "cold" spec) in
      Printf.printf "%-10s %15.1f %15.1f %15.1f %15.1f %15.1f %15.1f\n%!" name ro
        rw wo raw raw16 cold)
    engines;
  sim_table ()

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

let run_one test =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] test in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  results

let run () =
  Bench_common.section
    "Micro (Bechamel, real time): single-threaded transaction overhead";
  Printf.printf "%-10s %15s %15s %15s %15s %15s\n" "engine" "ro-8reads[ns]"
    "rw-8r8w[ns]" "wo-8writes[ns]" "raw-8w8r[ns]" "raw-16r2w[ns]";
  List.iter
    (fun (name, spec) ->
      let time label test =
        let tbl = run_one test in
        match Hashtbl.find_opt tbl label with
        | Some ols -> (
            match Analyze.OLS.estimates ols with
            | Some (t :: _) -> t
            | _ -> Float.nan)
        | None -> Float.nan
      in
      let ro = time "ro" (tx_test "ro" spec ~reads:8 ~writes:0) in
      let rw = time "rw" (tx_test "rw" spec ~reads:8 ~writes:8) in
      let wo = time "wo" (tx_test "wo" spec ~reads:0 ~writes:8) in
      let raw = time "raw" (raw_test "raw" spec) in
      let raw16 = time "raw-16r2w" (raw_16r2w_test "raw-16r2w" spec) in
      Printf.printf "%-10s %15.1f %15.1f %15.1f %15.1f %15.1f\n%!" name ro rw
        wo raw raw16)
    engines

(* Perf regression gate: a fixed micro + Figure-2-style workload matrix,
   emitted as JSON (default [BENCH_PR1.json]) so successive PRs can be
   diffed mechanically.

   Three sections:

   - "wlog_fastpath": the redo-log access pattern of one 8-write /
     8-read-after-write transaction run directly against [Stm_intf.Wlog]
     and against a reference [Hashtbl] (the seed representation), ns/tx
     and improvement %.  This is the live, re-runnable form of the PR's
     acceptance bar.
   - "micro_ns_per_tx": wall-clock ns per committed transaction for each
     engine over the ro / rw / wo / raw shapes (manual monotonic timing,
     best of 3 batches), plus improvement of swisstm rw against the frozen
     seed baseline measured with the Hashtbl write log.
   - "sb7": simulated STMBench7 matrix (engine x workload x threads) with
     ktps, simulated elapsed cycles and abort rate — cycle numbers are
     deterministic, so any diff against a previous BENCH_PR*.json flags a
     cost-model change.
   - "privatization_sim" (PR 6): deterministic privatization penalty —
     the sb7 read mix at 8 simulated threads under plain swisstm, the §6
     quiescence barrier and the epoch reclaimer (DESIGN.md §12).
   - "privatization_native" (PR 6): the same three variants running a
     read-mix + privatize/free workload on real [Domain]s, wall-clock.
   - "crossover" (PR 7): the NOrec-vs-TL2 matrix (bench/crossover.ml) —
     deterministic simulated ktps per thread count plus the three named
     shape checks (NOrec ahead at 1 and 2 threads, behind at the top).
   - "boost" (PR 9): the boosted-vs-word collections matrix
     (bench/boost_bench.ml) — deterministic simulated makespans for the
     contended update mix over the boosted map/pqueue and their
     word-transactional fallbacks, gated on boosted throughput >= word
     at every contended thread count.
   - "scale" (PR 10): the NUMA scale columns — smoke-mode sb7 read-write
     cycles at 64-512 simulated cores on the 32-core-socket topology
     (bench/scale.ml), frozen and checked bit-identical in both modes.
   - "gauges" (PR 6): the descriptor-pool / heap free-list / epoch
     counters accumulated over the whole gate run.

   The gate exits non-zero when the wlog fast path or the swisstm rw micro
   regresses below the 20 % improvement bar, when the PR-6 raw-speed work
   regresses below 10 % vs the PR-5 rw floor, when epoch-based
   privatization costs more than 15 % on the simulated read mix, or when
   the native epoch runs show no grace-period progress / undrained limbo.

     dune exec bench/perf_gate.exe                  # full matrix
     dune exec bench/perf_gate.exe -- --smoke       # quick CI smoke
     dune exec bench/perf_gate.exe -- --out f.json  *)

let smoke = ref false
let out = ref "BENCH_PR10.json"

let () =
  Arg.parse
    [
      ("--smoke", Arg.Set smoke, " quick mode: fewer iterations and threads");
      ("--out", Arg.Set_string out, "FILE output path (default BENCH_PR10.json)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perf_gate [--smoke] [--out FILE]"

(* Frozen seed baseline: swisstm rw-8r8w ns/tx with the (int, int) Hashtbl
   write log, measured on the seed commit by bench/main.exe micro. *)
let seed_swisstm_rw_ns = 9912.4
let required_improvement_pct = 20.0

(* PR-2 baseline for the observability-off overhead gate: swisstm rw-8r8w
   ns/tx at commit 9f367bb on the reference machine (min over alternated
   short batches, two process runs).  The PR-3 hook guards must stay
   within [obs_overhead_limit_pct] of it.  Transient machine load
   inflates a whole measurement by more than the bar, so the gate
   re-measures up to [obs_max_attempts] times (pause between) and
   gates on the best attempt: a quiet window recovers the true floor,
   while a real off-path regression shifts the floor itself and fails
   every attempt.  A wlog-only calibration loop (untouched since PR 1)
   is timed in the same windows as a load diagnostic.  In `make check`
   the gate runs right after the fully parallel test suite, so the
   first few windows routinely land on a still-hot machine: eight
   attempts with a one-second settle keep the false-failure rate down
   without weakening the bar (a real regression still fails all
   eight). *)
let pr2_swisstm_rw_ns = 1198.0
let obs_overhead_limit_pct = 2.0
let obs_max_attempts = 8

(* PR-5 baseline for the PR-6 raw-speed gate: swisstm rw-8r8w ns/tx at
   commit 9b03156, measured with the SAME methodology as the
   observability gate above (fresh process, min over 30 alternated
   5000-iteration batches) — so the gate reuses that measurement and its
   retry machinery rather than the noisier bechamel-style micro section.
   The PR-6 pooled-descriptor / allocation-free-read-set work must beat
   it by [pr5_required_improvement_pct]. *)
let pr5_swisstm_rw_ns = 1210.0
let pr5_required_improvement_pct = 10.0

(* Privatization gate (PR 6): with the epoch reclaimer standing in for
   the §6 quiescence barrier, the read-mix privatization penalty may be
   at most 15 % vs plain (privatization-UNSAFE) swisstm.  Quiescence
   measured −34 % on this mix (EXPERIMENTS.md); epochs must recover most
   of it.  Checked twice: deterministically on the simulated sb7 read mix
   at 8 threads (the EXPERIMENTS.md methodology — exact, no retries), and
   on real domains as a wall-clock corroboration (noisy on a small
   machine, so that half re-measures over alternated rounds and keeps
   each variant's best run). *)
let epoch_penalty_floor_pct = -15.0
let priv_min_rounds = 3
let priv_max_attempts = 6

(* Frozen PR-4 smoke-mode sb7 simulated cycles (3 workloads x 4 engines x
   threads [1;2], emission order).  Simulated time is deterministic, so
   with every collector off — and the fault injector disarmed — the
   instrumented engines must reproduce these bit for bit; any diff means a
   hook perturbed a schedule or charged cycles.

   Re-frozen in PR 4: the rejection-sampling fix to [Rng.int] legitimately
   changes every workload's operation stream (the old modulo draw was
   biased), and TL2/TinySTM/MVSTM rollback back-off moved from an inline
   capped wait to the contention manager's policy.  Verified deterministic
   across processes before freezing. *)
let pr4_sb7_smoke_cycles =
  [
    899120; 963792; 873305; 937605; 951095; 1062248; 873306; 949283;
    1270242; 2423027; 1246044; 2391863; 1468834; 2823377; 1396991; 2518006;
    1232243; 2452665; 1209335; 2423389; 1425691; 2836294; 1344303; 2456471;
  ]

(* Frozen PR-8 smoke-mode service ramp columns
   (engine, offered, completed, elapsed_cycles, p50, p999,
   tail_amplification_x1000, retries), in [Service_bench.ramp_engines]
   order.  The open-system harness is a deterministic function of
   (engine, config, seed) — `make service-smoke` additionally proves the
   full SLO JSON bit-identical across two processes — so these must
   reproduce exactly; a diff means an arrival stream, a scheduler hook
   or an SLO collector perturbed a schedule. *)
let pr8_service_smoke : (string * int * int * int * int * int * int * int) list
    =
  [
    ("swisstm", 986, 986, 1551512, 2687, 127036, 47278, 239);
    ("swisstm-adaptive", 986, 986, 1545670, 2431, 132903, 54670, 186);
    ("tl2", 986, 986, 1533404, 3775, 111350, 29496, 542);
    ("tl2-adaptive", 986, 986, 1527883, 3583, 102049, 28481, 429);
    ("norec", 986, 986, 2249819, 233471, 823039, 3525, 180);
    ("norec-adaptive", 986, 986, 2232003, 212991, 819699, 3848, 186);
  ]

(* Frozen PR-9 smoke-mode boosted-vs-word makespans (structure, mode,
   threads, makespan cycles) in [Boost_bench.matrix] emission order,
   ops_per_thread = 500.  Simulated makespans are deterministic, so any
   diff means the boosted ops' cost charging or a schedule moved. *)
let pr9_boost_smoke_makespans : (string * string * int * int) list =
  [
    ("map", "boosted", 1, 52435);
    ("map", "word", 1, 88281);
    ("map", "boosted", 2, 369036);
    ("map", "word", 2, 542153);
    ("map", "boosted", 4, 869785);
    ("map", "word", 4, 2361158);
    ("map", "boosted", 8, 2889764);
    ("map", "word", 8, 7425158);
    ("pqueue", "boosted", 1, 161571);
    ("pqueue", "word", 1, 890480);
    ("pqueue", "boosted", 2, 840113);
    ("pqueue", "word", 2, 2301716);
    ("pqueue", "boosted", 4, 422204);
    ("pqueue", "word", 4, 6927873);
    ("pqueue", "boosted", 8, 676158);
    ("pqueue", "word", 8, 19190992);
    ("list", "word", 1, 214390);
    ("list", "word", 2, 699619);
    ("list", "word", 4, 2024767);
    ("list", "word", 8, 5807967);
  ]

(* Frozen PR-10 scale columns: smoke-mode sb7 read-write cycles at 64-512
   simulated cores on the 32-core-socket NUMA topology (engine x cores,
   [Scale.matrix ~smoke:true] emission order).  Deterministic function of
   (topology, engine, seed) — `make scale-smoke` proves the full sidecar
   bit-identical across processes — so these must reproduce exactly; a
   diff means the distance cost model, the reader sets, the directory
   queuing or a scheduler moved.  Both gate modes run the smoke matrix:
   it is the frozen column set, full-scale numbers live in `bench
   scale`. *)
let pr10_scale_smoke : (string * string * int * int) list =
  [
    ("read_write", "SwissTM", 64, 1971715);
    ("read_write", "SwissTM", 128, 4327593);
    ("read_write", "SwissTM", 256, 8292391);
    ("read_write", "SwissTM", 512, 11300845);
    ("read_write", "TinySTM", 64, 2097212);
    ("read_write", "TinySTM", 128, 4553200);
    ("read_write", "TinySTM", 256, 9797380);
    ("read_write", "TinySTM", 512, 10250155);
    ("read_write", "TL2", 64, 1920644);
    ("read_write", "TL2", 128, 3437363);
    ("read_write", "TL2", 256, 6425989);
    ("read_write", "TL2", 512, 8986119);
  ]

let jfloat f =
  if Float.is_finite f then Printf.sprintf "%.3f" f else "null"

let now = Unix.gettimeofday

(* Best-of-[batches] ns/iteration of [f] run [iters] times. *)
let time_ns ~batches ~iters f =
  let best = ref infinity in
  for _ = 1 to batches do
    let t0 = now () in
    for _ = 1 to iters do
      f ()
    done;
    let per = (now () -. t0) *. 1e9 /. float_of_int iters in
    if per < !best then best := per
  done;
  !best

(* ---------- section 1: wlog vs hashtbl fast path ---------- *)

(* The 8-write / 8-read-after-write / 8-miss wlog access pattern, used
   both as the fast-path benchmark and as the observability gate's
   load-calibration loop (the wlog is untouched since PR 1, so its speed
   tracks the machine, not this PR). *)
let make_wlog_tx () =
  let open Stm_intf in
  let wl = Wlog.create () in
  let acc = ref 0 in
  fun () ->
    for i = 0 to 7 do
      Wlog.replace wl (1 + (i * 8)) i
    done;
    for i = 0 to 7 do
      let s = Wlog.probe wl (1 + (i * 8)) in
      acc := !acc + Wlog.slot_value wl s
    done;
    for i = 0 to 7 do
      (* the read-before-write misses an update transaction also issues *)
      if Wlog.probe wl (1000 + i) >= 0 then incr acc
    done;
    Wlog.clear wl

let wlog_fastpath ~iters =
  let wlog_tx = make_wlog_tx () in
  let acc = ref 0 in
  let ht : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let ht_tx () =
    for i = 0 to 7 do
      Hashtbl.replace ht (1 + (i * 8)) i
    done;
    for i = 0 to 7 do
      match Hashtbl.find_opt ht (1 + (i * 8)) with
      | Some v -> acc := !acc + v
      | None -> ()
    done;
    for i = 0 to 7 do
      if Hashtbl.find_opt ht (1000 + i) <> None then incr acc
    done;
    Hashtbl.reset ht
  in
  (* warm up both *)
  for _ = 1 to 1000 do
    wlog_tx ();
    ht_tx ()
  done;
  (* Alternated batches: a load burst hits both representations instead
     of skewing whichever happened to be in flight. *)
  let wl_ns = ref infinity and ht_ns = ref infinity in
  for _ = 1 to 3 do
    let b = time_ns ~batches:1 ~iters wlog_tx in
    if b < !wl_ns then wl_ns := b;
    let b = time_ns ~batches:1 ~iters ht_tx in
    if b < !ht_ns then ht_ns := b
  done;
  let wl_ns = !wl_ns and ht_ns = !ht_ns in
  ignore !acc;
  let improvement = (ht_ns -. wl_ns) /. ht_ns *. 100.0 in
  (wl_ns, ht_ns, improvement)

(* ---------- section 2: engine micro ---------- *)

let engines =
  [
    ("swisstm", Engines.swisstm);
    ("tl2", Engines.tl2);
    ("tinystm", Engines.tinystm);
    ("rstm", Engines.rstm);
    ("glock", Engines.Glock);
  ]

let micro_shapes = [ "ro"; "rw"; "wo"; "raw"; "raw-16r2w" ]

let micro_tx engine base shape =
  let open Stm_intf in
  match shape with
  | "ro" ->
      Engine.atomic engine ~tid:0 (fun tx ->
          for i = 0 to 7 do
            ignore (tx.Engine.read (base + i) : int)
          done)
  | "rw" ->
      Engine.atomic engine ~tid:0 (fun tx ->
          for i = 0 to 7 do
            ignore (tx.Engine.read (base + i) : int)
          done;
          for i = 0 to 7 do
            tx.Engine.write (base + i) i
          done)
  | "wo" ->
      Engine.atomic engine ~tid:0 (fun tx ->
          for i = 0 to 7 do
            tx.Engine.write (base + i) i
          done)
  | "raw" ->
      Engine.atomic engine ~tid:0 (fun tx ->
          for i = 0 to 7 do
            tx.Engine.write (base + i) i
          done;
          for i = 0 to 7 do
            ignore (tx.Engine.read (base + i) : int)
          done;
          ignore (tx.Engine.read (base + 128) : int))
  | "raw-16r2w" ->
      (* Read-heavy mix (PR 6): 2 writes then 16 reads, 2 of which hit
         the write log — the shape the allocation-free read set and the
         epoch work target. *)
      Engine.atomic engine ~tid:0 (fun tx ->
          for i = 0 to 1 do
            tx.Engine.write (base + i) i
          done;
          for i = 0 to 15 do
            ignore (tx.Engine.read (base + i) : int)
          done)
  | _ -> assert false

let micro ~iters =
  List.map
    (fun (name, spec) ->
      let heap = Memory.Heap.create ~words:(1 lsl 16) in
      let base = Memory.Heap.alloc heap 256 in
      let engine = Engines.make spec heap in
      let rows =
        List.map
          (fun shape ->
            for _ = 1 to 500 do
              micro_tx engine base shape
            done;
            (shape, time_ns ~batches:3 ~iters (fun () ->
                 micro_tx engine base shape)))
          micro_shapes
      in
      (name, rows))
    engines

(* ---------- section 3: sb7 matrix ---------- *)

let sb7_workloads =
  [
    ("read_dominated", Stmbench7.Sb7_bench.Read_dominated);
    ("read_write", Stmbench7.Sb7_bench.Read_write);
    ("write_dominated", Stmbench7.Sb7_bench.Write_dominated);
  ]

let sb7_engines =
  [
    ("swisstm", Bench_common.swisstm);
    ("tinystm", Bench_common.tinystm);
    ("rstm", Bench_common.rstm_serializer);
    ("tl2", Bench_common.tl2);
  ]

let sb7 ~threads ~duration_cycles =
  List.concat_map
    (fun (wname, workload) ->
      List.concat_map
        (fun (ename, spec) ->
          List.map
            (fun t ->
              let r =
                Stmbench7.Sb7_bench.run ~spec ~workload ~threads:t
                  ~duration_cycles ()
              in
              ( wname,
                ename,
                t,
                Bench_common.ktps r,
                r.Harness.Workload.elapsed_cycles,
                Harness.Workload.abort_rate r ))
            threads)
        sb7_engines)
    sb7_workloads

(* ---------- section 4: privatization penalty (PR 6) ---------- *)

(* Deterministic half of the privatization gate: the sb7 read mix at 8
   simulated threads — the measurement behind EXPERIMENTS.md's "−34 % on
   the read mix" quiescence figure.  Epoch announcements are plain
   (uncharged) atomics and [Heap.free]'s deferral happens off the
   simulated clock, so swisstm with the reclaimer armed (+epochs) must
   track it unarmed here while +quiescence keeps paying the commit-time
   barrier.  Simulated cycles are deterministic: these ktps never move
   between runs, so the epoch-penalty bound can be tight without any
   retry machinery. *)
let sim_priv ~duration_cycles =
  let threads = 8 in
  let run spec =
    Bench_common.ktps
      (Stmbench7.Sb7_bench.run ~spec
         ~workload:Stmbench7.Sb7_bench.Read_dominated ~threads
         ~duration_cycles ())
  in
  let armed spec =
    Memory.Epoch.arm ();
    let r = run spec in
    (* the simulated threads went online at their first announcement;
       take them off so they hold no later grace period open *)
    for tid = 0 to threads - 1 do
      Memory.Epoch.offline ~tid
    done;
    Memory.Epoch.disarm ();
    r
  in
  (run Engines.swisstm, run Engines.swisstm_priv_safe, armed Engines.swisstm)

(* Wall-clock, real [Domain]s: each of 4 domains runs a read-mix loop
   over its own 16-word block (16 reads + 2 writes per transaction) and
   every 16th transaction privatizes the block — swaps a fresh block
   into its handle inside a transaction, then frees the old block
   outside it.  Domains never share blocks, so the cost measured is
   purely the safety mechanism: plain swisstm commits immediately
   (privatization-UNSAFE — acceptable here because no domain ever reads
   another's block), +quiescence pays the §6 commit-time barrier, and
   +epochs (the same engine with the reclaimer armed) pays one
   announcement per boundary while [Heap.free] defers the block to the
   limbo list.  Returns transactions per second. *)
let native_priv_tps ~spec ~epochs ~txs =
  let n_domains = 4 in
  let block_words = 16 in
  let heap = Memory.Heap.create ~words:(1 lsl 16) in
  let handles = Memory.Heap.alloc heap n_domains in
  for d = 0 to n_domains - 1 do
    Memory.Heap.write heap (handles + d) (Memory.Heap.alloc heap block_words)
  done;
  (* Small lock table: the workload touches a few dozen stripes, and the
     default 2^18-entry table's allocation leaves GC debt that the timed
     region would pay unevenly across variants. *)
  let engine = Engines.make (Engines.with_table_bits 12 spec) heap in
  if epochs then Memory.Epoch.arm ();
  let t0 = now () in
  let doms =
    Array.init n_domains (fun tid ->
        Domain.spawn (fun () ->
            Runtime.Exec.set_native_tid tid;
            if epochs then Memory.Epoch.online ~tid;
            let open Stm_intf in
            for it = 1 to txs do
              if it land 15 = 0 then begin
                (* Privatize: publish a fresh block, free the old one. *)
                let fresh = Memory.Heap.alloc heap block_words in
                let old =
                  Engine.atomic engine ~tid (fun tx ->
                      let o = tx.Engine.read (handles + tid) in
                      tx.Engine.write (handles + tid) fresh;
                      o)
                in
                Memory.Heap.free heap old block_words
              end
              else
                Engine.atomic engine ~tid (fun tx ->
                    let b = tx.Engine.read (handles + tid) in
                    let acc = ref 0 in
                    for i = 0 to block_words - 1 do
                      acc := !acc + tx.Engine.read (b + i)
                    done;
                    tx.Engine.write b !acc;
                    tx.Engine.write (b + 1) it)
            done;
            if epochs then Memory.Epoch.offline ~tid))
  in
  Array.iter Domain.join doms;
  let dt = now () -. t0 in
  if epochs then Memory.Epoch.disarm ();
  float_of_int (n_domains * txs) /. dt

let native_priv ~txs =
  (* Throwaway run first: domain spawn and GC warm-up dominate a short
     first native run and would skew whichever variant went first. *)
  ignore
    (native_priv_tps ~spec:Engines.swisstm ~epochs:false ~txs:(txs / 4)
      : float);
  (* One alternated round: each variant measured once.  Warm-up and load
     drift are monotone across a round, so comparing within a round and
     keeping each variant's best across several rounds is what makes the
     penalty numbers mean anything (sequential best-of runs showed the
     *later* variant consistently 30–40 % faster, whichever it was). *)
  let one () =
    let base = native_priv_tps ~spec:Engines.swisstm ~epochs:false ~txs in
    let quiesce =
      native_priv_tps ~spec:Engines.swisstm_priv_safe ~epochs:false ~txs
    in
    let epoch =
      native_priv_tps ~spec:Engines.swisstm ~epochs:true ~txs
    in
    (base, quiesce, epoch)
  in
  let combine (a, b, c) (a', b', c') =
    (Float.max a a', Float.max b b', Float.max c c')
  in
  let penalty v base = (v -. base) /. base *. 100. in
  (* Always at least [priv_min_rounds] rounds; keep going (up to
     [priv_max_attempts]) only while the gate would fail — a load burst
     that hits one variant's window would otherwise fake a penalty. *)
  let rec go attempt ((base, _, epoch) as acc) =
    let ok = penalty epoch base >= epoch_penalty_floor_pct in
    if attempt >= priv_min_rounds && (ok || attempt >= priv_max_attempts)
    then (acc, attempt)
    else begin
      if not ok then
        Printf.printf
          "  round %d/%d: epoch penalty %.1f%% under the floor, \
           re-measuring...\n%!"
          attempt priv_max_attempts (penalty epoch base);
      go (attempt + 1) (combine acc (one ()))
    end
  in
  go 1 (one ())

(* ---------- JSON emission ---------- *)

let () =
  let micro_iters = if !smoke then 2_000 else 20_000 in
  let fast_iters = if !smoke then 20_000 else 200_000 in
  let sb7_threads = if !smoke then [ 1; 2 ] else [ 1; 2; 4; 8 ] in
  let sb7_cycles = if !smoke then 200_000 else 2_000_000 in
  (* Measured FIRST, in a clean heap: the 2 % bar is tighter than the GC
     noise the later sections leave behind, and the PR-2 baseline was
     taken under the same fresh-process conditions. *)
  Printf.printf "perf_gate: observability-off overhead...\n%!";
  let measure_rw_cal =
    let heap = Memory.Heap.create ~words:(1 lsl 16) in
    let base = Memory.Heap.alloc heap 256 in
    let engine = Engines.make Engines.swisstm heap in
    let rw () = micro_tx engine base "rw" in
    let cal = make_wlog_tx () in
    for _ = 1 to 2000 do
      rw ();
      cal ()
    done;
    fun () ->
      (* Many short alternated batches: load bursts shorter than a round
         hit both workloads, and the two mins are both taken from quiet
         windows. *)
      let best_rw = ref infinity and best_cal = ref infinity in
      for _ = 1 to 30 do
        let one f best =
          let t0 = now () in
          for _ = 1 to 5_000 do
            f ()
          done;
          let per = (now () -. t0) *. 1e9 /. 5_000. in
          if per < !best then best := per
        in
        one rw best_rw;
        one cal best_cal
      done;
      (!best_rw, !best_cal)
  in
  let obs_rw_ns, obs_cal_ns, obs_attempts =
    let rec go attempt (rw_ns, cal_ns) =
      let pct = (rw_ns -. pr2_swisstm_rw_ns) /. pr2_swisstm_rw_ns *. 100. in
      (* The PR-6 raw-speed gate reuses this measurement (same
         methodology as its frozen PR-5 baseline), so a load burst that
         would fake *either* failure earns a re-measure. *)
      let pr5_ok =
        (pr5_swisstm_rw_ns -. rw_ns) /. pr5_swisstm_rw_ns *. 100.
        >= pr5_required_improvement_pct
      in
      if
        (pct <= obs_overhead_limit_pct && pr5_ok)
        || attempt >= obs_max_attempts
      then (rw_ns, cal_ns, attempt)
      else begin
        Printf.printf
          "  attempt %d/%d: rw %.1f ns (%+.1f%% vs PR-2) over a bar, \
           re-measuring after a pause...\n%!"
          attempt obs_max_attempts rw_ns pct;
        Unix.sleepf 1.0;
        let rw_ns', cal_ns' = measure_rw_cal () in
        go (attempt + 1) (Float.min rw_ns rw_ns', Float.min cal_ns cal_ns')
      end
    in
    go 1 (measure_rw_cal ())
  in
  let obs_overhead_pct =
    (obs_rw_ns -. pr2_swisstm_rw_ns) /. pr2_swisstm_rw_ns *. 100.
  in
  Printf.printf
    "  swisstm rw %.1f ns vs PR-2 baseline %.1f ns: %+.1f%% (cal %.1f ns, \
     %d attempt%s)\n%!"
    obs_rw_ns pr2_swisstm_rw_ns obs_overhead_pct obs_cal_ns obs_attempts
    (if obs_attempts = 1 then "" else "s");
  let pr5_imp =
    (pr5_swisstm_rw_ns -. obs_rw_ns) /. pr5_swisstm_rw_ns *. 100.
  in
  Printf.printf
    "  swisstm rw vs PR-5 baseline %.1f ns: %.1f%% better (need >= %.0f%%)\n%!"
    pr5_swisstm_rw_ns pr5_imp pr5_required_improvement_pct;
  Printf.printf "perf_gate: wlog fast path...\n%!";
  let wl_ns, ht_ns, wl_imp = wlog_fastpath ~iters:fast_iters in
  Printf.printf "  wlog %.1f ns/tx, hashtbl %.1f ns/tx (%.1f%% better)\n%!"
    wl_ns ht_ns wl_imp;
  Printf.printf "perf_gate: engine micro...\n%!";
  let m = micro ~iters:micro_iters in
  List.iter
    (fun (name, rows) ->
      Printf.printf "  %-10s" name;
      List.iter (fun (s, ns) -> Printf.printf " %s=%.1fns" s ns) rows;
      print_newline ())
    m;
  let swisstm_rw =
    match List.assoc_opt "swisstm" m with
    | Some rows -> ( try List.assoc "rw" rows with Not_found -> nan)
    | None -> nan
  in
  let rw_imp = (seed_swisstm_rw_ns -. swisstm_rw) /. seed_swisstm_rw_ns *. 100. in
  Printf.printf "  swisstm rw vs seed baseline %.1f ns: %.1f%% better\n%!"
    seed_swisstm_rw_ns rw_imp;
  Printf.printf "perf_gate: sb7 matrix (%s)...\n%!"
    (if !smoke then "smoke" else "full");
  let s = sb7 ~threads:sb7_threads ~duration_cycles:sb7_cycles in
  let sb7_identity_ok =
    (not !smoke)
    || List.map (fun (_, _, _, _, cycles, _) -> cycles) s
       = pr4_sb7_smoke_cycles
  in
  if !smoke then
    Printf.printf "  sb7 cycles vs frozen PR-4 matrix: %s\n%!"
      (if sb7_identity_ok then "bit-identical" else "DIVERGED");
  Printf.printf "perf_gate: privatization penalty (simulated, 8 threads)...\n%!";
  let sim_plain, sim_quiesce, sim_epoch =
    sim_priv ~duration_cycles:(if !smoke then 400_000 else 2_000_000)
  in
  let sim_penalty v = (v -. sim_plain) /. sim_plain *. 100. in
  let sim_quiesce_penalty = sim_penalty sim_quiesce in
  let sim_epoch_penalty = sim_penalty sim_epoch in
  Printf.printf
    "  plain %.1f ktps, +quiescence %.1f ktps (%+.1f%%), +epochs %.1f ktps \
     (%+.1f%%)\n%!"
    sim_plain sim_quiesce sim_quiesce_penalty sim_epoch sim_epoch_penalty;
  Printf.printf "perf_gate: native privatization (4 domains)...\n%!";
  let priv_txs = if !smoke then 2_000 else 6_000 in
  let adv0 = Memory.Epoch.advances () in
  let def0 = Memory.Epoch.deferred () in
  let rec0 = Memory.Epoch.reclaimed () in
  let (priv_base, priv_quiesce, priv_epoch), priv_attempts =
    native_priv ~txs:priv_txs
  in
  let priv_penalty v = (v -. priv_base) /. priv_base *. 100. in
  let quiesce_penalty = priv_penalty priv_quiesce in
  let epoch_penalty = priv_penalty priv_epoch in
  Printf.printf
    "  plain %.0f tx/s, +quiescence %.0f tx/s (%+.1f%%), +epochs %.0f tx/s \
     (%+.1f%%), %d attempt%s; epoch advances %d, deferred %d, reclaimed %d\n%!"
    priv_base priv_quiesce quiesce_penalty priv_epoch epoch_penalty
    priv_attempts
    (if priv_attempts = 1 then "" else "s")
    (Memory.Epoch.advances ())
    (Memory.Epoch.deferred ())
    (Memory.Epoch.reclaimed ());
  (* Liveness invariants of the native runs (the wall-clock *percentage*
     stays informational — scheduler noise on a small machine makes it
     an unreliable bar, unlike the simulated one above): grace periods
     actually advanced, blocks were actually deferred, and [disarm]
     handed every limbo block back to the free lists. *)
  let epoch_live_ok =
    Memory.Epoch.advances () > adv0
    && Memory.Epoch.deferred () > def0
    && Memory.Epoch.deferred () - def0 = Memory.Epoch.reclaimed () - rec0
  in
  Printf.printf "perf_gate: norec-vs-tl2 crossover (%s)...\n%!"
    (if !smoke then "smoke" else "full");
  let xo_rows =
    Crossover.matrix ~duration_cycles:(Crossover.duration_cycles ~smoke:!smoke)
      ()
  in
  Crossover.print_rows xo_rows;
  let xo_checks = Crossover.shape_checks xo_rows in
  List.iter
    (fun (name, ok) ->
      Printf.printf "  crossover %-18s %s\n%!" name (if ok then "ok" else "FAIL"))
    xo_checks;
  let xo_ok = List.for_all snd xo_checks in
  Printf.printf "perf_gate: open-system service SLO (%s)...\n%!"
    (if !smoke then "smoke" else "full");
  let svc_ok, svc_rows, _svc_json = Service_bench.gate ~smoke:!smoke () in
  let svc_tuples =
    List.map
      (fun (n, (r : Service_bench.row)) ->
        ( n,
          r.Service_bench.offered,
          r.Service_bench.completed,
          r.Service_bench.elapsed_cycles,
          r.Service_bench.p50,
          r.Service_bench.p999,
          r.Service_bench.tail_x1000,
          r.Service_bench.retries ))
      svc_rows
  in
  let svc_identity_ok = (not !smoke) || svc_tuples = pr8_service_smoke in
  if !smoke && not svc_identity_ok then begin
    Printf.printf
      "  service columns diverged from the frozen PR-8 matrix; current:\n";
    List.iter
      (fun (n, o, c, e, p50, p999, amp, rt) ->
        Printf.printf "    (%S, %d, %d, %d, %d, %d, %d, %d);\n" n o c e p50
          p999 amp rt)
      svc_tuples
  end;
  Printf.printf "perf_gate: boosted vs word collections (%s)...\n%!"
    (if !smoke then "smoke" else "full");
  let boost_rows =
    Boost_bench.matrix ~ops_per_thread:(if !smoke then 500 else 2_000) ()
  in
  Boost_bench.print_rows boost_rows;
  let boost_checks = Boost_bench.shape_checks boost_rows in
  List.iter
    (fun (name, ok) ->
      Printf.printf "  boost %-24s %s\n%!" name (if ok then "ok" else "FAIL"))
    boost_checks;
  let boost_ok = List.for_all snd boost_checks in
  let boost_tuples =
    List.map
      (fun (r : Boost_bench.row) ->
        (r.Boost_bench.structure, r.Boost_bench.mode, r.Boost_bench.threads,
         r.Boost_bench.makespan))
      boost_rows
  in
  let boost_identity_ok =
    (not !smoke)
    || pr9_boost_smoke_makespans = []
    || boost_tuples = pr9_boost_smoke_makespans
  in
  if !smoke && not boost_identity_ok then begin
    Printf.printf
      "  boost makespans diverged from the frozen PR-9 matrix; current:\n";
    List.iter
      (fun (s, m, t, c) -> Printf.printf "    (%S, %S, %d, %d);\n" s m t c)
      boost_tuples
  end;
  Printf.printf "perf_gate: NUMA scale columns (smoke matrix)...\n%!";
  let scale_rows = Scale.matrix ~smoke:true () in
  let scale_tuples =
    List.map
      (fun (r : Scale.row) ->
        (r.Scale.workload, r.Scale.engine, r.Scale.cores, r.Scale.elapsed_cycles))
      scale_rows
  in
  let scale_identity_ok = scale_tuples = pr10_scale_smoke in
  Printf.printf "  scale cycles vs frozen PR-10 columns: %s\n%!"
    (if scale_identity_ok then "bit-identical" else "DIVERGED");
  if not scale_identity_ok then begin
    Printf.printf "  current:\n";
    List.iter
      (fun (w, e, c, cy) -> Printf.printf "    (%S, %S, %d, %d);\n" w e c cy)
      scale_tuples
  end;
  let gauges = Obs.Metrics.gauge_values () in
  let buf = Buffer.create 4096 in
  let bpf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  bpf "{\n";
  bpf "  \"schema\": \"swisstm-repro/perf-gate/6\",\n";
  bpf "  \"mode\": \"%s\",\n" (if !smoke then "smoke" else "full");
  bpf "  \"wlog_fastpath\": {\n";
  bpf "    \"wlog_ns_per_tx\": %s,\n" (jfloat wl_ns);
  bpf "    \"hashtbl_ns_per_tx\": %s,\n" (jfloat ht_ns);
  bpf "    \"improvement_pct\": %s\n" (jfloat wl_imp);
  bpf "  },\n";
  bpf "  \"micro_ns_per_tx\": {\n";
  List.iteri
    (fun i (name, rows) ->
      bpf "    \"%s\": {" name;
      List.iteri
        (fun j (shape, ns) ->
          bpf "%s\"%s\": %s" (if j > 0 then ", " else " ") shape (jfloat ns))
        rows;
      bpf " }%s\n" (if i < List.length m - 1 then "," else ""))
    m;
  bpf "  },\n";
  bpf "  \"swisstm_rw_vs_seed\": {\n";
  bpf "    \"seed_hashtbl_ns_per_tx\": %s,\n" (jfloat seed_swisstm_rw_ns);
  bpf "    \"current_ns_per_tx\": %s,\n" (jfloat swisstm_rw);
  bpf "    \"improvement_pct\": %s,\n" (jfloat rw_imp);
  bpf
    "    \"note\": \"seed number was bechamel-measured; the apples-to-apples \
     check is `dune exec bench/main.exe -- micro` vs the seed commit\"\n";
  bpf "  },\n";
  bpf "  \"swisstm_rw_vs_pr5\": {\n";
  bpf "    \"pr5_ns_per_tx\": %s,\n" (jfloat pr5_swisstm_rw_ns);
  bpf "    \"current_ns_per_tx\": %s,\n" (jfloat obs_rw_ns);
  bpf "    \"improvement_pct\": %s,\n" (jfloat pr5_imp);
  bpf "    \"required_pct\": %s\n" (jfloat pr5_required_improvement_pct);
  bpf "  },\n";
  bpf "  \"observability\": {\n";
  bpf "    \"off_rw_ns_per_tx\": %s,\n" (jfloat obs_rw_ns);
  bpf "    \"cal_ns_per_tx\": %s,\n" (jfloat obs_cal_ns);
  bpf "    \"pr2_rw_ns_per_tx\": %s,\n" (jfloat pr2_swisstm_rw_ns);
  bpf "    \"overhead_pct\": %s,\n" (jfloat obs_overhead_pct);
  bpf "    \"measure_attempts\": %d,\n" obs_attempts;
  bpf "    \"sb7_identity_checked\": %b,\n" !smoke;
  bpf "    \"sb7_identity_ok\": %b\n" sb7_identity_ok;
  bpf "  },\n";
  bpf "  \"sb7\": [\n";
  List.iteri
    (fun i (w, e, t, ktps, cycles, ar) ->
      bpf
        "    { \"workload\": \"%s\", \"engine\": \"%s\", \"threads\": %d, \
         \"ktps\": %s, \"elapsed_cycles\": %d, \"abort_rate\": %s }%s\n"
        w e t (jfloat ktps) cycles (jfloat ar)
        (if i < List.length s - 1 then "," else ""))
    s;
  bpf "  ],\n";
  bpf "  \"privatization_sim\": {\n";
  bpf "    \"workload\": \"sb7 read_dominated\",\n";
  bpf "    \"threads\": 8,\n";
  bpf "    \"plain_ktps\": %s,\n" (jfloat sim_plain);
  bpf "    \"quiescence_ktps\": %s,\n" (jfloat sim_quiesce);
  bpf "    \"epoch_ktps\": %s,\n" (jfloat sim_epoch);
  bpf "    \"quiescence_penalty_pct\": %s,\n" (jfloat sim_quiesce_penalty);
  bpf "    \"epoch_penalty_pct\": %s,\n" (jfloat sim_epoch_penalty);
  bpf "    \"epoch_penalty_floor_pct\": %s\n" (jfloat epoch_penalty_floor_pct);
  bpf "  },\n";
  bpf "  \"privatization_native\": {\n";
  bpf "    \"domains\": 4,\n";
  bpf "    \"txs_per_domain\": %d,\n" priv_txs;
  bpf "    \"plain_tps\": %s,\n" (jfloat priv_base);
  bpf "    \"quiescence_tps\": %s,\n" (jfloat priv_quiesce);
  bpf "    \"epoch_tps\": %s,\n" (jfloat priv_epoch);
  bpf "    \"quiescence_penalty_pct\": %s,\n" (jfloat quiesce_penalty);
  bpf "    \"epoch_penalty_pct\": %s,\n" (jfloat epoch_penalty);
  bpf "    \"epoch_liveness_ok\": %b,\n" epoch_live_ok;
  bpf "    \"measure_attempts\": %d\n" priv_attempts;
  bpf "  },\n";
  bpf "  \"crossover\": {\n";
  bpf "    \"thread_counts\": [%s],\n"
    (String.concat ", " (List.map string_of_int Crossover.thread_counts));
  bpf "    \"ktps\": {\n";
  List.iteri
    (fun i (r : Crossover.row) ->
      bpf "      \"%s\": [%s]%s\n" r.Crossover.engine
        (String.concat ", "
           (List.map jfloat (Array.to_list r.Crossover.ktps)))
        (if i < List.length xo_rows - 1 then "," else ""))
    xo_rows;
  bpf "    },\n";
  bpf "    \"shape\": {\n";
  List.iteri
    (fun i (name, ok) ->
      bpf "      \"%s\": %b%s\n" name ok
        (if i < List.length xo_checks - 1 then "," else ""))
    xo_checks;
  bpf "    }\n";
  bpf "  },\n";
  bpf "  \"service\": {\n";
  bpf "    \"rows\": [\n";
  List.iteri
    (fun i (n, o, c, e, p50, p999, amp, rt) ->
      bpf
        "      { \"engine\": \"%s\", \"offered\": %d, \"completed\": %d, \
         \"elapsed_cycles\": %d, \"p50\": %d, \"p999\": %d, \
         \"tail_amplification_x1000\": %d, \"retries\": %d }%s\n"
        n o c e p50 p999 amp rt
        (if i < List.length svc_tuples - 1 then "," else ""))
    svc_tuples;
  bpf "    ],\n";
  bpf "    \"checks_ok\": %b,\n" svc_ok;
  bpf "    \"identity_checked\": %b,\n" !smoke;
  bpf "    \"identity_ok\": %b\n" svc_identity_ok;
  bpf "  },\n";
  bpf "  \"boost\": {\n";
  bpf "    \"rows\": [\n";
  List.iteri
    (fun i (r : Boost_bench.row) ->
      bpf
        "      { \"structure\": \"%s\", \"mode\": \"%s\", \"threads\": %d, \
         \"ops\": %d, \"makespan_cycles\": %d, \"ktps\": %s }%s\n"
        r.Boost_bench.structure r.Boost_bench.mode r.Boost_bench.threads
        r.Boost_bench.total_ops r.Boost_bench.makespan
        (jfloat (Boost_bench.ktps r))
        (if i < List.length boost_rows - 1 then "," else ""))
    boost_rows;
  bpf "    ],\n";
  bpf "    \"shape\": {\n";
  List.iteri
    (fun i (name, ok) ->
      bpf "      \"%s\": %b%s\n" name ok
        (if i < List.length boost_checks - 1 then "," else ""))
    boost_checks;
  bpf "    },\n";
  bpf "    \"identity_checked\": %b,\n"
    (!smoke && pr9_boost_smoke_makespans <> []);
  bpf "    \"identity_ok\": %b\n" boost_identity_ok;
  bpf "  },\n";
  bpf "  \"scale\": {\n";
  bpf "    \"cores_per_socket\": %d,\n" Scale.cores_per_socket;
  bpf "    \"rows\": [\n";
  List.iteri
    (fun i (w, e, c, cy) ->
      bpf
        "      { \"workload\": \"%s\", \"engine\": \"%s\", \"cores\": %d, \
         \"elapsed_cycles\": %d }%s\n"
        w e c cy
        (if i < List.length scale_tuples - 1 then "," else ""))
    scale_tuples;
  bpf "    ],\n";
  bpf "    \"identity_ok\": %b\n" scale_identity_ok;
  bpf "  },\n";
  bpf "  \"gauges\": {\n";
  List.iteri
    (fun i (name, v) ->
      bpf "    \"%s\": %d%s\n" name v
        (if i < List.length gauges - 1 then "," else ""))
    gauges;
  bpf "  }\n";
  bpf "}\n";
  let oc = open_out !out in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "perf_gate: wrote %s\n%!" !out;
  let fail = ref false in
  if wl_imp < required_improvement_pct then begin
    Printf.eprintf
      "perf_gate: FAIL wlog fast path only %.1f%% better than hashtbl \
       (need >= %.0f%%)\n"
      wl_imp required_improvement_pct;
    fail := true
  end;
  if rw_imp < required_improvement_pct then begin
    Printf.eprintf
      "perf_gate: FAIL swisstm rw only %.1f%% better than seed baseline \
       (need >= %.0f%%)\n"
      rw_imp required_improvement_pct;
    fail := true
  end;
  if obs_overhead_pct > obs_overhead_limit_pct then begin
    Printf.eprintf
      "perf_gate: FAIL observability-off swisstm rw %.1f ns is %.1f%% over \
       the PR-2 baseline %.1f ns (limit %.0f%%, best of %d attempts)\n"
      obs_rw_ns obs_overhead_pct pr2_swisstm_rw_ns obs_overhead_limit_pct
      obs_attempts;
    fail := true
  end;
  if pr5_imp < pr5_required_improvement_pct then begin
    Printf.eprintf
      "perf_gate: FAIL swisstm rw %.1f ns only %.1f%% better than the PR-5 \
       baseline %.1f ns (need >= %.0f%%, best of %d attempts)\n"
      obs_rw_ns pr5_imp pr5_swisstm_rw_ns pr5_required_improvement_pct
      obs_attempts;
    fail := true
  end;
  if sim_epoch_penalty < epoch_penalty_floor_pct then begin
    Printf.eprintf
      "perf_gate: FAIL simulated epoch privatization penalty %.1f%% on the \
       sb7 read mix is under the %.0f%% floor (quiescence reference: \
       %.1f%%)\n"
      sim_epoch_penalty epoch_penalty_floor_pct sim_quiesce_penalty;
    fail := true
  end;
  if not epoch_live_ok then begin
    Printf.eprintf
      "perf_gate: FAIL native epoch reclaimer: no grace-period progress or \
       undrained limbo blocks (advances +%d, deferred +%d, reclaimed +%d)\n"
      (Memory.Epoch.advances () - adv0)
      (Memory.Epoch.deferred () - def0)
      (Memory.Epoch.reclaimed () - rec0);
    fail := true
  end;
  if not xo_ok then begin
    Printf.eprintf
      "perf_gate: FAIL norec-vs-tl2 crossover shape violated (%s)\n"
      (String.concat ", "
         (List.filter_map
            (fun (n, ok) -> if ok then None else Some n)
            xo_checks));
    fail := true
  end;
  if not sb7_identity_ok then begin
    Printf.eprintf
      "perf_gate: FAIL sb7 simulated cycles diverged from the frozen PR-4 \
       matrix (observability hooks perturbed a schedule)\n";
    fail := true
  end;
  if not svc_ok then begin
    Printf.eprintf
      "perf_gate: FAIL service SLO checks (monotone goodput / adaptive tail \
       bound / zero perturbation — see rows above)\n";
    fail := true
  end;
  if not svc_identity_ok then begin
    Printf.eprintf
      "perf_gate: FAIL service columns diverged from the frozen PR-8 matrix \
       (see the current tuples above)\n";
    fail := true
  end;
  if not boost_ok then begin
    Printf.eprintf
      "perf_gate: FAIL boosted collections behind their word-STM fallback \
       on the contended update mix (%s)\n"
      (String.concat ", "
         (List.filter_map
            (fun (n, ok) -> if ok then None else Some n)
            boost_checks));
    fail := true
  end;
  if not boost_identity_ok then begin
    Printf.eprintf
      "perf_gate: FAIL boost makespans diverged from the frozen PR-9 matrix \
       (see the current tuples above)\n";
    fail := true
  end;
  if not scale_identity_ok then begin
    Printf.eprintf
      "perf_gate: FAIL NUMA scale cycles diverged from the frozen PR-10 \
       columns (see the current tuples above)\n";
    fail := true
  end;
  if !fail then exit 1;
  Printf.printf
    "perf_gate: OK (improvements >= %.0f%%, rw %.1f%% better than PR-5, \
     obs-off overhead %+.1f%% <= %.0f%%, epoch privatization %+.1f%% sim / \
     %+.1f%% native, norec crossover shape holds, service SLO gates hold, \
     boosted collections ahead of word-STM under contention, NUMA scale \
     columns bit-identical to PR-10%s)\n%!"
    required_improvement_pct pr5_imp obs_overhead_pct obs_overhead_limit_pct
    sim_epoch_penalty epoch_penalty
    (if !smoke then ", sb7 cycles bit-identical to PR-4" else "")

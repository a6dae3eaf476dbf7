(* The paper's evaluation (PLDI'09, §4-§5) as declarations.  Each figure
   or table is a [Bench_common.section]: a title and a body returning its
   tables, which bench/main.ml prints under the title.  The thread-sweep figures are
   (label, config) rows against the 1-8 thread columns, built by
   [Bench_common.grid]; Table 1, Figure 6 and Figure 13 / Table 2 keep
   bodies of their own. *)

open Bench_common
module Sb7 = Stmbench7.Sb7_bench

let sb7_mixes = [ Sb7.Read_dominated; Sb7.Read_write; Sb7.Write_dominated ]

let sb7 ?(cycles = sb7_duration ()) workload spec t =
  Sb7.run ~spec ~workload ~threads:t ~duration_cycles:cycles ()

let rbtree spec t =
  Rbtree.Rbtree_bench.run ~spec ~threads:t ~duration_cycles:(rbtree_duration ()) ()

let rbtree_title = "Red-black tree (range 16384, 20% updates)"

let lee ?hot_ratio board spec t =
  let r, state = Leetm.Router.run ?hot_ratio ~spec ~threads:t board in
  if not (Leetm.Router.verify state) then
    note "  !! %s produced crossing nets" (Engines.name spec);
  r

let stamp_makespan spec (w : Stamp.workload) t =
  let r, ok = w.run ~spec ~threads:t () in
  if not ok then note "  !! %s failed verification under %s" w.name (Engines.name spec);
  float_of_int r.elapsed_cycles

(* Table 1: the paper rates each design-choice combination qualitatively
   (+ .. ++++); we measure it on the STMBench7 read-write mix at 4 and 8
   threads and rate 8T throughput relative to the best. *)
let tbl1_combos =
  [
    ("lazy    invisible any (TL2)", tl2);
    ("eager   visible   any (RSTM-vis)",
      Engines.with_cm Cm.Cm_intf.Serializer
        (Engines.rstm_with ~visibility:Rstm.Rstm_engine.Visible ()));
    ("eager   invisible Polka (RSTM)", rstm_polka);
    ("eager   invisible timid (TinySTM)", tinystm);
    ("mixed   invisible timid (SwissTM-)", Engines.with_cm Cm.Cm_intf.Timid swisstm);
    ("mixed   invisible 2-phase (SwissTM)", swisstm);
  ]

let stars best v =
  let ratio = v /. best in
  if ratio > 0.95 then "++++"
  else if ratio > 0.80 then "+++"
  else if ratio > 0.60 then "++"
  else "+"

let tbl1 () =
  let results =
    sweep ~threads:[ 4; 8 ] tbl1_combos (fun spec t -> ktps (sb7 Sb7.Read_write spec t))
  in
  let rows = List.map (fun (name, v) -> (name, List.nth v 0, List.nth v 1)) results in
  let best8 = List.fold_left (fun b (_, _, v) -> Float.max b v) 0. rows in
  Printf.printf "%-38s %10s %10s   %s\n" "acquire/reads/CM" "4T[ktx/s]"
    "8T[ktx/s]" "rating";
  List.iter
    (fun (name, v4, v8) ->
      Printf.printf "%-38s %10.1f %10.1f   %s\n" name v4 v8 (stars best8 v8))
    rows;
  []

(* Figure 2: SwissTM wins everywhere (up to 65 % read-dominated, ~10 %
   write-dominated); TL2 trails and stops scaling early.  RSTM runs with
   Serializer on STMBench7 and Lee-TM, the configuration the paper selects
   for large workloads, and Polka elsewhere. *)
let fig2_engines =
  [ ("SwissTM", swisstm); ("TinySTM", tinystm); ("RSTM", rstm_serializer); ("TL2", tl2) ]

let fig2 () =
  List.concat_map
    (fun w ->
      let title = Printf.sprintf "STMBench7 %s workload" (Sb7.workload_name w) in
      grid fig2_engines (sb7 w) [ (title, "10^3 tx/s", ktps) ])
    sb7_mixes

(* Figure 3: SwissTM wins everywhere at 8 threads (except vacation-low vs
   TL2 at parity and kmeans-low vs TinySTM -1 %), by >50 % on
   bayes/intruder/yada vs TL2.  Positive = SwissTM faster. *)
let fig3 () =
  List.concat_map
    (fun (vs_name, vs_spec) ->
      grid
        (List.map (fun (w : Stamp.workload) -> (w.name, w)) Stamp.workloads)
        (fun w t ->
          let base = stamp_makespan vs_spec w t in
          let swiss = stamp_makespan swisstm w t in
          (base /. swiss) -. 1.)
        [ (Printf.sprintf "SwissTM vs %s (speedup - 1)" vs_name, "ratio - 1", Fun.id) ])
    [ ("TL2", tl2); ("TinySTM", tinystm) ]

(* Figure 4: RSTM slowest (per-access overhead on one-word objects),
   SwissTM slightly ahead of TinySTM; time drops with threads then
   flattens. *)
let fig4 () =
  List.concat_map
    (fun (bname, board) ->
      grid
        [ ("RSTM", rstm_serializer); ("TinySTM", tinystm); ("SwissTM", swisstm) ]
        (lee board)
        [ (Printf.sprintf "Lee-TM %s board" bname, "ms (simulated)", ms) ])
    [
      ("memory", Leetm.Board.memory ~width:128 ~height:128 ~routes:160 ());
      ("main", Leetm.Board.main ~width:128 ~height:128 ~routes:160 ());
    ]

(* Figure 5: RSTM far below (per-access overhead); SwissTM below
   TL2/TinySTM at 1 thread (two locks vs one) but ahead above 4. *)
let fig5 () =
  grid
    [ ("SwissTM", swisstm); ("TL2", tl2); ("TinySTM", tinystm); ("RSTM", rstm_polka) ]
    rbtree [ (rbtree_title, "10^6 tx/s", mtps) ]

(* Figure 6 is the paper's illustration of the lazy and eager pathologies
   (no measured data).  We measure it as a two-transaction scenario on a
   tiny heap: T1 writes V early, computes for a long time, then commits;
   T2 writes V and commits.  Under lazy TL2, T2 learns of the w/w
   conflict only at commit, so one transaction wastes its whole execution
   (6a); under eager engines T2 blocks or aborts at its first write and
   waits for the long T1 instead (6b). *)
let long_work = 200_000

let scenario spec =
  let heap = Memory.Heap.create ~words:4096 in
  let v = Memory.Heap.alloc heap 1 in
  let u = Memory.Heap.alloc heap 64 in
  let engine = Engines.make spec heap in
  let retried = ref 0 in
  let t1 () =
    for _ = 1 to 8 do
      Stm_intf.Engine.atomic engine ~tid:0 (fun tx ->
          (* write V first: under eager engines this acquires V now *)
          tx.write v (tx.read v + 1);
          for i = 0 to 63 do
            tx.write (u + i) (tx.read (u + i) + 1)
          done;
          Runtime.Exec.tick long_work)
    done
  in
  let t2 () =
    for _ = 1 to 64 do
      let attempt_start = ref 0 in
      Stm_intf.Engine.atomic engine ~tid:1 (fun tx ->
          (* count attempts that got rolled back *)
          if !attempt_start > 0 then incr retried;
          attempt_start := Runtime.Exec.now ();
          tx.write v (tx.read v + 1);
          Runtime.Exec.tick (long_work / 16));
      Runtime.Exec.pause ()
    done
  in
  let vts = Runtime.Sim.run ~cap_cycles:1_000_000_000_000 [| t1; t2 |] in
  (Array.fold_left max 0 vts, Stm_intf.Engine.stats engine, !retried)

let fig6 () =
  Printf.printf "%-10s %14s %10s %10s %10s %12s\n" "engine" "makespan[cyc]"
    "commits" "aborts" "waits" "retried-atts";
  List.iter
    (fun (name, spec) ->
      let makespan, (stats : Stm_intf.Stats.snapshot), retried = scenario spec in
      Printf.printf "%-10s %14d %10d %10d %10d %12d\n" name makespan
        stats.s_commits
        (Stm_intf.Stats.total_aborts stats)
        stats.s_waits retried)
    [ ("tl2", tl2); ("tinystm", tinystm); ("swisstm", swisstm) ];
  note
    "  (lazy TL2 shows retried full executions = wasted work; eager engines\n\
    \   show waits/immediate aborts instead — the trade-off of Figure 6)";
  []

(* Figure 7: the eager schemes outperform the lazy ones; both RSTM
   variants sit between TinySTM and TL2. *)
let fig7 () =
  let rstm acquire =
    Engines.with_cm Cm.Cm_intf.Serializer (Engines.rstm_with ~acquire ())
  in
  grid
    [
      ("TinySTM (eager)", tinystm);
      ("RSTM eager", rstm Rstm.Rstm_engine.Eager);
      ("RSTM lazy", rstm Rstm.Rstm_engine.Lazy);
      ("TL2 (lazy)", tl2);
    ]
    (sb7 Sb7.Read_dominated)
    [ ("STMBench7 read-dominated", "10^3 tx/s", ktps) ]

(* Figure 8: every route reads a hot object and a ratio R of routes
   updates it.  On the memory board TinySTM degrades badly already at
   R = 5 % and stops scaling at 20 %; SwissTM degrades only slightly (the
   r/w-conflict optimism at work). *)
let fig8 () =
  let board = Leetm.Board.memory ~width:128 ~height:128 ~routes:160 () in
  grid
    [
      ("TinySTM 20%", (tinystm, 0.20));
      ("TinySTM 5%", (tinystm, 0.05));
      ("SwissTM 20%", (swisstm, 0.20));
      ("TinySTM", (tinystm, 0.0));
      ("SwissTM 5%", (swisstm, 0.05));
      ("SwissTM", (swisstm, 0.0));
    ]
    (fun (spec, hot_ratio) -> lee ~hot_ratio board spec)
    [ ("irregular Lee-TM, memory board", "ms (simulated)", ms) ]

(* Figure 9: Greedy beats Polka inside RSTM on this large-scale benchmark,
   reversing Polka's small-benchmark reputation. *)
let fig9 () =
  grid
    [
      ("RSTM Greedy", Engines.with_cm Cm.Cm_intf.Greedy Engines.rstm);
      ("RSTM Polka", Engines.with_cm Cm.Cm_intf.Polka Engines.rstm);
    ]
    (sb7 Sb7.Read_dominated)
    [ ("STMBench7 read-dominated", "10^3 tx/s", ktps) ]

(* Figure 10: Greedy's per-transaction shared timestamp counter is a
   cache hot spot for short transactions and wrecks scalability;
   two-phase keeps short transactions off it and scales. *)
let fig10 () =
  grid
    [ ("Two-phase", swisstm); ("Greedy", Engines.with_cm Cm.Cm_intf.Greedy swisstm) ]
    rbtree [ (rbtree_title, "10^6 tx/s", mtps) ]

(* Figure 11: restarting immediately after a rollback collapses
   scalability at 8 threads on intruder's queue hot spot; randomized
   linear back-off restores it. *)
let fig11 () =
  grid
    [
      ( "No backoff",
        Engines.with_cm (Cm.Cm_intf.Two_phase { wn = 10; backoff = false }) swisstm
      );
      ("Linear backoff", swisstm);
    ]
    (fun spec t -> fst (Stamp.Intruder.run ~spec ~threads:t ()))
    [ ("STAMP intruder execution time", "ms (simulated)", ms) ]

(* Figure 12: two-phase gains up to 16 % over timid in the high-contention
   (write) workload, little in the read-dominated one.  Long update
   transactions are rare: the doubled window keeps cell noise below the
   measured effect. *)
let fig12 () =
  let timid = Engines.with_cm Cm.Cm_intf.Timid swisstm in
  grid
    (List.map (fun w -> (Sb7.workload_name w, w)) sb7_mixes)
    (fun w t ->
      let tp spec =
        Harness.Workload.throughput (sb7 ~cycles:(2 * sb7_duration ()) w spec t)
      in
      (tp swisstm /. tp timid) -. 1.)
    [ ("two-phase CM speedup over timid", "ratio - 1", Fun.id) ]

(* Figure 13 and Table 2 share one measurement: SwissTM with stripes of
   2^0..2^6 words (the paper's 2^2..2^8 bytes on its 32-bit platform)
   over all sixteen workloads of Table 2 at 8 threads, scored higher is
   better (throughput, or inverse makespan for fixed-work benchmarks). *)
let grans = [ 1; 2; 4; 8; 16; 32; 64 ]

let inverse_makespan (r : Harness.Workload.result) =
  1e9 /. float_of_int (Int.max 1 r.elapsed_cycles)

let lee_board make =
  let b = lazy (make ()) in
  fun spec -> inverse_makespan (fst (Leetm.Router.run ~spec ~threads:8 (Lazy.force b)))

let sb7_at8 w spec =
  Harness.Workload.throughput (sb7 ~cycles:(sb7_duration () / 2) w spec 8)

let gran_benchmarks =
  List.map
    (fun n ->
      ( n,
        fun spec ->
          inverse_makespan (fst ((Option.get (Stamp.find n)).run ~spec ~threads:8 ())) ))
    Stamp.names
  @ [
      ("red-black tree", fun spec -> Harness.Workload.throughput (rbtree spec 8));
      ("Lee-TM memory", lee_board (Leetm.Board.memory ~width:96 ~height:96 ~routes:128));
      ("Lee-TM main", lee_board (Leetm.Board.main ~width:96 ~height:96 ~routes:128));
      ("STMBench7 read", sb7_at8 Sb7.Read_dominated);
      ("STMBench7 read-write", sb7_at8 Sb7.Read_write);
      ("STMBench7 write", sb7_at8 Sb7.Write_dominated);
    ]

(* scores: (benchmark, one score per granularity), measured once *)
let scores =
  lazy
    (List.map
       (fun (name, perf) ->
         note "  measuring %-22s across %d granularities..." name (List.length grans);
         (name, List.map (fun g -> perf (Engines.with_granularity g swisstm)) grans))
       gran_benchmarks)

(* Figure 13: 2^4 bytes (4 words) wins; word (2^2) and cache-line (2^6)
   granularity lose 4-5 %.  Each cell averages over benchmarks the mean
   of (perf_g / perf_g' - 1) over the other granularities g'. *)
let fig13 () =
  let scores = Lazy.force scores in
  let mean l = List.fold_left ( +. ) 0. l /. float_of_int (List.length l) in
  let cells =
    List.mapi
      (fun gi _ ->
        mean
          (List.map
             (fun (_, perfs) ->
               let mine = List.nth perfs gi in
               mean
                 (List.filteri (fun j _ -> j <> gi) perfs
                 |> List.map (fun o -> (mine /. o) -. 1.)))
             scores))
      grans
  in
  [
    Obs.Report.table "average speedup - 1 by lock granularity (log2 bytes, 32-bit words)"
      "ratio - 1"
      (List.map (fun g -> Printf.sprintf "2^%d" (2 + Memory.Stripe.log2 g)) grans)
      [ ("all benchmarks", cells) ];
  ]

(* Table 2: 2^4 vs 2^2, 2^4 vs 2^6 and 2^2 vs 2^6 bytes (4 vs 1 vs 16
   words here) per benchmark at 8 threads, plus the average row. *)
let tbl2 () =
  let rows =
    List.map
      (fun (name, perfs) ->
        let p g = List.assoc g (List.combine grans perfs) in
        (name, [ (p 4 /. p 1) -. 1.; (p 4 /. p 16) -. 1.; (p 1 /. p 16) -. 1. ]))
      (Lazy.force scores)
  in
  let avg col =
    List.fold_left (fun a (_, cells) -> a +. List.nth cells col) 0. rows
    /. float_of_int (List.length rows)
  in
  [
    Obs.Report.table "granularity speedups (paper's byte notation)" "ratio - 1"
      [ "2^4 vs 2^2"; "2^4 vs 2^6"; "2^2 vs 2^6" ]
      (rows @ [ ("Average", [ avg 0; avg 1; avg 2 ]) ]);
  ]

(* CM sweep (extends Figure 12): timid vs two-phase vs adaptive inside
   SwissTM on STMBench7.  Throughput asks whether adaptive throttling
   costs anything when contention is benign and helps when it is
   pathological; the worst consecutive-abort run of any thread asks
   about starvation, which fixed policies leave unbounded and adaptive
   must keep within its escalation budget K ([make fault-smoke] asserts
   this under an injected abort storm; here it is organic contention). *)
let cm_sweep () =
  List.concat_map
    (fun w ->
      let wname = Sb7.workload_name w in
      grid
        [
          ("timid", Engines.with_cm Cm.Cm_intf.Timid swisstm);
          ("two-phase", swisstm);
          ("adaptive", Engines.with_cm Cm.Cm_intf.default_adaptive swisstm);
        ]
        (sb7 w)
        [
          (wname ^ ": throughput", "ktx/s", ktps);
          ( wname ^ ": worst consecutive-abort run",
            "aborts",
            fun (r : Harness.Workload.result) ->
              float_of_int r.stats.s_max_consecutive_aborts );
        ])
    [ Sb7.Read_write; Sb7.Write_dominated ]

let figures =
  List.map
    (fun (name, title, tables) -> (name, { title; body = (fun ~smoke:_ -> (tables (), [])) }))
    [
      ("tbl1", "Table 1: design-choice combinations, STMBench7 read-write mix", tbl1);
      ("fig2", "Figure 2: STMBench7 throughput [10^3 tx/s] vs threads", fig2);
      ("fig3", "Figure 3: STAMP speedup of SwissTM (minus 1)", fig3);
      ("fig4", "Figure 4: Lee-TM execution time [simulated ms] vs threads", fig4);
      ("fig5", "Figure 5: red-black tree throughput [10^6 tx/s] vs threads", fig5);
      ("fig6", "Figure 6: lazy vs eager conflict-detection pathologies (measured)", fig6);
      ("fig7", "Figure 7: eager vs lazy schemes, STMBench7 read-dominated", fig7);
      ("fig8", "Figure 8: irregular Lee-TM (memory board), execution time", fig8);
      ("fig9", "Figure 9: Polka vs Greedy (RSTM), STMBench7 read-dominated", fig9);
      ("fig10", "Figure 10: two-phase vs Greedy (SwissTM), red-black tree", fig10);
      ("fig11", "Figure 11: back-off vs no back-off (SwissTM), STAMP intruder", fig11);
      ("fig12", "Figure 12: two-phase vs timid (SwissTM), STMBench7 speedup - 1", fig12);
      ("fig13", "Figure 13: average speedup of lock granularities (8 threads)", fig13);
      ("tbl2", "Table 2: lock-granularity comparison (relative speedup - 1)", tbl2);
      ("cm-sweep", "CM sweep: timid / two-phase / adaptive (SwissTM), STMBench7", cm_sweep);
    ]

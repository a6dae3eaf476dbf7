(* The bench gate (DESIGN.md §17): one run, one JSON record (default
   [BENCH_GATE.json]), two sections.

   - "simulated": the gate sections — the sb7 smoke matrix, the simulated
     privatization penalty, the NOrec-vs-TL2 crossover, the open-system
     service ramp, the boosted-vs-word collections and the NUMA scale
     columns — each as its [Obs.Report] tables and its named shape
     checks.  Simulated time is a deterministic function of (engine,
     config, seed), so the tables and check verdicts are diffed cell by
     cell against the committed golden, which another process wrote:
     equality also proves cross-process bit-identity.  A differing cell
     or verdict (each is printed as section › table › row › column with
     its golden and current value), a missing golden or a failed check
     fails the gate.
   - "measured": wall-clock numbers.  The one timed check is the
     Wlog-vs-Hashtbl A/B, timed as interleaved pairs in this run; the
     median per-pair improvement must reach [required_improvement_pct].
     The heap / epoch / boost gauges ride along.

   Both modes check the smoke golden.  Full mode also emits the
   full-size cells under "full": not compared, but their checks gate.

     dune exec bench/perf_gate.exe -- --smoke       # CI, seconds
     dune exec bench/perf_gate.exe                  # plus full-size cells
     dune exec bench/perf_gate.exe -- --out f.json *)

let smoke = ref false
let out = ref "BENCH_GATE.json"

let () =
  Arg.parse
    [
      ("--smoke", Arg.Set smoke, " quick mode: smoke cells only");
      ("--out", Arg.Set_string out, "FILE record (default BENCH_GATE.json)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perf_gate [--smoke] [--out FILE]"

(* Relative: run from the repository root (as `make check` does). *)
let golden_path = "bench/golden/gate-smoke.json"
let required_improvement_pct = 20.0

(* With the epoch reclaimer standing in for the §6 quiescence barrier,
   the sb7 read-mix privatization penalty may be at most 15 % vs plain
   (privatization-unsafe) swisstm; quiescence measured −34 % on this mix
   (EXPERIMENTS.md). *)
let epoch_penalty_floor_pct = -15.0

open Obs.Json

(* ---------- simulated section ---------- *)

(* Figure 2's line-up over the three sb7 mixes. *)
let sb7 =
  {
    Bench_common.title = "STMBench7 mixes, Figure 2's engines";
    body =
      (fun ~smoke ->
        let threads = if smoke then [ 1; 2 ] else [ 1; 2; 4; 8 ] in
        let cycles = if smoke then 200_000 else 2_000_000 in
        ( List.concat_map
            (fun (wname, workload) ->
              Bench_common.grid ~threads Paper.fig2_engines (Paper.sb7 ~cycles workload)
                [
                  (wname ^ " throughput", "10^3 tx/s", Bench_common.ktps);
                  ( wname ^ " elapsed", "cycles",
                    fun (r : Harness.Workload.result) -> float_of_int r.elapsed_cycles );
                  (wname ^ " abort rate", "share", Harness.Workload.abort_rate);
                ])
            Scale.scale_workloads,
          [] ));
  }

(* The sb7 read mix at 8 simulated threads under plain swisstm, the §6
   quiescence barrier and the epoch reclaimer (DESIGN.md §12).  Epoch
   announcements are uncharged atomics and [Heap.free]'s deferral happens
   off the simulated clock, so +epochs must track plain while
   +quiescence keeps paying the commit-time barrier. *)
let privatization =
  {
    Bench_common.title = "privatization on the sb7 read mix";
    body =
      (fun ~smoke ->
        let threads = 8 in
        let duration_cycles = if smoke then 400_000 else 2_000_000 in
        let run spec =
          Bench_common.ktps
            (Stmbench7.Sb7_bench.run ~spec
               ~workload:Stmbench7.Sb7_bench.Read_dominated ~threads
               ~duration_cycles ())
        in
        let plain = run Engines.swisstm in
        let quiesce = run Engines.swisstm_priv_safe in
        let epoch =
          Memory.Epoch.arm ();
          let r = run Engines.swisstm in
          (* the simulated threads went online at their first
             announcement; take them off so they hold no later grace
             period open *)
          for tid = 0 to threads - 1 do
            Memory.Epoch.offline ~tid
          done;
          Memory.Epoch.disarm ();
          r
        in
        let penalty v = (v -. plain) /. plain *. 100. in
        let row cells = [ (Printf.sprintf "%dT" threads, cells) ] in
        ( [
            Obs.Report.table "sb7 read_dominated throughput" "10^3 tx/s"
              [ "plain"; "+quiescence"; "+epochs" ] (row [ plain; quiesce; epoch ]);
            Obs.Report.table "sb7 read_dominated penalty vs plain" "%"
              [ "+quiescence"; "+epochs" ] (row [ penalty quiesce; penalty epoch ]);
          ],
          [ ("epoch_penalty_floor", penalty epoch >= epoch_penalty_floor_pct) ] ));
  }

(* The gate sections at one size.  Full size leaves scale out: `bench
   scale` runs the full sweep. *)
let sections ~smoke =
  [
    ("sb7", sb7);
    ("privatization_sim", privatization);
    ("crossover", Crossover.section);
    ("service", Service_bench.section);
    ("boost", Boost_bench.section);
  ]
  @ if smoke then [ ("scale", Scale.section) ] else []

(* Every section's tables and checks at one size, as (name, tables,
   checks), and their JSON: one member per section. *)
let simulated ~smoke =
  let results =
    List.map
      (fun (name, (s : Bench_common.section)) ->
        Printf.printf "perf_gate: %s (%s)...\n%!" name (if smoke then "smoke" else "full");
        let tables, checks = s.body ~smoke in
        Bench_common.print_checks name checks;
        (name, tables, checks))
      (sections ~smoke)
  in
  let json (name, tables, checks) =
    ( name,
      Obj
        [
          ("tables", Obs.Report.to_json tables);
          ("checks", Obj (List.map (fun (c, ok) -> (c, Bool ok)) checks));
        ] )
  in
  (results, Obj (List.map json results))

(* A simulated member's tables, each titled "section › title", so that
   [Obs.Report.diff] names a cell section › table › row › column.  A
   section's checks are one more table, "section › checks" (a row per
   check, 1 if it holds): a check that changes verdict, is renamed or is
   gone differs like a cell. *)
let tables_of = function
  | Obj sections ->
      List.concat_map
        (fun (name, j) ->
          let verdict = function
            | c, Bool ok -> (c, [ Bool.to_float ok ])
            | c, _ -> failwith (name ^ " check " ^ c ^ " is not a boolean")
          in
          match (member "tables" j, member "checks" j) with
          | Some t, Some (Obj cs) ->
              Obs.Report.of_json t
              @ [ Obs.Report.table "checks" "holds" [ "holds" ] (List.map verdict cs) ]
              |> List.map (fun (t : Obs.Report.table) ->
                     { t with title = name ^ " › " ^ t.title })
          | _ -> failwith (name ^ " has no tables or no checks"))
        sections
  | _ -> failwith "not an object of sections"

let read_golden () =
  match In_channel.with_open_bin golden_path In_channel.input_all with
  | exception Sys_error e -> Error e
  | s -> ( try Ok (tables_of (of_string s)) with Parse_error e | Failure e -> Error e)

(* ---------- measured section: Wlog vs Hashtbl ---------- *)

let make_wlog_tx () =
  let open Stm_intf in
  let wl = Wlog.create () in
  let acc = ref 0 in
  fun () ->
    for i = 0 to 7 do
      Wlog.replace wl (1 + (i * 8)) i
    done;
    for i = 0 to 7 do
      acc := !acc + Wlog.slot_value wl (Wlog.probe wl (1 + (i * 8)))
    done;
    for i = 0 to 7 do
      (* the read-before-write misses an update transaction also issues *)
      if Wlog.probe wl (1000 + i) >= 0 then incr acc
    done;
    Wlog.clear wl

let make_hashtbl_tx () =
  let ht : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let acc = ref 0 in
  fun () ->
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

let batch_ns ~iters f =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    f ()
  done;
  (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters

(* Nearest-rank quartiles. *)
let quartiles a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  let n = Array.length a in
  (a.(n / 4), a.(n / 2), a.(3 * n / 4))

let quartiles_json a =
  let q1, q2, q3 = quartiles a in
  Obj [ ("p25", Float q1); ("p50", Float q2); ("p75", Float q3) ]

(* Interleaved pairs, the first side alternating, so load that hits one
   batch of a pair hits both sides over the run; the verdict is the
   median of the per-pair improvements. *)
let wlog_ab ~pairs ~iters =
  let wl = make_wlog_tx () and ht = make_hashtbl_tx () in
  for _ = 1 to 1000 do
    wl ();
    ht ()
  done;
  let wl_ns = Array.make pairs 0. and ht_ns = Array.make pairs 0. in
  for i = 0 to pairs - 1 do
    if i land 1 = 0 then begin
      wl_ns.(i) <- batch_ns ~iters wl;
      ht_ns.(i) <- batch_ns ~iters ht
    end
    else begin
      ht_ns.(i) <- batch_ns ~iters ht;
      wl_ns.(i) <- batch_ns ~iters wl
    end
  done;
  let imp =
    Array.init pairs (fun i -> (ht_ns.(i) -. wl_ns.(i)) /. ht_ns.(i) *. 100.)
  in
  let _, median, _ = quartiles imp in
  let q a =
    let q1, q2, q3 = quartiles a in
    Printf.sprintf "%.1f [%.1f, %.1f]" q2 q1 q3
  in
  Printf.printf
    "  wlog %s ns/tx, hashtbl %s ns/tx: median improvement %.1f%% over %d \
     pairs (need >= %.0f%%)\n%!"
    (q wl_ns) (q ht_ns) median pairs required_improvement_pct;
  ( Obj
      [
        ("pairs", Int pairs);
        ("iters_per_batch", Int iters);
        ("wlog_ns_per_tx", quartiles_json wl_ns);
        ("hashtbl_ns_per_tx", quartiles_json ht_ns);
        ("improvement_pct", quartiles_json imp);
        ("required_pct", Float required_improvement_pct);
      ],
    median )

(* ---------- the run ---------- *)

let () =
  Printf.printf "perf_gate: wlog vs hashtbl A/B...\n%!";
  let ab_json, ab_median =
    wlog_ab ~pairs:(if !smoke then 31 else 101) ~iters:10_000
  in
  let sim, sim_json = simulated ~smoke:true in
  let full = if !smoke then [] else [ simulated ~smoke:false ] in
  let gauges =
    Obj (List.map (fun (n, v) -> (n, Int v)) (Obs.Metrics.gauge_values ()))
  in
  let record =
    [
      ("schema", Str "swisstm-repro/perf-gate/8");
      ("mode", Str (if !smoke then "smoke" else "full"));
      ("golden", Str golden_path);
      ("simulated", sim_json);
      ("measured", Obj [ ("wlog_ab", ab_json); ("gauges", gauges) ]);
    ]
    @ List.map (fun (_, j) -> ("full", j)) full
  in
  (* One top-level member per line, so the "simulated" line, minus its
     key and comma, is a golden byte for byte. *)
  Out_channel.with_open_bin !out (fun oc ->
      output_string oc "{\n";
      List.iteri
        (fun i (k, v) ->
          Printf.fprintf oc "%s  %s: %s" (if i > 0 then ",\n" else "")
            (to_string (Str k)) (to_string v))
        record;
      output_string oc "\n}\n");
  Printf.printf "perf_gate: wrote %s\n%!" !out;
  let failures = ref 0 in
  let fail fmt =
    incr failures;
    Printf.eprintf ("perf_gate: FAIL " ^^ fmt ^^ "\n%!")
  in
  (match read_golden () with
  | Error e -> fail "golden %s unreadable (%s)" golden_path e
  | Ok golden ->
      (* compare what was written, so both sides went through the printer *)
      let diffs = Obs.Report.diff golden (tables_of (of_string (to_string sim_json))) in
      List.iter
        (fun (path, g, c) -> Printf.eprintf "  %s: golden %s, current %s\n" path g c)
        diffs;
      if diffs <> [] then
        fail "%d simulated cells differ from %s; current cells are in the \
              \"simulated\" member of %s"
          (List.length diffs) golden_path !out
      else
        Printf.printf "perf_gate: simulated section matches %s\n%!" golden_path);
  List.iter
    (fun (section, _, checks) ->
      List.iter (fun (n, ok) -> if not ok then fail "check %s.%s" section n) checks)
    (sim @ List.concat_map fst full);
  if ab_median < required_improvement_pct then
    fail "wlog only %.1f%% better than hashtbl (median, need >= %.0f%%)"
      ab_median required_improvement_pct;
  if !failures > 0 then exit 1;
  Printf.printf
    "perf_gate: OK (simulated cells match the golden, every check holds, \
     wlog %.1f%% better than hashtbl)\n%!"
    ab_median

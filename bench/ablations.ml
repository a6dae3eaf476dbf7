(* Ablations beyond the paper's figures — the §6 side experiments:

   "Besides those, we also experimented with nested transactions (closed
   nesting) and multi-versioning, but we could not see a clear advantage
   of those techniques in the considered workloads."  And on privatization
   safety: "while this algorithm is simple, it would probably
   significantly impact performance of SwissTM."

   Each ablation regenerates the corresponding comparison so those claims
   are measurable in this codebase too. *)

open Bench_common

(* --- closed nesting vs flattening ----------------------------------- *)

(* A two-part transaction: cheap private prologue + contended suffix.
   With flattening, a w/w conflict in the suffix redoes everything; with
   closed nesting only the suffix retries. *)
let nesting_workload ~nested ~threads =
  let heap = Memory.Heap.create ~words:(1 lsl 18) in
  let private_base = Memory.Heap.alloc heap (64 * 64) in
  let hot = Memory.Heap.alloc heap 8 in
  let t =
    let s = Engines.swisstm in
    Swisstm.Swisstm_engine.create ~cm:s.cm
      ~granularity_words:s.granularity_words ~table_bits:s.table_bits
      ~privatization_safe:false ~debug_no_validation:false heap
  in
  let ops = 400 in
  let body tid () =
    let rng = Runtime.Rng.for_thread ~seed:21 ~tid in
    for _ = 1 to ops do
      Swisstm.Swisstm_engine.atomic t ~tid (fun d ->
          (* prologue: 32 private writes *)
          let mine = private_base + (tid * 64) in
          for i = 0 to 31 do
            Swisstm.Swisstm_engine.write_word t d (mine + i)
              (Swisstm.Swisstm_engine.read_word t d (mine + i) + 1)
          done;
          Runtime.Exec.tick ((Runtime.Costs.get ()).work * 64);
          let suffix d =
            let h = hot + (Runtime.Rng.int rng 2 * 4) in
            let v = Swisstm.Swisstm_engine.read_word t d h in
            Swisstm.Swisstm_engine.write_word t d h (v + 1)
          in
          if nested then Swisstm.Swisstm_engine.atomic_closed d suffix
          else suffix d)
    done
  in
  let makespan =
    Runtime.Sim.run_threads ~cap_cycles:1_000_000_000_000 ~threads (fun tid ->
        body tid ())
  in
  (makespan, Kernel.Driver.snapshot t.core)

let run_nesting () =
  section "Ablation: closed nesting vs flattening (paper §6)";
  Printf.printf "%-10s %8s %14s %10s %10s\n" "mode" "threads" "makespan[cyc]"
    "commits" "aborts";
  List.iter
    (fun threads ->
      List.iter
        (fun (label, nested) ->
          let makespan, s = nesting_workload ~nested ~threads in
          Printf.printf "%-10s %8d %14d %10d %10d\n" label threads makespan
            s.s_commits
            (Stm_intf.Stats.total_aborts s))
        [ ("flat", false); ("nested", true) ])
    [ 2; 4; 8 ]

(* --- multi-versioning ------------------------------------------------- *)

let run_mv () =
  section "Ablation: multi-versioning (mvstm) vs TL2 vs SwissTM (paper §6)";
  let rows =
    List.map
      (fun (name, spec) ->
        ( name,
          List.map
            (fun t ->
              ktps
                (Stmbench7.Sb7_bench.run ~spec ~workload:Stmbench7.Sb7_bench.Read_dominated
                   ~threads:t ~duration_cycles:(sb7_duration ()) ()))
            threads ))
      [ ("SwissTM", swisstm); ("TL2", tl2); ("MV-STM", Engines.mvstm) ]
  in
  Obs.Report.print
    (Obs.Report.table "STMBench7 read-dominated" "10^3 tx/s"
       (List.map (fun t -> Printf.sprintf "%dT" t) threads)
       rows)

(* --- privatization-safety cost ---------------------------------------- *)

let run_priv () =
  section "Ablation: quiescence privatization-safety cost (paper §6)";
  List.iter
    (fun workload ->
      let rows =
        List.map
          (fun (name, spec) ->
            ( name,
              List.map
                (fun t ->
                  ktps
                    (Stmbench7.Sb7_bench.run ~spec ~workload ~threads:t
                       ~duration_cycles:(sb7_duration () / 2) ()))
                threads ))
          [
            ("SwissTM", swisstm);
            ("SwissTM+quiescence", Engines.swisstm_priv_safe);
          ]
      in
      Obs.Report.print
        (Obs.Report.table
           (Printf.sprintf "STMBench7 %s" (Stmbench7.Sb7_bench.workload_name workload))
           "10^3 tx/s"
           (List.map (fun t -> Printf.sprintf "%dT" t) threads)
           rows))
    [ Stmbench7.Sb7_bench.Read_dominated; Stmbench7.Sb7_bench.Write_dominated ]

(* --- contention-manager shootout -------------------------------------- *)

let run_cms () =
  section "Ablation: contention managers in SwissTM (8 threads)";
  let cms =
    [
      ("two-phase", Cm.Cm_intf.default_two_phase);
      ("timid", Cm.Cm_intf.Timid);
      ("greedy", Cm.Cm_intf.Greedy);
      ("serializer", Cm.Cm_intf.Serializer);
      ("polka", Cm.Cm_intf.Polka);
      ("karma", Cm.Cm_intf.Karma);
      ("timestamp", Cm.Cm_intf.Timestamp);
    ]
  in
  Printf.printf "%-12s %18s %18s\n" "manager" "sb7-rw [ktx/s]" "rbtree [Mtx/s]";
  List.iter
    (fun (name, cm) ->
      let spec = Engines.swisstm_with ~cm () in
      let sb7 =
        ktps
          (Stmbench7.Sb7_bench.run ~spec ~workload:Stmbench7.Sb7_bench.Read_write
             ~threads:8 ~duration_cycles:(sb7_duration () / 2) ())
      in
      let rb =
        mtps
          (Rbtree.Rbtree_bench.run ~spec ~threads:8
             ~duration_cycles:(rbtree_duration ()) ())
      in
      Printf.printf "%-12s %18.1f %18.3f\n%!" name sb7 rb)
    cms

(* --- composed kernel design points ------------------------------------ *)

(* `bench ablations --list`: the full design-point registry, one row per
   named engine the testbed can run, located in kernel axis space. *)
let list () =
  section "Kernel design-point registry (lib/kernel/registry.ml)";
  Printf.printf "%-26s %-9s %-13s %-30s %s\n" "name" "kind" "contract" "axes"
    "summary";
  List.iter
    (fun (e : Kernel.Registry.entry) ->
      let kind =
        match e.kind with
        | Kernel.Registry.Classic _ -> "classic"
        | Kernel.Registry.Composed -> "composed"
      in
      let contract =
        match Kernel.Registry.contract e with
        | Kernel.Axes.Opaque -> "opaque"
        | Kernel.Axes.Serializable -> "serializable"
      in
      let axes =
        match e.point with
        | Some p -> Kernel.Axes.point_name p
        | None -> "-"
      in
      Printf.printf "%-26s %-9s %-13s %-30s %s\n" e.name kind contract axes
        e.summary)
    Kernel.Registry.entries

(* Red-black-tree throughput across every composed point next to the
   classic engine sharing its acquisition axis, so a new combination's
   cost is immediately attributable to the axis it moved. *)
let run_kernel_points () =
  section "Ablation: composed kernel design points (rbtree, 8 threads)";
  Printf.printf "%-26s %18s\n" "engine" "rbtree [Mtx/s]";
  List.iter
    (fun name ->
      match Engines.of_string name with
      | None -> ()
      | Some spec ->
          let r =
            mtps
              (Rbtree.Rbtree_bench.run ~spec ~threads:8
                 ~duration_cycles:(rbtree_duration ()) ())
          in
          Printf.printf "%-26s %18.3f\n%!" name r)
    ([ "swisstm"; "tl2"; "tinystm"; "rstm"; "norec"; "tlrw" ]
    @ Engines.kernel_names)

let run () =
  run_nesting ();
  run_mv ();
  run_priv ();
  run_cms ();
  run_kernel_points ();
  run_section Boost_bench.section ()

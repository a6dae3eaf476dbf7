(* Scale-out study (DESIGN.md §16): rerun the paper's evaluation shape at
   64-512 simulated cores on a NUMA topology of 32-core sockets.

   The paper measured 1-8 hardware threads; every verdict in
   EXPERIMENTS.md is conditioned on that small machine.  This sweep asks
   which verdicts survive when the simulated machine grows two orders of
   magnitude and misses become distance-dependent:

   - "sb7": the Figure-2 STMBench7 mixes over SwissTM / TinySTM / TL2 at
     64, 128, 256 and 512 cores (RSTM's per-thread ownership words cap it
     at 62 threads; the sweep demonstrates the named refusal instead of
     silently aliasing).  Per-socket hit/miss/steal counters ride along.
   - "granularity": the Figure-13 stripe-size sweep (coarse subset) at
     256 cores — at 8 threads coarse stripes only flattened the curve;
     false conflicts should turn it downward once 256 threads share a
     stripe.
   - "taskpar": the work-stealing task mode ([Harness.Taskpar]) at each
     core count, proving steals happen, get charged, and surface to the
     per-socket counters and the contention manager.

   Everything is simulated time, so the whole sweep is a deterministic
   function of (topology, engine, seed): perf_gate compares the smoke
   sweep's tables against its committed golden. *)

open Bench_common

let core_counts = [ 64; 128; 256; 512 ]
let cores_per_socket = 32

let topology_of ~cores =
  Runtime.Topology.make ~sockets:(cores / cores_per_socket) ~cores_per_socket

(* Install the topology for one measurement cell.  [Topology.set] resets
   the per-socket directory state and counters, so cells never share
   queuing history and the counters read afterwards are per-cell. *)
let with_topology topo f =
  Runtime.Topology.set topo;
  Fun.protect ~finally:Runtime.Topology.reset f

let scale_engines =
  [ ("SwissTM", swisstm); ("TinySTM", tinystm); ("TL2", tl2) ]

let scale_workloads =
  [
    ("read_dominated", Stmbench7.Sb7_bench.Read_dominated);
    ("read_write", Stmbench7.Sb7_bench.Read_write);
    ("write_dominated", Stmbench7.Sb7_bench.Write_dominated);
  ]

(* Durations are deliberately far below the 8-thread figures': simulated
   work is threads x duration, and 512 cores buy the scaling shape, not
   tighter throughput confidence.  Smoke additionally shrinks the sb7
   structure (same multi-level shape, smaller populations) so the whole
   sweep stays in CI-smoke territory. *)
let sb7_scale_duration ~smoke = if smoke then 30_000 else duration 400_000

let sb7_params ~smoke ~cores =
  if smoke then
    Stmbench7.Sb7_params.with_scale 0.35 Stmbench7.Sb7_params.default
  else
    (* Full mode runs the paper-size structure, but structural-modification
       allocations scale with the thread count: provision create-op
       headroom (part slots and the heap words behind them) per core, or
       512 writers exhaust the 8-thread slack mid-run. *)
    {
      Stmbench7.Sb7_params.default with
      Stmbench7.Sb7_params.part_capacity_slack = 20 + (4 * cores);
    }

(* One cell: the run and its per-socket (hits, misses, steals). *)
let sb7_cell ~smoke ~workload spec cores =
  with_topology (topology_of ~cores) (fun () ->
      let r =
        Stmbench7.Sb7_bench.run ~params:(sb7_params ~smoke ~cores) ~spec
          ~workload ~threads:cores
          ~duration_cycles:(sb7_scale_duration ~smoke) ()
      in
      (r, Runtime.Topology.socket_counters ()))

(* Engines x core counts, per workload (smoke: the read-write mix). *)
let matrix ~smoke () =
  List.map
    (fun (wname, workload) ->
      (wname, sweep ~threads:core_counts scale_engines (sb7_cell ~smoke ~workload)))
    (if smoke then [ List.nth scale_workloads 1 ] else scale_workloads)

(* The named refusal: engines whose metadata encodes thread identity in a
   fixed word (RSTM ownership bitmaps, TLRW bytelocks) cap the thread
   count and must say so rather than alias tids into each other's bits. *)
let rstm_refusal () =
  try
    ignore
      (Stmbench7.Sb7_bench.run ~spec:rstm_serializer
         ~workload:Stmbench7.Sb7_bench.Read_write ~threads:64
         ~duration_cycles:10_000 ()
        : Harness.Workload.result);
    None
  with Stm_intf.Engine.Unsupported_thread_count { engine; tid; limit } ->
    Some (engine, tid, limit)

(* Figure-13 subset at scale: SwissTM stripe-size sweep on the sb7
   read-write mix at 256 cores. *)
let gran_cores = 256
let grans = [ 1; 4; 16; 64 ]

let gran_rows ~smoke () =
  List.map
    (fun g ->
      fst
        (sb7_cell ~smoke ~workload:Stmbench7.Sb7_bench.Read_write
           (Engines.with_granularity g swisstm) gran_cores))
    grans

(* Work-stealing task mode: [tasks_per_core] tasks per core, seeded
   round-robin; odd tasks spawn a subtask; every task runs a small
   transactional update mix on a shared striped array, so steals migrate
   transactional work across sockets and the CM sees [note_steal].  The
   imbalance (task cost grows with task index) is what makes stealing
   actually fire. *)
type steal_row = {
  s_cores : int;
  s_tasks : int;
  s_steals : int;
  s_probes : int;
  s_elapsed : int;
  s_socket_steals : int;  (** per-socket steal counters, summed *)
}

let taskpar_cell ~smoke ~cores =
  with_topology (topology_of ~cores) (fun () ->
      let heap = Memory.Heap.create ~words:(1 lsl 16) in
      let slots = cores in
      let base = Memory.Heap.alloc heap slots in
      let engine = Engines.make swisstm heap in
      let tasks_per_core = if smoke then 2 else 8 in
      let r =
        Harness.Taskpar.run ~seed:42 ~engine ~threads:cores
          ~tasks:(cores * tasks_per_core) (fun ~task ctx ->
            let open Stm_intf in
            (* cost skew: later tasks do more transactions *)
            for round = 0 to 1 + (task mod 4) do
              Engine.atomic engine ~tid:ctx.Harness.Taskpar.tid (fun tx ->
                  let a = base + (task mod slots) in
                  let b = base + ((task + round + 1) mod slots) in
                  let v = tx.Engine.read a in
                  tx.Engine.write b (v + 1))
            done;
            if task land 1 = 1 then
              ctx.Harness.Taskpar.spawn (fun sub ->
                  Engine.atomic engine ~tid:sub.Harness.Taskpar.tid
                    (fun tx ->
                      let a = base + (task mod slots) in
                      tx.Engine.write a (tx.Engine.read a + 1))))
      in
      let socket_steals =
        Array.fold_left
          (fun acc (_, _, s) -> acc + s)
          0
          (Runtime.Topology.socket_counters ())
      in
      {
        s_cores = cores;
        s_tasks = r.Harness.Taskpar.tasks;
        s_steals = r.Harness.Taskpar.steals;
        s_probes = r.Harness.Taskpar.probes;
        s_elapsed = r.Harness.Taskpar.elapsed_cycles;
        s_socket_steals = socket_steals;
      })

let taskpar_rows ~smoke () =
  List.map (fun cores -> taskpar_cell ~smoke ~cores) core_counts

(* ---------- checks ---------- *)

let checks matrix steal_rows refusal =
  let cells =
    List.concat_map
      (fun (_, engines) ->
        List.concat_map (fun (_, cells) -> List.combine core_counts cells) engines)
      matrix
  in
  let sockets_populated =
    cells <> []
    && List.for_all
         (fun (cores, (_, per_socket)) ->
           let sum pick = Array.fold_left (fun acc s -> acc + pick s) 0 per_socket in
           sum (fun (h, _, _) -> h) > 0
           && sum (fun (_, m, _) -> m) > 0
           && Array.length per_socket = cores / cores_per_socket
           && Array.for_all (fun (h, m, _) -> h > 0 || m > 0) per_socket)
         cells
  in
  let steals_observed =
    steal_rows <> []
    && List.for_all
         (fun s ->
           s.s_steals > 0
           && s.s_probes >= s.s_steals
           && s.s_socket_steals = s.s_steals)
         steal_rows
  in
  let all_tasks_ran =
    List.for_all (fun s -> s.s_tasks >= s.s_cores) steal_rows
  in
  [
    ("sockets_populated", sockets_populated);
    ("steals_observed", steals_observed);
    ("taskpar_completed", all_tasks_ran);
    ("rstm_refuses_64t", refusal <> None);
  ]

(* ---------- tables ---------- *)

let counters =
  [ ("hits", fun (h, _, _) -> h); ("misses", fun (_, m, _) -> m); ("steals", fun (_, _, s) -> s) ]

(* Per workload: throughput, elapsed cycles and abort rate by core count,
   then each core count's per-socket counters of every engine, totalled. *)
let sb7_tables (wname, engines) =
  let coherence i cores =
    let sockets = cores / cores_per_socket in
    let columns =
      List.concat_map (fun (e, _) -> List.map (fun (c, _) -> e ^ " " ^ c) counters) engines
    in
    let at socket =
      List.concat_map
        (fun (_, cells) ->
          let per_socket = snd (List.nth cells i) in
          List.map (fun (_, pick) -> float_of_int (pick per_socket.(socket))) counters)
        engines
    in
    let per = List.init sockets (fun s -> (Printf.sprintf "S%d" s, at s)) in
    let total = List.fold_left (List.map2 ( +. )) (List.map (Fun.const 0.) columns) in
    Obs.Report.table
      (Printf.sprintf "%s coherence at %d cores, %d sockets of %d" wname cores sockets
         cores_per_socket)
      "events" columns
      (per @ [ ("total", total (List.map snd per)) ])
  in
  views ~threads:core_counts engines
    [
      (wname ^ " throughput", "10^3 tx/s", fun (r, _) -> ktps r);
      ( wname ^ " elapsed", "cycles",
        fun ((r : Harness.Workload.result), _) -> float_of_int r.elapsed_cycles );
      (wname ^ " abort rate", "share", fun (r, _) -> Harness.Workload.abort_rate r);
    ]
  @ List.mapi coherence core_counts

let gran_tables gran =
  let columns = List.map (Printf.sprintf "%dw") grans in
  List.map
    (fun (title, unit_, value) ->
      Obs.Report.table
        (Printf.sprintf "stripe words at %d cores: %s" gran_cores title)
        unit_ columns
        [ ("SwissTM read_write", List.map value gran) ])
    [
      ("throughput", "10^3 tx/s", ktps);
      ( "elapsed", "cycles",
        fun (r : Harness.Workload.result) -> float_of_int r.elapsed_cycles );
    ]

let taskpar_table steal_rows =
  Obs.Report.table "work-stealing task mode" "count, cycles"
    (List.map (Printf.sprintf "%dT") core_counts)
    (List.map
       (fun (label, value) -> (label, List.map (fun s -> float_of_int (value s)) steal_rows))
       [
         ("tasks", fun s -> s.s_tasks);
         ("steals", fun s -> s.s_steals);
         ("probes", fun s -> s.s_probes);
         ("makespan", fun s -> s.s_elapsed);
       ])

let refusal_table refusal =
  Obs.Report.table "RSTM at 64 threads: refused thread id" "tid" [ "tid"; "limit" ]
    (List.map
       (fun (engine, tid, limit) -> (engine, [ float_of_int tid; float_of_int limit ]))
       (Option.to_list refusal))

(* ---------- the section (perf_gate, bench scale) ---------- *)

let section =
  {
    title =
      Printf.sprintf "Scale-out: 64-512 simulated cores, %d-core sockets (DESIGN.md §16)"
        cores_per_socket;
    body =
      (fun ~smoke ->
        let matrix = matrix ~smoke () in
        let gran = gran_rows ~smoke () in
        let steal_rows = taskpar_rows ~smoke () in
        let refusal = rstm_refusal () in
        ( List.concat_map sb7_tables matrix
          @ gran_tables gran
          @ [ taskpar_table steal_rows; refusal_table refusal ],
          checks matrix steal_rows refusal ));
  }

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
   sweep's JSON against its committed golden. *)

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

type row = {
  workload : string;
  engine : string;
  cores : int;
  sockets : int;
  ktps : float;
  elapsed_cycles : int;
  abort_rate : float;
  per_socket : (int * int * int) array;
      (** (hits, misses, steals) per socket, this cell only *)
}

let totals r =
  Array.fold_left
    (fun (h, m, s) (h', m', s') -> (h + h', m + m', s + s'))
    (0, 0, 0) r.per_socket

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

let sb7_cell ~smoke ~workload ~spec ~cores =
  with_topology (topology_of ~cores) (fun () ->
      let r =
        Stmbench7.Sb7_bench.run ~params:(sb7_params ~smoke ~cores) ~spec
          ~workload ~threads:cores
          ~duration_cycles:(sb7_scale_duration ~smoke) ()
      in
      (r, Runtime.Topology.socket_counters ()))

let matrix ~smoke () =
  let workloads =
    if smoke then [ List.nth scale_workloads 1 ] else scale_workloads
  in
  List.concat_map
    (fun (wname, workload) ->
      List.concat_map
        (fun (ename, spec) ->
          List.map
            (fun cores ->
              let r, per_socket = sb7_cell ~smoke ~workload ~spec ~cores in
              {
                workload = wname;
                engine = ename;
                cores;
                sockets = cores / cores_per_socket;
                ktps = ktps r;
                elapsed_cycles = r.Harness.Workload.elapsed_cycles;
                abort_rate = Harness.Workload.abort_rate r;
                per_socket;
              })
            core_counts)
        scale_engines)
    workloads

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
    Some (Printf.sprintf "%s refuses tid %d (limit %d)" engine tid limit)

(* Figure-13 subset at scale: SwissTM stripe-size sweep on the sb7
   read-write mix at 256 cores. *)
let gran_cores = 256
let grans = [ 1; 4; 16; 64 ]

let gran_rows ~smoke () =
  List.map
    (fun g ->
      let r, _ =
        sb7_cell ~smoke ~workload:Stmbench7.Sb7_bench.Read_write
          ~spec:(Engines.with_granularity g swisstm)
          ~cores:gran_cores
      in
      (g, ktps r, r.Harness.Workload.elapsed_cycles))
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

let checks rows steal_rows refusal =
  let sockets_populated =
    rows <> []
    && List.for_all
         (fun r ->
           let h, m, _ = totals r in
           h > 0 && m > 0
           && Array.length r.per_socket = r.sockets
           && Array.for_all (fun (h, m, _) -> h > 0 || m > 0) r.per_socket)
         rows
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

(* ---------- JSON sidecar ---------- *)

let json ~smoke rows gran steal_rows refusal checks =
  let open Obs.Json in
  let row_json r =
    let h, m, s = totals r in
    Obj
      [
        ("workload", Str r.workload);
        ("engine", Str r.engine);
        ("cores", Int r.cores);
        ("sockets", Int r.sockets);
        ("ktps", Float r.ktps);
        ("elapsed_cycles", Int r.elapsed_cycles);
        ("abort_rate", Float r.abort_rate);
        ("hits", Int h);
        ("misses", Int m);
        ("steals", Int s);
        ( "per_socket",
          List
            (Array.to_list
               (Array.map
                  (fun (h, m, s) -> List [ Int h; Int m; Int s ])
                  r.per_socket)) );
      ]
  in
  Obj
    [
      ("schema", Str "swisstm-repro/scale/1");
      ("mode", Str (if smoke then "smoke" else "full"));
      ("cores_per_socket", Int cores_per_socket);
      ("core_counts", List (List.map (fun c -> Int c) core_counts));
      ("sb7", List (List.map row_json rows));
      ( "granularity",
        Obj
          [
            ("cores", Int gran_cores);
            ( "rows",
              List
                (List.map
                   (fun (g, k, e) ->
                     Obj
                       [
                         ("granularity_words", Int g);
                         ("ktps", Float k);
                         ("elapsed_cycles", Int e);
                       ])
                   gran) );
          ] );
      ( "taskpar",
        List
          (List.map
             (fun s ->
               Obj
                 [
                   ("cores", Int s.s_cores);
                   ("tasks", Int s.s_tasks);
                   ("steals", Int s.s_steals);
                   ("probes", Int s.s_probes);
                   ("elapsed_cycles", Int s.s_elapsed);
                 ])
             steal_rows) );
      ( "rstm_refusal",
        match refusal with Some msg -> Str msg | None -> Null );
      ("checks", Obj (List.map (fun (n, ok) -> (n, Bool ok)) checks));
    ]

(* ---------- gate entry (perf_gate, bench scale) ---------- *)

type report = {
  rows : row list;
  gran : (int * float * int) list;
  steal_rows : steal_row list;
  refusal : string option;
  checks : (string * bool) list;
}

let gate ~smoke () =
  let rows = matrix ~smoke () in
  let gran = gran_rows ~smoke () in
  let steal_rows = taskpar_rows ~smoke () in
  let refusal = rstm_refusal () in
  let cks = checks rows steal_rows refusal in
  let ok = List.for_all snd cks in
  ( ok,
    { rows; gran; steal_rows; refusal; checks = cks },
    json ~smoke rows gran steal_rows refusal cks )

(* ---------- human-readable report (bench scale) ---------- *)

let print_rows rows =
  List.iter
    (fun (wname, _) ->
      let wrows = List.filter (fun r -> r.workload = wname) rows in
      if wrows <> [] then
        Harness.Report.print
          (Harness.Report.make
             ~title:(Printf.sprintf "STMBench7 %s at scale" wname)
             ~unit_:"10^3 tx/s"
             ~columns:
               (List.map (fun c -> Printf.sprintf "%dT" c) core_counts)
             (List.map
                (fun (ename, _) ->
                  {
                    Harness.Report.label = ename;
                    cells =
                      Array.of_list
                        (List.filter_map
                           (fun r ->
                             if r.engine = ename then Some r.ktps else None)
                           wrows);
                  })
                scale_engines)))
    scale_workloads

let run () =
  section
    (Printf.sprintf
       "Scale-out: 64-512 simulated cores, %d-core sockets (DESIGN.md §16)"
       cores_per_socket);
  let ok, rep, _json = gate ~smoke:false () in
  print_rows rep.rows;
  note "per-socket coherence (read-write mix):";
  List.iter
    (fun r ->
      if r.workload = "read_write" then begin
        let h, m, s = totals r in
        note "  %-8s %4dT x%2d sockets: hits %d, misses %d, steals %d"
          r.engine r.cores r.sockets h m s
      end)
    rep.rows;
  note "granularity at %d cores (SwissTM, read-write mix):" gran_cores;
  List.iter
    (fun (g, k, _) -> note "  %2d words/stripe: %8.1f ktps" g k)
    rep.gran;
  note "work-stealing task mode:";
  List.iter
    (fun s ->
      note "  %4d cores: %5d tasks, %5d steals / %6d probes, makespan %d"
        s.s_cores s.s_tasks s.s_steals s.s_probes s.s_elapsed)
    rep.steal_rows;
  (match rep.refusal with
  | Some msg -> note "RSTM at 64 threads: %s" msg
  | None -> note "RSTM at 64 threads: UNEXPECTEDLY ran");
  List.iter
    (fun (n, okc) -> note "  check %-20s %s" n (if okc then "ok" else "FAIL"))
    rep.checks;
  if not ok then note "scale: CHECKS FAILED"

(* End-to-end and per-layer benchmark of the STM engines.

     e2e.exe --workload W [--seed S] [--seconds N] [--trace 0|1]
     e2e.exe --all [--seed S] [--seconds N] [--trace 0|1]
     e2e.exe --smoke
     e2e.exe compare A.json B.json

   A run prints one JSON record per workload (every metric with its unit,
   median, quartiles and sample count), then, for a single workload, a
   last line carrying exactly the metrics BENCHMARK.json lists for the
   mode: [end_to_end] untraced, [per_layer] with [--trace 1].

   Untraced, a workload runs two phases, each for both engines (swisstm,
   the paper's engine, and tl2, the kernel-built baseline):
   - sim: the deterministic model at 8 simulated threads over a fixed
     panel of seeds, run several times; every run must reproduce the
     first bit for bit.  The panel does not follow [--seed], so simulated
     metrics compare exactly across commits;
   - native: rounds of a fixed number of closed-loop ops on 1 domain,
     engines alternating inside each round, with [Gc.compact] and a fresh
     structure before every cell; inputs come from [--seed].  A few
     2-domain rounds are recorded but not gated.
   The runs of the simulated panel are spread over the native rounds, so
   a burst of load on the host slows few of them.
   With [--trace 1] the same cells run once plain and once with spans,
   the profiler and a dispatch counter, and give the per-layer numbers;
   the traced simulations must reproduce the plain ones exactly. *)

module J = Obs.Json
module Rhist = Obs.Slo.Rhist
module W = Workloads

type plan = {
  engines : (string * Engines.spec) list;
  panel : int list;  (** simulated seeds of closed-loop workloads *)
  ladder_seeds : int list;  (** simulated seeds of the service ladder *)
  cycles_div : int;  (** divides every simulated duration *)
  ops_div : int;  (** divides every native cell's op count *)
  rounds : int;  (** 1-domain native rounds *)
  sim_reps : W.t -> int;  (** runs of the simulated panel, at least 2 *)
  rounds2 : int;  (** 2-domain native rounds (not gated) *)
  trace_rounds : int;  (** native rounds of a traced run *)
}

(* One native round per second asked for, at least 9.  With the default
   12, a run takes 10-55 s depending on the workload on a 2-vCPU Xeon VM
   (README.md). *)
let full ~seconds =
  {
    engines = Phases.engines;
    panel = [ 1; 2; 3; 4; 5 ];
    ladder_seeds = [ 1; 2; 3 ];
    cycles_div = 1;
    ops_div = 1;
    rounds = max 9 seconds;
    sim_reps = (fun w -> w.sim_reps);
    rounds2 = 2;
    trace_rounds = 5;
  }

(* Smoke engines get small lock tables: building the default 2^18-entry
   tables would dominate a seconds-long run. *)
let smoke =
  {
    engines = List.map (fun (n, s) -> (n, Engines.with_table_bits 12 s)) Phases.engines;
    panel = [ 1 ];
    ladder_seeds = [ 1 ];
    cycles_div = 40;
    ops_div = 50;
    rounds = 1;
    sim_reps = (fun _ -> 2);
    rounds2 = 1;
    trace_rounds = 1;
  }

(* --- one run's record ---------------------------------------------------- *)

type m = {
  value : float;
  unit_ : string;
  q1 : float;
  q3 : float;
  n : int;
  exact : bool;  (** deterministic: equal on every run of the same code *)
  samples : float list;  (** what the summary was taken over, in run order *)
}

let of_samples ?(exact = false) unit_ xs =
  let s = Measure.quartiles xs in
  { value = s.median; unit_; q1 = s.q1; q3 = s.q3; n = s.n; exact; samples = xs }

let single ?(exact = false) unit_ v =
  { value = v; unit_; q1 = v; q3 = v; n = 1; exact; samples = [ v ] }

type run = {
  plan : plan;
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
  mutable metrics : (string * m) list;
  mutable cells : (string * float * Spans.t) list;  (** for the Chrome trace *)
}

let add r name m = r.metrics <- (name, m) :: r.metrics

let tally r ~attempted ~failed =
  r.attempted <- r.attempted + attempted;
  r.failed <- r.failed + failed

let problem r fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("benchmark: " ^ s);
      r.problems <- s :: r.problems)
    fmt

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let alternate round l = if round land 1 = 0 then l else List.rev l
let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

(* [rep ()] runs [cells] once more; [runs ()] returns every run so far,
   first to last, after checking that each matches the first. *)
let repeated r ~what ~fingerprint cells =
  let reps = ref [] in
  let rep () = reps := cells () :: !reps in
  let runs () =
    let all = List.rev !reps in
    List.iter
      (List.iter2
         (fun (label, a) (_, b) ->
           if fingerprint a <> fingerprint b then
             problem r "%s %s: the simulated repeat differs from the first run" what label)
         (List.hd all))
      (List.tl all);
    all
  in
  (rep, runs)

(* --- simulated phase ------------------------------------------------------ *)

let sim_ktps (c : Phases.sim) =
  if c.elapsed = 0 then 0.
  else float_of_int c.s_ops /. Runtime.Costs.seconds_of_cycles c.elapsed /. 1e3

let host_kops ~ops ~ns = if ns = 0 then 0. else float_of_int ops /. float_of_int ns *. 1e6

(* Simulator speed: simulated ops per second of host CPU time.  [reps]
   gives, per repeat, the (ops, CPU ns) of its cells in one order.  Every
   repeat does the same work, so each cell counts with its fastest
   repeat, the one least disturbed by the host; the quartiles are those
   of whole repeats. *)
let sim_speed reps =
  let per_rep = List.map (fun cs -> host_kops ~ops:(sum fst cs) ~ns:(sum snd cs)) reps in
  let best =
    List.fold_left (List.map2 (fun (o, a) (_, b) -> (o, min a b))) (List.hd reps) (List.tl reps)
  in
  { (of_samples "kops/cpu_s" per_rep) with value = host_kops ~ops:(sum fst best) ~ns:(sum snd best) }

let sim_closed r (w : W.t) ~cycles =
  let cycles = cycles / r.plan.cycles_div in
  let cells () =
    List.concat_map
      (fun seed ->
        List.map
          (fun (en, spec) ->
            (Printf.sprintf "%s seed %d" en seed, (en, Phases.sim_cell w spec ~seed ~cycles ())))
          r.plan.engines)
      r.plan.panel
  in
  let rep, runs = repeated r ~what:w.name ~fingerprint:(fun (_, c) -> Phases.fingerprint c) cells in
  let report () =
    let reps = runs () in
    List.iter
      (List.iter (fun (_, (_, (c : Phases.sim))) -> tally r ~attempted:c.attempted ~failed:c.s_bad))
      reps;
    List.iter
      (fun (en, _) ->
        let mine rep = List.filter_map (fun (_, (e, c)) -> if e = en then Some c else None) rep in
        let cs = mine (List.hd reps) in
        add r ("sim_ktps." ^ en) (of_samples ~exact:true "ktx/sim_s" (List.map sim_ktps cs));
        let pooled = Rhist.create () in
        List.iter (fun (c : Phases.sim) -> Rhist.merge_into c.hist ~into:pooled) cs;
        add r ("sim_tail_kcycles." ^ en)
          (single ~exact:true "kcycles" (float_of_int (Rhist.quantile pooled 0.99) /. 1e3));
        add r ("sim_host_kops." ^ en)
          (sim_speed
             (List.map (fun rep -> List.map (fun (c : Phases.sim) -> (c.s_ops, c.cpu_ns)) (mine rep)) reps)))
      r.plan.engines
  in
  (rep, report)

(* A rung meets the SLO when every offered request is served, the run
   drains within 5 % of its arrival window, and p99.9 <= the limit. *)
let meets ~cycles ~limit (c : Phases.svc) =
  match c.result with
  | Some res ->
      res.completed = res.offered
      && float_of_int res.elapsed_cycles <= 1.05 *. float_of_int cycles
      && (match res.summary with Some s -> s.s_p999 <= limit | None -> false)
  | None -> false

let p999 (c : Phases.svc) =
  match c.result with
  | Some { summary = Some s; _ } -> float_of_int s.s_p999
  | _ -> 0.

let ladder r ~rates ~probe ~limit =
  let cycles = W.svc_cycles / r.plan.cycles_div in
  let cells () =
    List.concat_map
      (fun seed ->
        List.concat_map
          (fun (en, spec) ->
            List.map
              (fun rate ->
                ( Printf.sprintf "%s seed %d rate %.0f" en seed rate,
                  (en, seed, rate, Phases.svc_cell spec ~seed ~rate ~div:r.plan.cycles_div ~obs:true) ))
              rates)
          r.plan.engines)
      r.plan.ladder_seeds
  in
  let rep, runs =
    repeated r ~what:"service-zipf" ~fingerprint:(fun (_, _, _, c) -> Phases.svc_fingerprint c) cells
  in
  let report () =
    let reps = runs () in
    List.iter
      (List.iter (fun (_, (_, _, _, (c : Phases.svc))) -> tally r ~attempted:c.offered ~failed:c.v_bad))
      reps;
    List.iter
      (fun (en, _) ->
        let mine rep = List.filter_map (fun (_, (e, s, x, c)) -> if e = en then Some (s, x, c) else None) rep in
        let cs = mine (List.hd reps) in
        let per_seed f = List.map (fun seed -> f (List.filter_map (fun (s, x, c) -> if s = seed then Some (x, c) else None) cs)) r.plan.ladder_seeds in
        (* highest rung below the first one that misses *)
        let slo_rate rungs =
          let rec go best = function
            | (x, c) :: rest when meets ~cycles ~limit c -> go x rest
            | _ -> best
          in
          go 0. (List.sort (fun (a, _) (b, _) -> Float.compare a b) rungs)
        in
        add r ("sim_ktps." ^ en)
          (of_samples ~exact:true "ktx/sim_s"
             (per_seed (fun rungs -> slo_rate rungs *. Runtime.Costs.cycles_per_second /. 1e9)));
        add r ("sim_tail_kcycles." ^ en)
          (of_samples ~exact:true "kcycles" (per_seed (fun rungs -> p999 (List.assoc probe rungs) /. 1e3)));
        let served (c : Phases.svc) = match c.result with Some res -> res.completed | None -> 0 in
        add r ("sim_host_kops." ^ en)
          (sim_speed
             (List.map (fun rep -> List.map (fun (_, _, c) -> (served c, c.Phases.v_cpu_ns)) (mine rep)) reps)))
      r.plan.engines
  in
  (rep, report)

(* --- native phase ----------------------------------------------------------- *)

let collect () =
  let t = Hashtbl.create 8 in
  let push k v = Hashtbl.replace t k (v :: Option.value ~default:[] (Hashtbl.find_opt t k)) in
  (push, fun k -> List.rev (Hashtbl.find t k))

(* Host interference only ever slows a round down, so a round-level
   wall-clock metric reports its best round: the highest throughput, the
   lowest latency.  Between runs on a shared VM the best round moves
   less than the median round, often half as much (README.md). *)
let best_round ~higher unit_ xs =
  let m = of_samples unit_ xs in
  { m with value = List.fold_left (if higher then Float.max else Float.min) (List.hd xs) xs }

(* Each round draws its structure and op stream from its own seed, so a
   run's rounds sample many inputs and its quartiles depend little on
   which [--seed] picked them (an sb7 cell's cost follows how many long
   traversals its stream holds); both engines of a round get the same
   inputs, and the same [--seed] repeats the same work. *)
let round_seed seed round = (seed * 1000) + round

(* [sim_rep] runs the simulated panel once; the plan's [sim_reps] runs
   go after the native cells, spread evenly over the rounds. *)
let native r (w : W.t) ~seed ~sim_rep =
  let ops = w.native_ops / r.plan.ops_div in
  let push, get = collect () in
  let rounds = r.plan.rounds and reps = r.plan.sim_reps w in
  for round = 0 to rounds - 1 do
    push "calib" (Probes.calib_ns ());
    let setup = ref 0 in
    List.iter
      (fun (en, spec) ->
        let c = Phases.native_cell w spec ~seed:(round_seed seed round) ~ops ~domains:1 () in
        tally r ~attempted:c.ops ~failed:c.bad;
        setup := !setup + c.setup_ns;
        push ("ktps" ^ en) (Phases.ktps ~ops:c.ops ~ns:c.wall_ns);
        push ("p99" ^ en) (float_of_int c.p99_ns /. 1e3))
      (alternate round r.plan.engines);
    push "setup" (float_of_int !setup /. 1e9);
    for _ = 1 to ((round + 1) * reps / rounds) - (round * reps / rounds) do
      sim_rep ()
    done
  done;
  for round = 0 to r.plan.rounds2 - 1 do
    List.iter
      (fun (en, spec) ->
        let c = Phases.native_cell w spec ~seed:(round_seed seed round) ~ops ~domains:2 () in
        tally r ~attempted:c.ops ~failed:c.bad;
        push ("ktps2" ^ en) (Phases.ktps ~ops:c.ops ~ns:c.wall_ns))
      (alternate round r.plan.engines)
  done;
  add r "setup_s" (of_samples "s" (get "setup"));
  add r "host.calib_ns" (of_samples "ns" (get "calib"));
  List.iter
    (fun (en, _) ->
      add r ("native_ktps." ^ en) (best_round ~higher:true "ktx/s" (get ("ktps" ^ en)));
      add r ("native_p99_us." ^ en) (best_round ~higher:false "us" (get ("p99" ^ en)));
      add r ("native2_ktps." ^ en) (of_samples "ktx/s" (get ("ktps2" ^ en))))
    r.plan.engines

(* --- traced run: per-layer metrics ------------------------------------------- *)

let zero_stats = Stm_intf.Stats.snapshot (Stm_intf.Stats.create ())
let zero_profile = { Obs.Profile.cycles = Array.make Obs.Profile.n_phases 0 }
let sim_us = 1. /. Obs.Export.cycles_per_us

(* Simulated layers of one engine, pooled over the seed panel. *)
let traced_sim r (w : W.t) (en, spec) =
  let stats = ref zero_stats and prof = ref zero_profile in
  let dispatches = ref 0 and ops = ref 0 and host = ref 0 in
  let spans = ref [] and slo = ref [] in
  let keep label sp = if !spans = [] then r.cells <- (label, sim_us, sp) :: r.cells in
  let same label a b = if a <> b then problem r "%s: tracing changed the simulation" label in
  (match w.sim with
  | Closed { cycles } ->
      let cycles = cycles / r.plan.cycles_div in
      List.iter
        (fun seed ->
          let label = Printf.sprintf "sim %s %s seed %d" w.name en seed in
          let u = Phases.sim_cell w spec ~seed ~cycles () in
          let sp = Spans.create Runtime.Exec.now in
          let t, pr, d =
            Phases.profiled (fun () -> Phases.sim_cell w spec ~seed ~cycles ~wrap:(Spans.wrap sp) ())
          in
          List.iter (fun (c : Phases.sim) -> tally r ~attempted:c.attempted ~failed:c.s_bad) [ u; t ];
          same label (Phases.fingerprint u) (Phases.fingerprint t);
          stats := Stm_intf.Stats.add !stats t.stats;
          prof := Obs.Profile.add !prof pr;
          dispatches := !dispatches + d;
          ops := !ops + t.s_ops;
          host := !host + u.cpu_ns;
          keep label sp;
          spans := sp :: !spans)
        r.plan.panel
  | Ladder { probe; _ } ->
      let cycles = W.svc_cycles / r.plan.cycles_div in
      List.iter
        (fun seed ->
          let label = Printf.sprintf "sim %s %s seed %d" w.name en seed in
          let div = r.plan.cycles_div in
          let u = Phases.svc_cell spec ~seed ~rate:probe ~div ~obs:true in
          let t, pr, d = Phases.profiled (fun () -> Phases.svc_cell spec ~seed ~rate:probe ~div ~obs:false) in
          List.iter (fun (c : Phases.svc) -> tally r ~attempted:c.offered ~failed:c.v_bad) [ u; t ];
          let schedule (c : Phases.svc) =
            Option.map (fun (x : Harness.Service.result) -> (x.elapsed_cycles, x.completed, x.stats)) c.result
          in
          same label (schedule u) (schedule t);
          (match (t.result, u.result) with
          | Some tr, Some ur ->
              stats := Stm_intf.Stats.add !stats tr.stats;
              ops := !ops + tr.completed;
              Option.iter (fun s -> slo := s :: !slo) ur.summary
          | _ -> ());
          prof := Obs.Profile.add !prof pr;
          dispatches := !dispatches + d;
          host := !host + u.v_cpu_ns;
          (* engine timings: the harness builds its own engine, so time
             the same transactions issued closed-loop *)
          let sp = Spans.create Runtime.Exec.now in
          let c = Phases.sim_cell w spec ~seed ~cycles ~wrap:(Spans.wrap sp) () in
          tally r ~attempted:c.attempted ~failed:c.s_bad;
          keep label sp;
          spans := sp :: !spans)
        r.plan.ladder_seeds);
  let s = !stats and sp = !spans and pr = !prof in
  let put name unit_ v = add r (name ^ "." ^ en) (single unit_ v) in
  let busy = Obs.Profile.total pr - pr.cycles.(Runtime.Exec.ph_idle) in
  let per_kop x = 1000. *. ratio x s.s_commits in
  put "engine.read_cycles" "cycles" (Spans.mean sp Spans.k_read);
  put "engine.write_cycles" "cycles" (Spans.mean sp Spans.k_write);
  put "engine.atomic_self_cycles" "cycles" (Spans.atomic_self sp);
  put "engine.abort_ratio" "share" (Stm_intf.Stats.abort_rate s);
  put "engine.wasted_share" "share" (ratio s.s_cycles_wasted busy);
  put "engine.ww_aborts_per_kop" "count" (per_kop s.s_aborts_ww);
  put "engine.rw_aborts_per_kop" "count" (per_kop s.s_aborts_rw);
  put "engine.killed_aborts_per_kop" "count" (per_kop s.s_aborts_killed);
  put "cm.backoffs_per_kop" "count" (per_kop s.s_backoffs);
  put "cm.waits_per_kop" "count" (per_kop s.s_waits);
  put "cm.max_consecutive_aborts" "count" (float_of_int s.s_max_consecutive_aborts);
  List.iter
    (fun (name, ph) -> put ("exec.phase." ^ name) "share" (ratio pr.cycles.(ph) busy))
    Runtime.Exec.
      [
        ("read", ph_read);
        ("write", ph_write);
        ("validate", ph_validate);
        ("commit", ph_commit);
        ("spin", ph_spin);
        ("backoff", ph_backoff);
      ];
  put "sim.dispatches_per_op" "count" (ratio !dispatches !ops);
  put "sim.host_ns_per_dispatch" "ns" (ratio !host !dispatches);
  (* the SLO layer exists on service-zipf only; 0 elsewhere *)
  let slo = !slo in
  let attributed (x : Obs.Slo.summary) =
    x.s_queue_cycles + x.s_abort_cycles + x.s_backoff_cycles + x.s_exec_cycles
  in
  let share f = ratio (sum f slo) (sum attributed slo) in
  put "slo.queue_share" "share" (share (fun x -> x.s_queue_cycles));
  put "slo.abort_share" "share" (share (fun x -> x.s_abort_cycles));
  put "slo.backoff_share" "share" (share (fun x -> x.s_backoff_cycles));
  put "slo.exec_share" "share" (share (fun x -> x.s_exec_cycles));
  put "slo.p50_kcycles" "kcycles"
    (if slo = [] then 0.
     else Measure.median (List.map (fun (x : Obs.Slo.summary) -> float_of_int x.s_p50 /. 1e3) slo))

(* Native layers: plain and traced cells alternate, engines alternating
   inside each round; the plain cells give GC counts and the baseline
   the tracing overhead is taken against. *)
let traced_native r (w : W.t) ~seed =
  let ops = w.native_ops / r.plan.ops_div in
  let push, get = collect () in
  let spans = Hashtbl.create 2 in
  for round = 0 to r.plan.trace_rounds - 1 do
    push "calib" (Probes.calib_ns ());
    List.iter
      (fun (en, spec) ->
        let seed = round_seed seed round in
        let u = Phases.native_cell w spec ~seed ~ops ~domains:1 () in
        let sp = Spans.create Measure.now_ns in
        let t = Phases.native_cell w spec ~seed ~ops ~domains:1 ~spans:sp () in
        List.iter (fun (c : Phases.native) -> tally r ~attempted:c.ops ~failed:c.bad) [ u; t ];
        if round = 0 then r.cells <- (Printf.sprintf "native %s %s" w.name en, 1e-3, sp) :: r.cells;
        Hashtbl.replace spans en (sp :: Option.value ~default:[] (Hashtbl.find_opt spans en));
        push ("plain" ^ en) (Phases.ktps ~ops:u.ops ~ns:u.wall_ns);
        push ("traced" ^ en) (Phases.ktps ~ops:t.ops ~ns:t.wall_ns);
        push ("minor" ^ en) (u.minor_words /. float_of_int u.ops);
        push ("major" ^ en) (1000. *. ratio u.majors u.ops))
      (alternate round r.plan.engines)
  done;
  add r "host.calib_ns" (of_samples "ns" (get "calib"));
  List.iter
    (fun (en, _) ->
      let sp = Hashtbl.find spans en in
      let put name unit_ v = add r (name ^ "." ^ en) (single unit_ v) in
      let atomics = Spans.count sp Spans.k_atomic in
      put "engine.reads_per_op" "count" (ratio (Spans.count sp Spans.k_read) atomics);
      put "engine.writes_per_op" "count" (ratio (Spans.count sp Spans.k_write) atomics);
      put "engine.read_ns" "ns" (Spans.mean sp Spans.k_read);
      put "engine.write_ns" "ns" (Spans.mean sp Spans.k_write);
      put "engine.atomic_self_ns" "ns" (Spans.atomic_self sp);
      put "heap.alloc_ns" "ns" (Spans.mean sp Spans.k_alloc);
      put "heap.free_ns" "ns" (Spans.mean sp Spans.k_free);
      put "heap.allocs_per_kop" "count" (1000. *. ratio (Spans.count sp Spans.k_alloc) atomics);
      add r ("gc.minor_words_per_op." ^ en) (of_samples "words" (get ("minor" ^ en)));
      add r ("gc.major_per_kop." ^ en) (of_samples "count" (get ("major" ^ en)));
      let plain = Measure.median (get ("plain" ^ en)) in
      let traced = Measure.median (get ("traced" ^ en)) in
      put "obs.trace_overhead_pct" "%" (100. *. (plain -. traced) /. plain))
    r.plan.engines

(* --- driving a workload ------------------------------------------------------ *)

let run_workload plan (w : W.t) ~seed ~trace =
  let r = { plan; attempted = 0; failed = 0; problems = []; metrics = []; cells = [] } in
  let t0 = Unix.gettimeofday () in
  if trace then begin
    List.iter (traced_sim r w) r.plan.engines;
    traced_native r w ~seed;
    List.iter (fun (name, xs) -> add r name (of_samples "ns" xs)) (Probes.run ())
  end
  else begin
    let sim_rep, report =
      match w.sim with
      | Closed { cycles } -> sim_closed r w ~cycles
      | Ladder { rates; probe; limit_cycles } -> ladder r ~rates ~probe ~limit:limit_cycles
    in
    native r w ~seed ~sim_rep;
    report ()
  end;
  add r "failed_share" (single ~exact:true "share" (ratio r.failed (max 1 r.attempted)));
  (r, Unix.gettimeofday () -. t0)

let finite x = if Float.is_finite x then x else 0.

let record (w : W.t) ~seed ~trace (r, wall) =
  let metric (name, m) =
    ( name,
      J.Obj
        [
          ("value", J.Float (finite m.value));
          ("unit", J.Str m.unit_);
          ("q1", J.Float (finite m.q1));
          ("q3", J.Float (finite m.q3));
          ("n", J.Int m.n);
          ("exact", J.Bool m.exact);
          ("samples", J.List (List.map (fun x -> J.Float (finite x)) m.samples));
        ] )
  in
  J.Obj
    [
      ("workload", J.Str w.name);
      ("seed", J.Int seed);
      ("trace", J.Bool trace);
      ("wall_s", J.Float wall);
      ("correct", J.Bool (r.failed = 0 && r.problems = []));
      ("attempted", J.Int r.attempted);
      ("failed", J.Int r.failed);
      ("problems", J.List (List.rev_map (fun s -> J.Str s) r.problems));
      ("metrics", J.Obj (List.rev_map metric r.metrics));
    ]

(* The metrics BENCHMARK.json lists for this mode that the run lacks. *)
let missing spec ~trace r =
  Compare.section spec (if trace then "per_layer" else "end_to_end")
  |> List.filter (fun (m : Compare.metric) -> not (List.mem_assoc m.name r.metrics))
  |> List.map (fun (m : Compare.metric) -> m.name)

let driver_line spec ~trace r =
  let listed = Compare.section spec (if trace then "per_layer" else "end_to_end") in
  let lacking = missing spec ~trace r in
  List.iter (problem r "metric %s missing") lacking;
  let metrics =
    List.filter_map
      (fun (m : Compare.metric) ->
        Option.map
          (fun x -> (m.name, J.Obj [ ("value", J.Float (finite x.value)); ("unit", J.Str m.unit_) ]))
          (List.assoc_opt m.name r.metrics))
      listed
  in
  J.Obj
    [
      ("correct", J.Bool (r.failed = 0 && r.problems = []));
      ("attempted", J.Int (max 1 r.attempted));
      ("failed", J.Int r.failed);
      ("metrics", J.Obj metrics);
    ]

let write_chrome path cells =
  let dir = Filename.dirname path in
  if dir <> "." && not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Out_channel.with_open_bin path (fun oc ->
      J.to_channel oc (Spans.chrome (List.rev cells));
      output_char oc '\n')

(* Every workload, untraced and traced, at smoke size: every listed
   metric must be present, no op may fail, and every simulated repeat
   (and traced rerun) must match. *)
let smoke_run spec =
  let t0 = Unix.gettimeofday () in
  let bad = ref [] in
  List.iter
    (fun (w : W.t) ->
      List.iter
        (fun trace ->
          let r, _ = run_workload smoke w ~seed:1 ~trace in
          let tag = Printf.sprintf "%s trace=%b" w.name trace in
          List.iter (fun n -> bad := (tag ^ ": missing " ^ n) :: !bad) (missing spec ~trace r);
          if r.failed > 0 then bad := Printf.sprintf "%s: %d failed ops" tag r.failed :: !bad;
          List.iter (fun p -> bad := (tag ^ ": " ^ p) :: !bad) r.problems)
        [ false; true ])
    W.all;
  if !bad = [] then Printf.printf "benchmark smoke: ok in %.1fs\n" (Unix.gettimeofday () -. t0)
  else begin
    List.iter prerr_endline (List.rev !bad);
    exit 1
  end

let () =
  match Array.to_list Sys.argv with
  | _ :: "compare" :: rest ->
      let spec = ref "BENCHMARK.json" and files = ref [] in
      Arg.parse_argv (Array.of_list ("compare" :: rest))
        [ ("--spec", Arg.Set_string spec, "PATH bounds file (default BENCHMARK.json)") ]
        (fun f -> files := !files @ [ f ])
        "e2e.exe compare A.json B.json";
      (match !files with
      | [ a; b ] -> Compare.run ~spec_path:!spec a b
      | _ ->
          prerr_endline "usage: e2e.exe compare A.json B.json";
          exit 2)
  | _ ->
      let workload = ref "" and all = ref false and seed = ref 1 and seconds = ref 12 in
      let trace = ref 0 and smoke_mode = ref false and spec = ref "BENCHMARK.json" in
      Arg.parse
        [
          ("--workload", Arg.Set_string workload, "NAME one of the workloads");
          ("--all", Arg.Set all, " every workload");
          ("--seed", Arg.Set_int seed, "N seed of the native inputs (default 1)");
          ("--seconds", Arg.Set_int seconds, "N native rounds, at least 9 (default 12)");
          ("--trace", Arg.Set_int trace, "0|1 per-layer traced run (default 0)");
          ("--smoke", Arg.Set smoke_mode, " seconds-long self-check of every workload");
          ("--spec", Arg.Set_string spec, "PATH metric list (default BENCHMARK.json)");
        ]
        (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
        "e2e.exe --workload NAME [--seed N] [--seconds N] [--trace 0|1] | --all | --smoke | compare A B";
      let spec_json = Compare.load_spec !spec in
      if !smoke_mode then smoke_run spec_json
      else begin
        let tracing = !trace = 1 in
        let ws =
          if !all then W.all
          else
            match W.find !workload with
            | Some w -> [ w ]
            | None ->
                Printf.eprintf "unknown workload %S (known: %s)\n" !workload
                  (String.concat ", " (List.map (fun (w : W.t) -> w.name) W.all));
                exit 2
        in
        let plan = full ~seconds:!seconds in
        let ok = ref true in
        List.iter
          (fun (w : W.t) ->
            let ((r, _) as res) = run_workload plan w ~seed:!seed ~trace:tracing in
            let last = driver_line spec_json ~trace:tracing r in
            print_endline (J.to_string (record w ~seed:!seed ~trace:tracing res));
            if tracing then write_chrome ("benchmark/out/trace-" ^ w.name ^ ".json") r.cells;
            if r.failed > 0 || r.problems <> [] then ok := false;
            if not !all then print_endline (J.to_string last))
          ws;
        if !all && not !ok then exit 1
      end

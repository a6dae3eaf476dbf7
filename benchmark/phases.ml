(* The cells every phase is made of.

   A cell is one engine on one freshly built instance: a native cell runs
   a fixed number of ops on 1 or 2 domains, a simulated cell runs the
   instance under [Runtime.Sim] (closed loop), a service cell runs one
   rung of the open-loop ladder through [Harness.Service].  Any exception
   inside a cell fails every op the cell attempted. *)

open Stm_intf
module Rhist = Obs.Slo.Rhist
module Rng = Runtime.Rng

let engines = [ ("swisstm", Engines.swisstm); ("tl2", Engines.tl2) ]
let sim_threads = 8

(* Heap sizing bound for simulated cells: no closed-loop cell here
   commits more than ~20k ops in its simulated duration. *)
let sim_max_ops = 65_536

type native = {
  setup_ns : int;  (** build heap, structure and engine *)
  wall_ns : int;  (** the whole op loop *)
  ops : int;
  bad : int;  (** ops the oracle rejected; every op when the cell failed *)
  p99_ns : int;  (** per-op latency of client 0 *)
  minor_words : float;
  majors : int;
}

let native_cell (w : Workloads.t) spec ~seed ~ops ~domains ?spans () =
  Gc.compact ();
  let t0 = Measure.now_ns () in
  let inst = w.build spec ~seed ~clients:domains ~max_ops:ops in
  let setup_ns = Measure.now_ns () - t0 in
  let eng =
    match spans with Some s -> Spans.wrap s inst.engine | None -> inst.engine
  in
  let per = ops / domains in
  let hist = Rhist.create () in
  let client tid () =
    Runtime.Exec.set_native_tid tid;
    let rng = Rng.for_thread ~seed ~tid in
    let bad = ref 0 in
    for _ = 1 to per do
      let a = Measure.now_ns () in
      if not (inst.op eng ~tid rng) then incr bad;
      if tid = 0 then Rhist.observe hist (Measure.now_ns () - a)
    done;
    !bad
  in
  let g0 = Gc.quick_stat () in
  let start = Measure.now_ns () in
  let others = List.init (domains - 1) (fun i -> Domain.spawn (client (i + 1))) in
  let attempt f = match f () with v -> Ok v | exception e -> Error e in
  let b0 = attempt (client 0) in
  let results = b0 :: List.map (fun d -> attempt (fun () -> Domain.join d)) others in
  let bad =
    match List.find_map (function Error e -> Some e | Ok _ -> None) results with
    | Some e ->
        Printf.eprintf "native cell %s failed: %s\n%!" w.name
          (Printexc.to_string e);
        per * domains
    | None ->
        let b = List.fold_left (fun acc r -> acc + Result.get_ok r) 0 results in
        if inst.check () then b else per * domains
  in
  let wall_ns = Measure.now_ns () - start in
  let g1 = Gc.quick_stat () in
  {
    setup_ns;
    wall_ns;
    ops = per * domains;
    bad;
    p99_ns = Rhist.quantile hist 0.99;
    minor_words = g1.minor_words -. g0.minor_words;
    majors = g1.major_collections - g0.major_collections;
  }

let ktps ~ops ~ns = float_of_int ops /. float_of_int ns *. 1e6

type sim = {
  s_ops : int;  (** committed ops *)
  attempted : int;
  elapsed : int;  (** simulated makespan, cycles *)
  stats : Stats.snapshot;
  hist : Rhist.t;  (** per-op response cycles, retries included *)
  s_bad : int;
  cpu_ns : int;  (** host CPU time of the simulation alone *)
}

(* Everything a repeat must reproduce bit for bit. *)
let fingerprint c =
  ( c.s_ops,
    c.elapsed,
    c.stats,
    (Rhist.count c.hist, Rhist.sum c.hist, Rhist.quantile c.hist 0.99),
    c.s_bad )

let sim_cell (w : Workloads.t) spec ~seed ~cycles ?(wrap = Fun.id) () =
  let started = ref 0 in
  let hist = Rhist.create () in
  Gc.compact ();
  try
    let inst = w.build spec ~seed ~clients:sim_threads ~max_ops:sim_max_ops in
    let eng = wrap inst.engine in
    let rngs = Array.init sim_threads (fun tid -> Rng.for_thread ~seed ~tid) in
    let bad = ref 0 in
    let t0 = Measure.cpu_ns () in
    let r =
      Harness.Workload.run_for_duration eng ~threads:sim_threads
        ~duration_cycles:cycles (fun ~tid ~op:_ ->
          incr started;
          let c0 = Runtime.Exec.now () in
          if not (inst.op eng ~tid rngs.(tid)) then incr bad;
          Rhist.observe hist (Runtime.Exec.now () - c0))
    in
    let cpu_ns = Measure.cpu_ns () - t0 in
    {
      s_ops = r.ops;
      attempted = r.ops;
      elapsed = r.elapsed_cycles;
      stats = r.stats;
      hist;
      s_bad = (if inst.check () then !bad else r.ops);
      cpu_ns;
    }
  with e ->
    Printf.eprintf "sim cell %s seed %d failed: %s\n%!" w.name seed
      (Printexc.to_string e);
    let n = max 1 !started in
    {
      s_ops = 0;
      attempted = n;
      elapsed = 0;
      stats = Stats.snapshot (Stats.create ());
      hist;
      s_bad = n;
      cpu_ns = 0;
    }

type svc = {
  result : Harness.Service.result option;  (** [None]: the cell raised *)
  offered : int;
  v_bad : int;
  v_cpu_ns : int;  (** host CPU time of the run, the harness's setup included *)
}

let svc_fingerprint c =
  Option.map
    (fun (r : Harness.Service.result) ->
      (r.elapsed_cycles, r.offered, r.completed, r.stats, r.summary))
    c.result

(* Oracle: every offered request is served.  [div] shortens the run and
   shrinks the user population with it (smoke runs). *)
let svc_cell spec ~seed ~rate ~div ~obs =
  let c = Workloads.service_config ~seed ~rate in
  let cycles = c.duration_cycles / div in
  let cfg = { c with duration_cycles = cycles; users = c.users / div; window_cycles = c.window_cycles / div } in
  let t0 = Measure.cpu_ns () in
  match Harness.Service.run ~obs spec cfg with
  | r ->
      {
        result = Some r;
        offered = r.offered;
        v_bad = r.offered - r.completed;
        v_cpu_ns = Measure.cpu_ns () - t0;
      }
  | exception e ->
      Printf.eprintf "service cell seed %d rate %.0f failed: %s\n%!" seed rate
        (Printexc.to_string e);
      (* the arrival stream was never served: count what was due *)
      let n = max 1 (int_of_float (rate *. float_of_int cycles /. 1e6)) in
      { result = None; offered = n; v_bad = n; v_cpu_ns = 0 }

(** Run [f] with the profiler and a dispatch counter armed; returns
    [f]'s result, the phase cycles and the number of dispatches. *)
let profiled f =
  let dispatches = ref 0 in
  Runtime.Sim.on_dispatch := (fun _ -> incr dispatches);
  Runtime.Sim.on_dispatch_enabled := true;
  Obs.Profile.reset ();
  Obs.Profile.enable ();
  let r =
    Fun.protect
      ~finally:(fun () ->
        Obs.Profile.disable ();
        Runtime.Sim.on_dispatch_enabled := false)
      f
  in
  (r, Obs.Profile.snapshot (), !dispatches)

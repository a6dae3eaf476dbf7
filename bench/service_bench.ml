(* Open-system service bench (`bench service` / perf_gate):
   latency/goodput curves for the SLO harness of lib/harness/service.ml.

   Two shapes:
   - a *goodput ladder*: one engine, increasing steady Poisson rates —
     goodput must rise monotonically until it saturates at capacity
     (the queue absorbs the excess, the tail pays for it);
   - an *overload ramp*: every engine (including the -adaptive CM
     variants) serves the same staged arrival spec that starts below
     capacity and ends above it.  The p99.9/p50 tail-amplification
     column is the point of the exercise: adaptive contention
     management (throttle + escalation after K consecutive aborts)
     must bound the tail where its non-adaptive twin lets retry storms
     stretch it.

   Everything here is simulated time, so every table is a deterministic
   function of (engine, config, seed): perf_gate compares the smoke
   tables against its committed golden. *)

open Harness
open Bench_common

let seed = 1811

(* Tail amplification (p99.9 / p50) as an integer x1000: the tail check
   compares these, so its verdict never hinges on float rounding. *)
let amp_x1000 (s : Obs.Slo.summary) =
  if s.s_p50 <= 0 then 0 else s.s_p999 * 1000 / s.s_p50

(* ---- configurations ---------------------------------------------------- *)

(* Contention comes from checkout write-write collisions on Zipf-hot
   stock words: a small key space at theta ~1 concentrates the writes,
   and browse_len 1 makes every third request a checkout. *)
let base_cfg ~smoke =
  let scale = if smoke then 1 else 4 in
  {
    Service.default with
    threads = 8;
    users = (if smoke then 100_000 else 400_000);
    keys = 128;
    theta = 0.99;
    browse_len = 1;
    demand_cycles = 300;
    duration_cycles = 1_500_000 * scale;
    window_cycles = 250_000 * scale;
    slow_cutoff = 20_000;
    seed;
  }

(* Steady rates for the goodput ladder (requests per Mcycle); the top
   rung is past capacity so the curve visibly saturates. *)
(* Effective capacity with this contention mix is ~850 requests/Mcycle
   on 8 simulated cores (hot-key aborts eat the rest); the ladder tops
   out just above it so the curve visibly saturates without entering
   the thrashing regime where goodput collapses. *)
let ladder_rates ~smoke =
  if smoke then [ 300.; 500.; 700.; 900. ]
  else [ 150.; 300.; 450.; 600.; 750.; 900. ]

(* Overload ramp: ~45 % of effective capacity, then ~75 %, then ~105 %.
   The point of the shape is that p50 stays at service-time scale while
   the peak stage pushes the p99.9 tail into retry storms — the regime
   where adaptive contention management must show up in the
   tail-amplification column. *)
let ramp_spec ~smoke =
  let c = base_cfg ~smoke in
  let d = c.Service.duration_cycles in
  Arrival.Stages
    [
      (d / 3, Arrival.Poisson { per_mcycle = 400. });
      (2 * d / 3, Arrival.Poisson { per_mcycle = 650. });
      (d, Arrival.Poisson { per_mcycle = 900. });
    ]

let ramp_engines ~smoke =
  if smoke then
    [
      "swisstm"; "swisstm-adaptive"; "tl2"; "tl2-adaptive"; "norec";
      "norec-adaptive";
    ]
  else
    [
      "swisstm"; "swisstm-adaptive"; "tl2"; "tl2-adaptive"; "tinystm";
      "tinystm-adaptive"; "norec"; "norec-adaptive"; "tlrw"; "tlrw-adaptive";
    ]

let spec_of name =
  match Engines.of_string name with
  | Some s -> s
  | None -> failwith ("service bench: unknown engine " ^ name)

(* ---- runs -------------------------------------------------------------- *)

let run_one ?(obs = true) ~cfg name =
  Service.run ~obs ~label:name (spec_of name) cfg

(* Goodput ladder for one engine: (rate, result) per rung. *)
let ladder ~smoke name =
  let cfg = base_cfg ~smoke in
  List.map
    (fun rate ->
      ( rate,
        run_one ~cfg:{ cfg with Service.arrivals = Arrival.Poisson { per_mcycle = rate } } name ))
    (ladder_rates ~smoke)

let ramp_rows ~smoke =
  let cfg = { (base_cfg ~smoke) with Service.arrivals = ramp_spec ~smoke } in
  List.map (fun name -> (name, run_one ~cfg name)) (ramp_engines ~smoke)

(* ---- tables ------------------------------------------------------------ *)

let summary (r : Service.result) =
  match r.summary with
  | Some s -> s
  | None -> failwith "service bench: obs was off, no summary"

let ints = List.map float_of_int

let ladder_table name rungs =
  Obs.Report.table
    (Printf.sprintf "goodput ladder (%s, seed %d), steady Poisson load" name seed)
    "requests, cycles" [ "offered"; "completed"; "elapsed" ]
    (List.map
       (fun (rate, (r : Service.result)) ->
         (Printf.sprintf "%.0f/Mcycle" rate, ints [ r.offered; r.completed; r.elapsed_cycles ]))
       rungs)

let ramp_title ~smoke =
  Format.asprintf "overload ramp (seed %d) %a" seed Arrival.pp_spec (ramp_spec ~smoke)

(* The ramp as two tables, latency and response-time attribution. *)
let ramp_tables ~smoke rows =
  let latency (name, (r : Service.result)) =
    let s = summary r in
    ( name,
      ints
        [ r.offered; r.completed; s.s_requests; r.elapsed_cycles; s.s_p50; s.s_p95;
          s.s_p999; s.s_max; amp_x1000 s ]
      @ [ s.s_tail_amplification ] )
  in
  let attribution (name, r) =
    let s = summary r in
    let total = s.s_queue_cycles + s.s_abort_cycles + s.s_backoff_cycles + s.s_exec_cycles in
    ( name,
      ints
        [ s.s_queue_cycles; s.s_abort_cycles; s.s_backoff_cycles; s.s_exec_cycles;
          (if total = 0 then 0 else 100 * s.s_queue_cycles / total);
          s.s_retries; s.s_escalations; s.s_throttles ] )
  in
  [
    (* amp = p99.9 / p50; amp x1000 is its integer form the tail check reads *)
    Obs.Report.table (ramp_title ~smoke ^ ": latency") "requests, cycles"
      [ "offered"; "completed"; "requests"; "elapsed"; "p50"; "p95"; "p99.9"; "max";
        "amp x1000"; "amp" ]
      (List.map latency rows);
    Obs.Report.table (ramp_title ~smoke ^ ": response-time attribution") "cycles, counts"
      [ "queue"; "abort"; "backoff"; "exec"; "queue %"; "retries"; "escalations"; "throttles" ]
      (List.map attribution rows);
  ]

(* Each engine's SLO windows, as the run reported them. *)
let window_tables rows = List.concat_map (fun (_, (r : Service.result)) -> r.windows) rows

(* ---- checks ------------------------------------------------------------ *)

(* Saturation may flatten the goodput curve; it must never dip by more
   than 1 % of the previous rung. *)
let ladder_monotone ladder =
  let goodput (r : Obs.Report.row) =
    if r.cells.(2) <= 0. then 0. else 1e6 *. r.cells.(1) /. r.cells.(2)
  in
  let goodputs = List.map goodput ladder.Obs.Report.rows in
  note "    goodput/Mcycle by rung: %s"
    (String.concat " " (List.map (Printf.sprintf "%.0f") goodputs));
  let rec ok = function a :: (b :: _ as rest) -> b >= a *. 0.99 && ok rest | _ -> true in
  ok goodputs

(* At least one adaptive variant must bound the tail strictly below its
   non-adaptive twin under the overload ramp: every engine in the lineup
   whose "-adaptive" variant is present is compared.  The per-pair
   outcomes are reported but not individually gated (which manager wins
   the ratio contest is workload-dependent — the claim is that
   adaptation bounds the tail *somewhere*, deterministically). *)
let adaptive_bounds_tail latency =
  let amp name = Obs.Report.cell latency name "amp x1000" in
  let names = List.map (fun (r : Obs.Report.row) -> r.label) latency.Obs.Report.rows in
  List.filter_map
    (fun plain ->
      let adaptive = plain ^ "-adaptive" in
      if not (List.mem adaptive names) then None
      else begin
        let ok = amp adaptive < amp plain in
        Printf.printf "    pair %-28s plain %.2f vs adaptive %.2f  %s\n"
          (plain ^ "-vs-" ^ adaptive) (amp plain /. 1000.) (amp adaptive /. 1000.)
          (if ok then "(adaptive wins)" else "(plain wins)");
        Some ok
      end)
    names
  |> List.exists Fun.id

(* ---- the section --------------------------------------------------------- *)

let ladder_engine = "swisstm"

let section =
  {
    title = "Service: open-system SLO curves (extension)";
    body =
      (fun ~smoke ->
        let rungs = ladder ~smoke ladder_engine in
        let rows = ramp_rows ~smoke in
        let ladder = ladder_table ladder_engine rungs in
        let ramp = ramp_tables ~smoke rows in
        (* Zero-perturbation: the SLO collectors charge no simulated
           cycles, so serving the ramp with everything off must reproduce
           the metered makespan bit for bit. *)
        let unmetered =
          run_one ~obs:false
            ~cfg:{ (base_cfg ~smoke) with Service.arrivals = ramp_spec ~smoke }
            ladder_engine
        in
        let metered = (List.assoc ladder_engine rows).Service.elapsed_cycles in
        let perturb_ok = unmetered.Service.elapsed_cycles = metered in
        if not perturb_ok then
          Printf.printf "    obs-off makespan %d != metered %d — a collector charged cycles!\n"
            unmetered.Service.elapsed_cycles metered;
        let monotone = ladder_monotone ladder in
        let tail_ok = adaptive_bounds_tail (List.hd ramp) in
        ( (ladder :: ramp) @ window_tables rows,
          [
            ("slo-zero-perturbation", perturb_ok);
            ("goodput-monotone", monotone);
            ("adaptive-bounds-tail", tail_ok);
          ] ));
  }

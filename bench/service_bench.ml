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

   Everything here is simulated time, so rows are deterministic
   functions of (engine, config, seed): perf_gate compares the smoke
   JSON against its committed golden. *)

open Harness

let seed = 1811

(* Tail amplification is compared and frozen as an integer (x1000) so
   the gate never depends on float printing. *)
let amp_x1000 (s : Obs.Slo.summary) =
  if s.s_p50 <= 0 then 0 else s.s_p999 * 1000 / s.s_p50

type row = {
  engine : string;
  offered : int;
  completed : int;
  elapsed_cycles : int;
  p50 : int;
  p95 : int;
  p999 : int;
  tail_x1000 : int;
  retries : int;
  escalations : int;
  throttles : int;
  queue_pct : int; (* integer percent of response cycles spent queued *)
}

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

(* The adaptive/plain twins the tail gate inspects: every engine in the
   lineup that also has its "-adaptive" variant present. *)
let twin_pairs rows =
  List.filter_map
    (fun (name, _) ->
      let a = name ^ "-adaptive" in
      if List.mem_assoc a rows then Some (name, a) else None)
    rows

let spec_of name =
  match Engines.of_string name with
  | Some s -> s
  | None -> failwith ("service bench: unknown engine " ^ name)

(* ---- runs -------------------------------------------------------------- *)

let run_one ?(obs = true) ~cfg name =
  Service.run ~obs (spec_of name) cfg

let row_of name (r : Service.result) =
  let s =
    match r.Service.summary with
    | Some s -> s
    | None -> failwith "service bench: obs was off, no summary"
  in
  let resp_total =
    s.Obs.Slo.s_queue_cycles + s.Obs.Slo.s_abort_cycles
    + s.Obs.Slo.s_backoff_cycles + s.Obs.Slo.s_exec_cycles
  in
  {
    engine = name;
    offered = r.Service.offered;
    completed = r.Service.completed;
    elapsed_cycles = r.Service.elapsed_cycles;
    p50 = s.Obs.Slo.s_p50;
    p95 = s.Obs.Slo.s_p95;
    p999 = s.Obs.Slo.s_p999;
    tail_x1000 = amp_x1000 s;
    retries = s.Obs.Slo.s_retries;
    escalations = s.Obs.Slo.s_escalations;
    throttles = s.Obs.Slo.s_throttles;
    queue_pct =
      (if resp_total = 0 then 0
       else 100 * s.Obs.Slo.s_queue_cycles / resp_total);
  }

(* Goodput ladder for one engine: [(rate, offered, completed, elapsed)]. *)
let ladder ~smoke name =
  let cfg = base_cfg ~smoke in
  List.map
    (fun rate ->
      let r =
        run_one ~cfg:
          { cfg with Service.arrivals = Arrival.Poisson { per_mcycle = rate } }
          name
      in
      (rate, r.Service.offered, r.Service.completed, r.Service.elapsed_cycles))
    (ladder_rates ~smoke)

let goodput (_, _, completed, elapsed) =
  if elapsed <= 0 then 0. else 1e6 *. float_of_int completed /. float_of_int elapsed

let ladder_monotone rungs =
  let rec ok = function
    | a :: (b :: _ as rest) ->
        (* saturation may flatten the curve; it must never dip by more
           than 1 % of the previous rung *)
        goodput b >= goodput a *. 0.99 && ok rest
    | _ -> true
  in
  ok rungs

let ramp_rows ~smoke =
  let cfg = { (base_cfg ~smoke) with Service.arrivals = ramp_spec ~smoke } in
  List.map
    (fun name -> (name, run_one ~cfg name))
    (ramp_engines ~smoke)

(* ---- printing ---------------------------------------------------------- *)

let print_ladder name rungs =
  Printf.printf "  goodput ladder (%s):\n" name;
  Printf.printf "    %10s %10s %10s %12s %12s\n" "rate/Mcyc" "offered"
    "completed" "elapsed" "goodput/Mcyc";
  List.iter
    (fun ((rate, offered, completed, elapsed) as rung) ->
      Printf.printf "    %10.0f %10d %10d %12d %12.0f\n" rate offered
        completed elapsed (goodput rung))
    rungs

let print_rows rows =
  Printf.printf "    %-18s %8s %8s %10s %8s %8s %9s %7s %6s %6s %6s\n"
    "engine" "offered" "done" "elapsed" "p50" "p95" "p99.9" "amp" "retry"
    "escal" "queue%";
  List.iter
    (fun (_, row) ->
      Printf.printf "    %-18s %8d %8d %10d %8d %8d %9d %7.2f %6d %6d %6d\n"
        row.engine row.offered row.completed row.elapsed_cycles row.p50
        row.p95 row.p999
        (float_of_int row.tail_x1000 /. 1000.)
        row.retries row.escalations row.queue_pct)
    (List.map (fun (n, r) -> (n, row_of n r)) rows)

(* ---- checks ------------------------------------------------------------ *)

(* At least one adaptive variant must bound the tail strictly below its
   non-adaptive twin under the overload ramp. *)
let adaptive_checks rows =
  let find n = List.assoc_opt n rows in
  List.filter_map
    (fun (plain, adaptive) ->
      match (find plain, find adaptive) with
      | Some p, Some a ->
          let rp = row_of plain p and ra = row_of adaptive a in
          Some
            ( plain ^ "-vs-" ^ adaptive,
              ra.tail_x1000 < rp.tail_x1000,
              rp.tail_x1000,
              ra.tail_x1000 )
      | _ -> None)
    (twin_pairs rows)

(* The gate requires the goodput curve to be monotone and at least one
   adaptive twin to win on tail amplification; the per-pair outcomes are
   reported but not individually gated (which manager wins the ratio
   contest is workload-dependent — the claim is that adaptation bounds
   the tail *somewhere*, deterministically). *)
let checks ~ladder_ok rows =
  let adaptives = adaptive_checks rows in
  let tail_ok = List.exists (fun (_, ok, _, _) -> ok) adaptives in
  List.iter
    (fun (n, ok, plain, adaptive) ->
      Printf.printf "    pair %-28s plain %.2f vs adaptive %.2f  %s\n" n
        (float_of_int plain /. 1000.)
        (float_of_int adaptive /. 1000.)
        (if ok then "(adaptive wins)" else "(plain wins)"))
    adaptives;
  [ ("goodput-monotone", ladder_ok); ("adaptive-bounds-tail", tail_ok) ]

(* ---- JSON -------------------------------------------------------------- *)

let row_json row =
  Obs.Json.Obj
    [
      ("engine", Obs.Json.Str row.engine);
      ("offered", Obs.Json.Int row.offered);
      ("completed", Obs.Json.Int row.completed);
      ("elapsed_cycles", Obs.Json.Int row.elapsed_cycles);
      ("p50", Obs.Json.Int row.p50);
      ("p95", Obs.Json.Int row.p95);
      ("p999", Obs.Json.Int row.p999);
      ("tail_amplification_x1000", Obs.Json.Int row.tail_x1000);
      ("retries", Obs.Json.Int row.retries);
      ("escalations", Obs.Json.Int row.escalations);
      ("throttles", Obs.Json.Int row.throttles);
      ("queue_pct", Obs.Json.Int row.queue_pct);
    ]

let to_json ~smoke ~ladder_engine ~ladder_rungs ~rows =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.Str "swisstm-repro/service/1");
      ("mode", Obs.Json.Str (if smoke then "smoke" else "full"));
      ("seed", Obs.Json.Int seed);
      ( "ladder",
        Obs.Json.Obj
          [
            ("engine", Obs.Json.Str ladder_engine);
            ( "rungs",
              Obs.Json.List
                (List.map
                   (fun (rate, offered, completed, elapsed) ->
                     Obs.Json.Obj
                       [
                         ("rate_per_mcycle", Obs.Json.Int (int_of_float rate));
                         ("offered", Obs.Json.Int offered);
                         ("completed", Obs.Json.Int completed);
                         ("elapsed_cycles", Obs.Json.Int elapsed);
                       ])
                   ladder_rungs) );
          ] );
      ( "ramp",
        Obs.Json.List
          (List.map (fun (n, r) -> row_json (row_of n r)) rows) );
      ( "slo",
        Obs.Json.Obj
          (List.filter_map
             (fun (n, (r : Service.result)) ->
               Option.map (fun j -> (n, j)) r.Service.slo_json)
             rows) );
    ]

(* ---- entry points ------------------------------------------------------ *)

let ladder_engine = "swisstm"

(* Shared by `bench service` and perf_gate (whose golden holds the smoke
   JSON).  Returns (json, named checks). *)
let gate ~smoke () =
  let rungs = ladder ~smoke ladder_engine in
  let ladder_ok = ladder_monotone rungs in
  let rows = ramp_rows ~smoke in
  print_ladder ladder_engine rungs;
  Printf.printf "  overload ramp (%s):\n"
    (Format.asprintf "%a" Arrival.pp_spec (ramp_spec ~smoke));
  print_rows rows;
  (* Zero-perturbation: the SLO collectors charge no simulated cycles,
     so serving the ramp with everything off must reproduce the metered
     makespan bit for bit. *)
  let unmetered =
    run_one ~obs:false
      ~cfg:{ (base_cfg ~smoke) with Service.arrivals = ramp_spec ~smoke }
      ladder_engine
  in
  let metered_elapsed =
    (List.assoc ladder_engine rows).Service.elapsed_cycles
  in
  let perturb_ok = unmetered.Service.elapsed_cycles = metered_elapsed in
  if not perturb_ok then
    Printf.printf
      "    obs-off makespan %d != metered %d — a collector charged cycles!\n"
      unmetered.Service.elapsed_cycles metered_elapsed;
  let cks = ("slo-zero-perturbation", perturb_ok) :: checks ~ladder_ok rows in
  List.iter
    (fun (name, ok) ->
      Printf.printf "  service %-24s %s\n%!" name (if ok then "ok" else "FAIL"))
    cks;
  (to_json ~smoke ~ladder_engine ~ladder_rungs:rungs ~rows, cks)

(* `bench service`: the full-mode report + OBS_SERVICE.json sidecar. *)
let run () =
  Bench_common.section "Service: open-system SLO curves (extension)";
  let json, cks = gate ~smoke:false () in
  let ok = List.for_all snd cks in
  let oc = open_out "OBS_SERVICE.json" in
  Obs.Json.to_channel oc json;
  close_out oc;
  Bench_common.note "  wrote OBS_SERVICE.json%s"
    (if ok then "" else " (CHECK FAILURES ABOVE)")

(* stm_run — command-line driver for every benchmark × engine combination.

     stm_run rbtree --stm swisstm --threads 4
     stm_run sb7    --workload read --stm tl2 --threads 8
     stm_run lee    --board memory --stm tinystm --threads 2
     stm_run stamp  --app intruder --stm swisstm --threads 8
     stm_run list
     stm_run --profile --metrics              # all-engine demo micro
     stm_run sb7 --trace-out sb7.trace.json   # Chrome/Perfetto trace

   Prints one summary line per run plus the abort/commit breakdown.
   The observability flags (--metrics, --profile, --trace-out) work on
   every benchmark subcommand and on the default all-engine demo.
   `stm_run service` drives the open-system SLO harness (--slo,
   --slo-out, --trace-window). *)

open Cmdliner

let spec_conv =
  let parse s =
    match Engines.of_string s with
    | Some spec -> Ok spec
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown engine %S (expected one of: %s)" s
                (String.concat ", " Engines.known_names)))
  in
  let print ppf spec = Format.pp_print_string ppf (Engines.name spec) in
  Arg.conv (parse, print)

let stm_arg =
  let doc = "STM engine (see `stm_run list`)." in
  Arg.(value & opt spec_conv Engines.swisstm & info [ "stm" ] ~docv:"ENGINE" ~doc)

let threads_arg =
  let doc = "Number of simulated threads." in
  Arg.(value & opt int 4 & info [ "t"; "threads" ] ~docv:"N" ~doc)

let duration_arg =
  let doc = "Simulated duration in megacycles (duration-type benchmarks)." in
  Arg.(value & opt int 10 & info [ "duration" ] ~docv:"MCYCLES" ~doc)

(* --- observability ------------------------------------------------------ *)

type obs_opts = { metrics : bool; profile : bool; trace_out : string option }

let obs_term =
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Print the metrics registry report (latency histograms, abort \
                breakdown, stripe heat map) after the run.")
  in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:"Print the simulated-cycle phase breakdown (read / write / \
                validate / commit / spin / backoff) after the run.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:"Record the transactional event stream and write it as Chrome \
                trace_event JSON; open the file in Perfetto \
                (https://ui.perfetto.dev) or chrome://tracing.")
  in
  Term.(
    const (fun metrics profile trace_out -> { metrics; profile; trace_out })
    $ metrics $ profile $ trace_out)

(* Wrap one benchmark run: arm the requested collectors before, report and
   disarm after.  Collectors never charge simulated cycles, so the run's
   cycle numbers match an uninstrumented run bit for bit. *)
let with_obs (o : obs_opts) ~section f =
  if o.metrics then begin
    Obs.Metrics.reset ();
    Obs.Metrics.enable ()
  end;
  if o.profile then begin
    Obs.Profile.reset ();
    Obs.Profile.enable ()
  end;
  if o.trace_out <> None then Stm_intf.Trace.start ();
  Fun.protect
    ~finally:(fun () ->
      (match o.trace_out with
      | Some path ->
          let events = Stm_intf.Trace.stop () in
          Obs.Export.write_file path [ (section, events) ];
          Printf.printf "trace: wrote %s (%d events)\n" path
            (Array.length events)
      | None -> ());
      if o.profile then begin
        Format.printf "%a@." Obs.Profile.pp (Obs.Profile.snapshot ());
        Obs.Profile.disable ()
      end;
      if o.metrics then begin
        Format.printf "%a@." Obs.Metrics.pp ();
        Obs.Metrics.disable ()
      end)
    f

let print_result ~label spec ~threads (r : Harness.Workload.result) =
  Printf.printf
    "%s  engine=%s threads=%d  ops=%d  elapsed=%.3f ms (simulated)  \
     throughput=%.1f ops/s\n"
    label (Engines.name spec) threads r.ops
    (Harness.Workload.elapsed_seconds r *. 1e3)
    (Harness.Workload.throughput r);
  Format.printf "  %a@." Stm_intf.Stats.pp r.stats;
  Printf.printf "  abort rate: %.4f\n" (Harness.Workload.abort_rate r)

(* --- rbtree ------------------------------------------------------------ *)

let rbtree_cmd =
  let run obs spec threads duration update_pct range =
    let params =
      {
        Rbtree.Rbtree_bench.default with
        update_ratio = float_of_int update_pct /. 100.;
        range;
      }
    in
    with_obs obs ~section:(Engines.name spec) (fun () ->
        let r =
          Rbtree.Rbtree_bench.run ~params ~spec ~threads
            ~duration_cycles:(duration * 1_000_000) ()
        in
        print_result ~label:"rbtree" spec ~threads r)
  in
  let update_arg =
    Arg.(value & opt int 20 & info [ "updates" ] ~docv:"PCT" ~doc:"Update percentage.")
  in
  let range_arg =
    Arg.(value & opt int 16384 & info [ "range" ] ~docv:"N" ~doc:"Key range.")
  in
  Cmd.v
    (Cmd.info "rbtree" ~doc:"Red-black tree microbenchmark (paper Figure 5)")
    Term.(
      const run $ obs_term $ stm_arg $ threads_arg $ duration_arg $ update_arg
      $ range_arg)

(* --- STMBench7 ---------------------------------------------------------- *)

let sb7_cmd =
  let run obs spec threads duration workload =
    let workload =
      match workload with
      | "read" -> Stmbench7.Sb7_bench.Read_dominated
      | "read-write" | "rw" -> Stmbench7.Sb7_bench.Read_write
      | "write" -> Stmbench7.Sb7_bench.Write_dominated
      | s -> failwith (Printf.sprintf "unknown workload %S" s)
    in
    with_obs obs ~section:(Engines.name spec) (fun () ->
        let r =
          Stmbench7.Sb7_bench.run ~spec ~workload ~threads
            ~duration_cycles:(duration * 1_000_000) ()
        in
        print_result ~label:"stmbench7" spec ~threads r)
  in
  let workload_arg =
    Arg.(
      value & opt string "read"
      & info [ "workload" ] ~docv:"MIX" ~doc:"read | read-write | write.")
  in
  Cmd.v
    (Cmd.info "sb7" ~doc:"STMBench7 (paper Figure 2)")
    Term.(
      const run $ obs_term $ stm_arg $ threads_arg $ duration_arg $ workload_arg)

(* --- Lee-TM -------------------------------------------------------------- *)

let lee_cmd =
  let run obs spec threads board hot =
    let board =
      match board with
      | "memory" -> Leetm.Board.memory ()
      | "main" -> Leetm.Board.main ()
      | s -> failwith (Printf.sprintf "unknown board %S" s)
    in
    with_obs obs ~section:(Engines.name spec) (fun () ->
        let r, state = Leetm.Router.run ~hot_ratio:hot ~spec ~threads board in
        print_result ~label:(Printf.sprintf "lee-%s" board.name) spec ~threads r;
        Printf.printf "  routed=%d failed=%d connected=%b\n"
          (Leetm.Router.total_routed state)
          (Leetm.Router.total_failed state)
          (Leetm.Router.verify state))
  in
  let board_arg =
    Arg.(value & opt string "memory" & info [ "board" ] ~docv:"B" ~doc:"memory | main.")
  in
  let hot_arg =
    Arg.(
      value & opt float 0.
      & info [ "hot-ratio" ]
          ~doc:"Irregular variant: fraction of routes updating the hot object.")
  in
  Cmd.v
    (Cmd.info "lee" ~doc:"Lee-TM circuit routing (paper Figures 4 and 8)")
    Term.(const run $ obs_term $ stm_arg $ threads_arg $ board_arg $ hot_arg)

(* --- STAMP --------------------------------------------------------------- *)

let stamp_cmd =
  let run obs spec threads app =
    match Stamp.find app with
    | None ->
        failwith
          (Printf.sprintf "unknown app %S (expected one of: %s)" app
             (String.concat ", " Stamp.names))
    | Some w ->
        with_obs obs ~section:(Engines.name spec) (fun () ->
            let r, ok = w.run ~spec ~threads () in
            print_result ~label:(Printf.sprintf "stamp-%s" app) spec ~threads r;
            Printf.printf "  verified=%b\n" ok)
  in
  let app_arg =
    Arg.(value & opt string "intruder" & info [ "app" ] ~docv:"APP" ~doc:"STAMP application.")
  in
  Cmd.v
    (Cmd.info "stamp" ~doc:"STAMP applications (paper Figure 3)")
    Term.(const run $ obs_term $ stm_arg $ threads_arg $ app_arg)

(* --- demo (default command) ---------------------------------------------- *)

(* Every registered engine, by registry name — including the -adaptive
   CM variants, norec/tlrw and the composed kernel points — so the demo
   (and obs-check below) can never silently drop a newly added engine. *)
let demo_specs =
  List.filter_map
    (fun n -> Option.map (fun s -> (n, s)) (Engines.of_string n))
    Engines.known_names

(* Small contended counter-array micro: enough conflicts at 2 threads to
   exercise aborts, backoff and CM decisions on every engine. *)
let demo_micro spec ~threads ~duration_cycles =
  let heap = Memory.Heap.create ~words:(1 lsl 16) in
  let base = Memory.Heap.alloc heap 512 in
  let engine = Engines.make spec heap in
  let step ~tid ~op =
    Stm_intf.Engine.atomic engine ~tid (fun tx ->
        let slot = base + (((op * 7) + (tid * 13)) land 63) in
        let v = tx.Stm_intf.Engine.read slot in
        tx.Stm_intf.Engine.write slot (v + 1);
        ignore (tx.Stm_intf.Engine.read (base + ((op + tid) land 255)) : int))
  in
  Harness.Workload.run_for_duration engine ~threads ~duration_cycles step

let demo obs threads =
  if obs.metrics then begin
    Obs.Metrics.reset ();
    Obs.Metrics.enable ()
  end;
  let sections = ref [] in
  List.iter
    (fun (name, spec) ->
      if obs.profile then begin
        Obs.Profile.reset ();
        Obs.Profile.enable ()
      end;
      if obs.trace_out <> None then Stm_intf.Trace.start ();
      let r = demo_micro spec ~threads ~duration_cycles:300_000 in
      if obs.trace_out <> None then
        sections := (name, Stm_intf.Trace.stop ()) :: !sections;
      Printf.printf "%-28s ops=%-6d elapsed=%d cycles\n" name r.ops
        r.elapsed_cycles;
      Format.printf "  %a@." Stm_intf.Stats.pp r.stats;
      if obs.profile then begin
        Format.printf "%a@." Obs.Profile.pp (Obs.Profile.snapshot ());
        Obs.Profile.disable ()
      end)
    demo_specs;
  (match obs.trace_out with
  | Some path ->
      Obs.Export.write_file path (List.rev !sections);
      Printf.printf "trace: wrote %s\n" path
  | None -> ());
  if obs.metrics then begin
    Format.printf "%a@." Obs.Metrics.pp ();
    Obs.Metrics.disable ()
  end

let demo_term = Term.(const demo $ obs_term $ threads_arg)

(* --- obs-check ------------------------------------------------------------ *)

(* CI smoke for the observability layer: run the demo micro with every
   collector armed, then schema-check everything that came out.  Exits 1
   on any failure. *)
let obs_check_cmd =
  let run () =
    let failures = ref [] in
    let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
    Obs.Metrics.reset ();
    Obs.Metrics.enable ();
    Obs.Profile.reset ();
    Obs.Profile.enable ();
    let sections = ref [] in
    List.iter
      (fun name ->
        let spec =
          match Engines.of_string name with
          | Some s -> s
          | None -> failwith ("obs-check: unknown engine " ^ name)
        in
        Stm_intf.Trace.start ();
        let r = demo_micro spec ~threads:2 ~duration_cycles:100_000 in
        sections := (name, Stm_intf.Trace.stop ()) :: !sections;
        if r.ops = 0 then fail "%s: demo micro made no progress" name)
      [ "swisstm"; "tl2"; "norec"; "swisstm-adaptive" ];
    Obs.Profile.disable ();
    Obs.Metrics.disable ();
    (* profile: the run must have attributed cycles to named phases *)
    let snap = Obs.Profile.snapshot () in
    if Obs.Profile.total snap = 0 then fail "profile: no cycles attributed";
    (match Obs.Json.member "phases" (Obs.Profile.to_json snap) with
    | Some (Obs.Json.Obj _) -> ()
    | _ -> fail "profile json: missing phases object");
    (* metrics: both engines registered, commits counted *)
    let mj = Obs.Metrics.to_json () in
    (match Obs.Json.member "engines" mj with
    | Some (Obs.Json.List engines) ->
        List.iter
          (fun name ->
            let found =
              List.exists
                (fun e ->
                  match Obs.Json.member "name" e with
                  | Some (Obs.Json.Str n) -> n = name
                  | _ -> false)
                engines
            in
            if not found then fail "metrics json: engine %s missing" name)
          [ "swisstm"; "tl2" ]
    | _ -> fail "metrics json: missing engines list");
    (* gauges: the allocator/reclaimer read-outs must stay wired into
       [Metrics.gauge_values] — a missing name means a layer below Obs
       silently lost its registration *)
    let gauges = Obs.Metrics.gauge_values () in
    let gauge name =
      match List.assoc_opt name gauges with
      | Some v -> v
      | None ->
          fail "gauges: %s missing from Metrics.gauge_values" name;
          0
    in
    List.iter
      (fun name -> ignore (gauge name : int))
      [
        "heap_frees"; "heap_free_reuses"; "heap_leaked_frees";
        "heap_double_frees"; "epoch_advances"; "epoch_deferred";
        "epoch_reclaimed"; "epoch_limbo_depth";
      ];
    if gauge "heap_double_frees" <> 0 then
      fail "gauges: heap_double_frees = %d (guard tripped)"
        (gauge "heap_double_frees");
    (match Obs.Json.member "gauges" mj with
    | Some (Obs.Json.Obj _) -> ()
    | _ -> fail "metrics json: missing gauges object");
    (* trace: write a real file, parse it back, schema-check *)
    let path = Filename.temp_file "stm_obs_check" ".trace.json" in
    Obs.Export.write_file path (List.rev !sections);
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let raw = really_input_string ic len in
    close_in ic;
    Sys.remove path;
    (match Obs.Json.of_string raw with
    | exception Obs.Json.Parse_error e -> fail "trace json unparsable: %s" e
    | j -> (
        match Obs.Export.validate_catapult j with
        | Ok () -> ()
        | Error e -> fail "trace schema: %s" e));
    match !failures with
    | [] ->
        Printf.printf "obs-check: OK (metrics + profile + trace schema)\n"
    | fs ->
        List.iter (Printf.eprintf "obs-check: FAIL %s\n") (List.rev fs);
        exit 1
  in
  Cmd.v
    (Cmd.info "obs-check"
       ~doc:"Smoke-test the observability layer (CI; exits 1 on failure)")
    Term.(const run $ const ())

(* --- service (open-system SLO harness) ------------------------------------ *)

let service_cmd =
  let run spec threads rate duration users keys theta seed slo slo_out
      trace_window trace_out =
    let duration_cycles = duration * 1_000_000 in
    let cfg =
      {
        Harness.Service.default with
        threads;
        users;
        keys;
        theta;
        arrivals = Harness.Arrival.Poisson { per_mcycle = rate };
        duration_cycles;
        window_cycles = max 1 (duration_cycles / 8);
        seed;
        trace_window;
      }
    in
    let r = Harness.Service.run spec cfg in
    Printf.printf
      "service  engine=%s threads=%d  offered=%d completed=%d  \
       elapsed=%d cycles  offered=%.0f/Mcyc goodput=%.0f/Mcyc\n"
      (Engines.name spec) threads r.Harness.Service.offered
      r.Harness.Service.completed r.Harness.Service.elapsed_cycles
      (Harness.Service.offered_per_mcycle r)
      (Harness.Service.goodput_per_mcycle r);
    Format.printf "  %a@." Stm_intf.Stats.pp r.Harness.Service.stats;
    (match r.Harness.Service.summary with
    | Some s ->
        Printf.printf
          "  response cycles: p50=%d p95=%d p99.9=%d max=%d  tail-amp=%.2f\n"
          s.Obs.Slo.s_p50 s.Obs.Slo.s_p95 s.Obs.Slo.s_p999 s.Obs.Slo.s_max
          s.Obs.Slo.s_tail_amplification;
        let tot =
          s.Obs.Slo.s_queue_cycles + s.Obs.Slo.s_abort_cycles
          + s.Obs.Slo.s_backoff_cycles + s.Obs.Slo.s_exec_cycles
        in
        if tot > 0 then
          Printf.printf
            "  attribution: queue %d%%  aborted-work %d%%  backoff %d%%  \
             exec %d%%  (retries %d, escalations %d, throttles %d)\n"
            (100 * s.Obs.Slo.s_queue_cycles / tot)
            (100 * s.Obs.Slo.s_abort_cycles / tot)
            (100 * s.Obs.Slo.s_backoff_cycles / tot)
            (100 * s.Obs.Slo.s_exec_cycles / tot)
            s.Obs.Slo.s_retries s.Obs.Slo.s_escalations s.Obs.Slo.s_throttles
    | None -> ());
    if slo then begin
      Printf.printf "  windows (%d cycles each):\n" cfg.window_cycles;
      Printf.printf "    %-10s %8s %8s %10s %10s %10s %7s %6s\n" "start"
        "offered" "done" "p50" "p95" "p99.9" "retry" "slow";
      List.iter
        (fun (w : Obs.Slo.window) ->
          Printf.printf "    %-10d %8d %8d %10d %10d %10d %7d %6d\n"
            w.w_start w.w_arrivals w.w_completions w.w_p50 w.w_p95 w.w_p999
            w.w_retries w.w_slow)
        r.Harness.Service.windows
    end;
    (match (slo_out, r.Harness.Service.slo_json) with
    | Some path, Some j ->
        let oc = open_out path in
        Obs.Json.to_channel oc j;
        close_out oc;
        Printf.printf "slo: wrote %s\n" path
    | _ -> ());
    match (trace_out, r.Harness.Service.trace) with
    | Some path, Some (label, events) ->
        Obs.Export.write_file path [ (label, events) ];
        Printf.printf "trace: wrote %s (%d events of window %s)\n" path
          (Array.length events) label
    | Some _, None ->
        Printf.printf
          "trace: nothing recorded (pass --trace-window and make sure the \
           run reaches that window)\n"
    | None, _ -> ()
  in
  let rate_arg =
    Arg.(
      value & opt float 700.
      & info [ "rate" ] ~docv:"R"
          ~doc:"Offered load: Poisson arrivals per simulated megacycle.")
  in
  let users_arg =
    Arg.(
      value & opt int 200_000
      & info [ "users" ] ~docv:"N" ~doc:"Simulated user population.")
  in
  let keys_arg =
    Arg.(
      value & opt int 4096
      & info [ "keys" ] ~docv:"N" ~doc:"Inventory size (words).")
  in
  let theta_arg =
    Arg.(
      value & opt float 0.9
      & info [ "theta" ] ~docv:"T" ~doc:"Zipf skew of key popularity.")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S" ~doc:"Run seed.")
  in
  let slo_arg =
    Arg.(
      value & flag
      & info [ "slo" ]
          ~doc:"Print the per-window SLO table (offered/goodput and response \
                percentiles per window).")
  in
  let slo_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "slo-out" ] ~docv:"FILE"
          ~doc:"Write the windowed SLO report as JSON.")
  in
  let trace_window_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "trace-window" ] ~docv:"W"
          ~doc:"Record the transactional event stream during SLO window W \
                (combine with --trace-out).")
  in
  let trace_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:"Write the traced window as Chrome trace_event JSON.")
  in
  Cmd.v
    (Cmd.info "service"
       ~doc:
         "Open-system service harness: Poisson arrivals over a \
          session/inventory store, with windowed SLO percentiles and \
          abort-attribution.")
    Term.(
      const run $ stm_arg $ threads_arg $ rate_arg $ duration_arg $ users_arg
      $ keys_arg $ theta_arg $ seed_arg $ slo_arg $ slo_out_arg
      $ trace_window_arg $ trace_out_arg)

(* --- list ----------------------------------------------------------------- *)

let list_cmd =
  let run () =
    Printf.printf "engines:\n";
    List.iter (Printf.printf "  %s\n") Engines.known_names;
    Printf.printf "stamp apps:\n";
    List.iter (Printf.printf "  %s\n") Stamp.names
  in
  Cmd.v (Cmd.info "list" ~doc:"List engines and STAMP applications")
    Term.(const run $ const ())

let () =
  let info =
    Cmd.info "stm_run" ~version:"1.0"
      ~doc:
        "SwissTM reproduction: run any benchmark under any STM engine.  With \
         no subcommand, runs a contended demo micro across every registered engine \
         (combine with --profile / --metrics / --trace-out)."
  in
  exit
    (Cmd.eval
       (Cmd.group ~default:demo_term info
          [
             rbtree_cmd;
             sb7_cmd;
             lee_cmd;
             stamp_cmd;
             obs_check_cmd;
             service_cmd;
             list_cmd;
           ]))

(* stm_run — command-line driver for every benchmark × engine combination.

     stm_run rbtree --stm swisstm --threads 4
     stm_run sb7    --workload read --stm tl2 --threads 8
     stm_run lee    --board memory --stm tinystm --threads 2
     stm_run stamp  --app intruder --stm swisstm --threads 8
     stm_run list
     stm_run --profile --metrics              # all-engine demo micro
     stm_run sb7 --trace-out sb7.trace.json   # Chrome/Perfetto trace

   Every report is an [Obs.Report] table: the run result with its abort
   and commit counters, then the profile, metrics and SLO windows when
   asked for.  --out FILE writes the tables the run printed as one JSON
   record.  The observability flags (--metrics, --profile, --trace-out,
   --out) work on every benchmark subcommand and on the default
   all-engine demo.  `stm_run service` drives the open-system SLO harness
   (--slo, --out, --trace-window). *)

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

(* --- reports -------------------------------------------------------------- *)

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE"
        ~doc:"Write every table the run printed as one JSON record (see \
              $(b,Obs.Report)).")

let write_record path tables =
  Out_channel.with_open_bin path (fun oc ->
      Obs.Json.to_channel oc (Obs.Report.to_json tables));
  Printf.printf "record: wrote %s\n" path

(* Print [tables]; with [--out FILE], also write them as one record. *)
let report out tables =
  List.iter Obs.Report.print tables;
  Option.iter (fun path -> write_record path tables) out

let ints = List.map float_of_int

let stats_columns =
  [ "commits"; "aborts w/w"; "aborts r/w"; "killed"; "waits"; "backoffs"; "wasted"; "reads";
    "writes"; "max consec" ]

let stats_cells (s : Stm_intf.Stats.snapshot) =
  ints
    [ s.s_commits; s.s_aborts_ww; s.s_aborts_rw; s.s_aborts_killed; s.s_waits; s.s_backoffs;
      s.s_cycles_wasted; s.s_reads; s.s_writes; s.s_max_consecutive_aborts ]

(* --- observability ------------------------------------------------------ *)

type obs_opts = {
  metrics : bool;
  profile : bool;
  trace_out : string option;
  out : string option;
}

let obs_term =
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Print the metrics registry tables (latency histograms, abort \
                breakdown, stripe heat map, gauges) after the run.")
  in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:"Print the simulated-cycle phase breakdown (read / write / \
                validate / commit / spin / backoff) of each run.")
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
    const (fun metrics profile trace_out out -> { metrics; profile; trace_out; out })
    $ metrics $ profile $ trace_out $ out_arg)

(* Run each [(label, f)] with the requested collectors armed (the
   profile and the trace per run, the metrics across all of them), then
   report one result table titled [title] with a row per run ([f]
   returns the result and the cells of the [extra] columns), a profile
   table per run and the metrics tables.  Collectors never charge
   simulated cycles, so the cycle numbers match an uninstrumented run bit
   for bit. *)
let with_obs (o : obs_opts) ~title ?(extra = []) runs =
  if o.metrics then begin
    Obs.Metrics.reset ();
    Obs.Metrics.enable ()
  end;
  let one (label, f) =
    if o.profile then begin
      Obs.Profile.reset ();
      Obs.Profile.enable ()
    end;
    if o.trace_out <> None then Stm_intf.Trace.start ();
    let (r : Harness.Workload.result), more = f () in
    let events = if o.trace_out <> None then [ (label, Stm_intf.Trace.stop ()) ] else [] in
    let profile =
      if not o.profile then []
      else begin
        Obs.Profile.disable ();
        [ Obs.Profile.table ~title:("profile: " ^ label) (Obs.Profile.snapshot ()) ]
      end
    in
    let row =
      ( label,
        ints [ r.threads; r.ops; r.elapsed_cycles ]
        @ [ Harness.Workload.throughput r; 100. *. Harness.Workload.abort_rate r ]
        @ stats_cells r.stats @ more )
    in
    (row, events, profile)
  in
  let runs = List.map one runs in
  if o.metrics then Obs.Metrics.disable ();
  Option.iter
    (fun path ->
      let sections = List.concat_map (fun (_, e, _) -> e) runs in
      Obs.Export.write_file path sections;
      Printf.printf "trace: wrote %s (%d events)\n" path
        (List.fold_left (fun n (_, e) -> n + Array.length e) 0 sections))
    o.trace_out;
  report o.out
    ((Obs.Report.table title "cycles, counts"
        ([ "threads"; "ops"; "elapsed cycles"; "ops/s"; "abort %" ] @ stats_columns @ extra)
        (List.map (fun (row, _, _) -> row) runs)
     :: List.concat_map (fun (_, _, p) -> p) runs)
    @ if o.metrics then Obs.Metrics.tables () else [])

(* One benchmark run of [spec]. *)
let run_one obs ~title ?extra spec f = with_obs obs ~title ?extra [ (Engines.name spec, f) ]

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
    run_one obs ~title:"rbtree" spec (fun () ->
        ( Rbtree.Rbtree_bench.run ~params ~spec ~threads
            ~duration_cycles:(duration * 1_000_000) (),
          [] ))
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
    run_one obs ~title:"stmbench7" spec (fun () ->
        ( Stmbench7.Sb7_bench.run ~spec ~workload ~threads
            ~duration_cycles:(duration * 1_000_000) (),
          [] ))
  in
  let workload_arg =
    let open Stmbench7.Sb7_bench in
    Arg.(
      value
      & opt
          (enum
             [ ("read", Read_dominated); ("read-write", Read_write); ("rw", Read_write);
               ("write", Write_dominated) ])
          Read_dominated
      & info [ "workload" ] ~docv:"MIX" ~doc:"read | read-write | write.")
  in
  Cmd.v
    (Cmd.info "sb7" ~doc:"STMBench7 (paper Figure 2)")
    Term.(
      const run $ obs_term $ stm_arg $ threads_arg $ duration_arg $ workload_arg)

(* --- Lee-TM -------------------------------------------------------------- *)

let lee_cmd =
  let run obs spec threads board hot =
    let board = match board with `Memory -> Leetm.Board.memory () | `Main -> Leetm.Board.main () in
    run_one obs ~title:("lee-" ^ board.name) spec
      ~extra:[ "routed"; "failed"; "connected" ]
      (fun () ->
        let r, state = Leetm.Router.run ~hot_ratio:hot ~spec ~threads board in
        ( r,
          ints
            [ Leetm.Router.total_routed state; Leetm.Router.total_failed state;
              Bool.to_int (Leetm.Router.verify state) ] ))
  in
  let board_arg =
    Arg.(
      value
      & opt (enum [ ("memory", `Memory); ("main", `Main) ]) `Memory
      & info [ "board" ] ~docv:"B" ~doc:"memory | main.")
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
  let run obs spec threads (app : Stamp.workload) =
    run_one obs ~title:("stamp-" ^ app.name) spec ~extra:[ "verified" ] (fun () ->
        let r, ok = app.run ~spec ~threads () in
        (r, [ Bool.to_float ok ]))
  in
  let app_arg =
    let apps = List.map (fun (w : Stamp.workload) -> (w.name, w)) Stamp.workloads in
    Arg.(
      value
      & opt (enum apps) (List.assoc "intruder" apps)
      & info [ "app" ] ~docv:"APP" ~doc:"STAMP application.")
  in
  Cmd.v
    (Cmd.info "stamp" ~doc:"STAMP applications (paper Figure 3)")
    Term.(const run $ obs_term $ stm_arg $ threads_arg $ app_arg)

(* --- demo (default command) ---------------------------------------------- *)

(* Every named engine, by catalogue name — including the -adaptive
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

let demo_runs specs ~threads ~duration_cycles =
  List.map
    (fun (name, spec) -> (name, fun () -> (demo_micro spec ~threads ~duration_cycles, [])))
    specs

let demo obs threads =
  with_obs obs ~title:"demo micro"
    (demo_runs demo_specs ~threads ~duration_cycles:300_000)

let demo_term = Term.(const demo $ obs_term $ threads_arg)

(* --- obs-check ------------------------------------------------------------ *)

(* CI smoke for the observability layer: run the demo micro on four
   engines with every collector armed, read the record and the trace
   back from their files and check them.  Exits 1 on any failure. *)
let obs_check_cmd =
  let run out =
    let engines = [ "swisstm"; "tl2"; "norec"; "swisstm-adaptive" ] in
    let temp ext = Filename.temp_file "stm_obs_check" ext in
    let trace = temp ".trace.json" and record = Option.value out ~default:(temp ".json") in
    with_obs
      { metrics = true; profile = true; trace_out = Some trace; out = Some record }
      ~title:"obs-check"
      (demo_runs
         (List.map (fun n -> (n, Option.get (Engines.of_string n))) engines)
         ~threads:2 ~duration_cycles:100_000);
    let read path = Obs.Json.of_string (In_channel.with_open_bin path In_channel.input_all) in
    let failures = ref [] in
    let expect ok fmt =
      Printf.ksprintf (fun s -> if not ok then failures := s :: !failures) fmt
    in
    let tables = Obs.Report.of_json (read record) in
    if out = None then Sys.remove record;
    let get title label col =
      match List.find_opt (fun (t : Obs.Report.table) -> t.title = title) tables with
      | Some t -> ( try Some (Obs.Report.cell t label col) with Not_found -> None)
      | None -> None
    in
    let positive = Option.fold ~none:false ~some:(fun v -> v > 0.) in
    List.iter
      (fun name ->
        expect (positive (get "obs-check" name "ops")) "%s: demo micro made no progress" name;
        let profile = "profile: " ^ name in
        expect (positive (get profile "total" "cycles")) "%s: no cycles attributed" profile;
        Array.iter
          (fun phase ->
            expect (get profile phase "cycles" <> None) "%s: no %s row" profile phase)
          Obs.Profile.phase_names)
      engines;
    List.iter
      (fun name ->
        expect (get "metrics: aborts and CM decisions" name "w/w" <> None)
          "metrics: engine %s missing" name)
      [ "swisstm"; "tl2" ];
    (* gauges: the allocator/reclaimer read-outs must stay wired into the
       metrics tables — a missing name means a layer below Obs silently
       lost its registration *)
    let gauge name = get "metrics: gauges" name "value" in
    List.iter
      (fun name -> expect (gauge name <> None) "gauges: %s missing" name)
      [
        "heap_frees"; "heap_free_reuses"; "heap_leaked_frees";
        "heap_double_frees"; "epoch_advances"; "epoch_deferred";
        "epoch_reclaimed"; "epoch_limbo_depth";
      ];
    expect (gauge "heap_double_frees" = Some 0.) "gauges: heap_double_frees is not 0 (guard tripped)";
    (match Obs.Export.validate_catapult (read trace) with
    | exception Obs.Json.Parse_error e -> expect false "trace json unparsable: %s" e
    | Ok () -> ()
    | Error e -> expect false "trace schema: %s" e);
    Sys.remove trace;
    match !failures with
    | [] -> Printf.printf "obs-check: OK (record tables + trace schema)\n"
    | fs ->
        List.iter (Printf.eprintf "obs-check: FAIL %s\n") (List.rev fs);
        exit 1
  in
  Cmd.v
    (Cmd.info "obs-check"
       ~doc:"Smoke-test the observability layer (CI; exits 1 on failure)")
    Term.(const run $ out_arg)

(* --- service (open-system SLO harness) ------------------------------------ *)

let service_cmd =
  let run spec threads rate duration users keys theta seed slo out trace_window trace_out =
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
    let name = Engines.name spec in
    let served =
      Obs.Report.table "service" "requests, cycles"
        ([ "threads"; "offered"; "completed"; "elapsed cycles"; "offered/Mcycle";
           "goodput/Mcycle" ]
        @ stats_columns)
        [
          ( name,
            ints [ threads; r.offered; r.completed; r.elapsed_cycles ]
            @ [ Harness.Service.offered_per_mcycle r; Harness.Service.goodput_per_mcycle r ]
            @ stats_cells r.stats );
        ]
    in
    (* response cycles, and their attribution as shares of the total *)
    let response (s : Obs.Slo.summary) =
      let parts = [ s.s_queue_cycles; s.s_abort_cycles; s.s_backoff_cycles; s.s_exec_cycles ] in
      let total = float_of_int (List.fold_left ( + ) 0 parts) in
      Obs.Report.table "service response" "cycles, %"
        [ "p50"; "p95"; "p99.9"; "max"; "tail amp"; "queue"; "aborted work"; "backoff"; "exec";
          "retries"; "escalations"; "throttles" ]
        [
          ( name,
            ints [ s.s_p50; s.s_p95; s.s_p999; s.s_max ]
            @ (s.s_tail_amplification
              :: List.map
                   (fun c -> if total = 0. then 0. else 100. *. float_of_int c /. total)
                   parts)
            @ ints [ s.s_retries; s.s_escalations; s.s_throttles ] );
        ]
    in
    report out
      ((served :: Option.to_list (Option.map response r.summary))
      @ if slo then r.windows else []);
    match (trace_out, r.trace) with
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
          ~doc:"Print the per-window SLO tables (offered/goodput, response \
                percentiles and their attribution per window).")
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
      $ keys_arg $ theta_arg $ seed_arg $ slo_arg $ out_arg
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

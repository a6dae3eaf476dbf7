(* Observability layer: histogram bucketing, registry reset semantics,
   JSON printer/parser, catapult export round-trip, the collectors'
   reports as tables, and the profiler's no-perturbation contract. *)

open Alcotest

(* --- Rhist bucketing -------------------------------------------------- *)

module H = Obs.Rhist

let test_hist_exact_below_64 () =
  check int "negatives clamp to bucket 0" 0 (H.bucket_of (-5));
  for v = 0 to 63 do
    check int (Printf.sprintf "bucket_of %d" v) v (H.bucket_of v);
    check int (Printf.sprintf "bucket_upper %d" v) v (H.bucket_upper v)
  done;
  check bool "64 starts the sub-bucketed octaves" true (H.bucket_of 64 = 64)

(* Above 64 every value lands in a bucket whose upper bound covers it,
   at most 1/32 above it, and no index reaches [n_buckets]. *)
let test_hist_relative_error () =
  let octaves = List.concat_map (fun b -> [ (1 lsl b) - 1; 1 lsl b; (1 lsl b) + 1 ]) in
  List.iter
    (fun v ->
      let b = H.bucket_of v in
      let up = H.bucket_upper b in
      check bool (Printf.sprintf "bucket_of %d in range" v) true (b < H.n_buckets);
      check bool (Printf.sprintf "upper(bucket_of %d) >= %d" v v) true (up >= v);
      check bool (Printf.sprintf "upper(bucket_of %d) within 1/32" v) true (up - v <= v / 32))
    (octaves (List.init 55 (fun b -> b + 7)) @ [ 64; 100; 1000; 123_456_789; max_int ])

let test_hist_quantile_at_most_max () =
  let h = H.create () in
  check int "empty quantile" 0 (H.quantile h 0.5);
  List.iter (H.observe h) [ 0; 1; 100; 100; 1_000_001; 5_000_003 ];
  check int "count" 6 (H.count h);
  check int "max" 5_000_003 (H.max_value h);
  List.iter
    (fun q ->
      check bool (Printf.sprintf "q%.3f <= max" q) true (H.quantile h q <= H.max_value h))
    [ 0.; 0.5; 0.9; 0.999; 1. ];
  check int "p100 is the max" 5_000_003 (H.quantile h 1.);
  check bool "p50 covers 100" true (H.quantile h 0.5 >= 100);
  H.reset h;
  check int "reset count" 0 (H.count h);
  check int "reset quantile" 0 (H.quantile h 0.5)

let test_hist_merge () =
  let a = H.create () and b = H.create () and both = H.create () in
  List.iter (fun v -> H.observe a v; H.observe both v) [ 3; 70; 900 ];
  List.iter (fun v -> H.observe b v; H.observe both v) [ 5; 70; 40_000 ];
  let into = H.create () in
  H.merge_into (H.create ()) ~into;
  check int "merging an empty histogram adds nothing" 0 (H.count into);
  H.merge_into a ~into;
  H.merge_into b ~into;
  check int "count" (H.count both) (H.count into);
  check int "sum" (H.sum both) (H.sum into);
  check int "max" (H.max_value both) (H.max_value into);
  List.iter
    (fun q ->
      check int (Printf.sprintf "q%.2f" q) (H.quantile both q) (H.quantile into q))
    [ 0.1; 0.3; 0.5; 0.7; 0.9; 1. ]

(* --- registry reset semantics ------------------------------------------- *)

let test_registry_reset () =
  let eid = Obs.Metrics.register_engine "test-reset-engine" in
  check int "registration is idempotent by name" eid
    (Obs.Metrics.register_engine "test-reset-engine");
  Obs.Metrics.enable ();
  Obs.Metrics.on_tx_begin ~eid ~tid:0;
  Obs.Metrics.on_tx_commit ~tid:0;
  Obs.Metrics.on_stripe_conflict ~eid ~stripe:7;
  Obs.Metrics.disable ();
  Obs.Metrics.reset ();
  (* registrations survive reset: the same name maps to the same eid and
     hooks still work without re-registering *)
  check int "eid survives reset" eid
    (Obs.Metrics.register_engine "test-reset-engine");
  check bool "name still listed" true
    (List.mem "test-reset-engine" (Obs.Metrics.registered ()));
  Obs.Metrics.enable ();
  Obs.Metrics.on_tx_begin ~eid ~tid:1;
  Obs.Metrics.on_tx_commit ~tid:1;
  Obs.Metrics.disable ();
  Obs.Metrics.reset ()

(* --- JSON printer/parser round-trip -------------------------------------- *)

let test_json_roundtrip () =
  let open Obs.Json in
  let j =
    Obj
      [
        ("int", Int 42);
        ("neg", Int (-7));
        ("big", Int max_int);
        ("float", Float 1.5);
        ("str", Str "a\"b\\c\nd\te");
        ("null", Null);
        ("bools", List [ Bool true; Bool false ]);
        ("nested", Obj [ ("empty_list", List []); ("empty_obj", Obj []) ]);
      ]
  in
  let j' = of_string (to_string j) in
  check bool "round-trip equal" true (j = j');
  check (option int) "member int" (Some 42)
    (Option.bind (member "int" j') to_int);
  check (option int) "member big" (Some max_int)
    (Option.bind (member "big" j') to_int);
  check (option string) "member str" (Some "a\"b\\c\nd\te")
    (Option.bind (member "str" j') to_str);
  (match of_string "{\"a\": [1, 2.5, \"x\", null, true]}" with
  | Obj [ ("a", List [ Int 1; Float 2.5; Str "x"; Null; Bool true ]) ] -> ()
  | _ -> fail "hand-written JSON parsed wrong");
  check bool "rejects garbage" true
    (match of_string "{\"a\": 1} trailing" with
    | exception Obs.Json.Parse_error _ -> true
    | _ -> false)

(* --- catapult export round-trip ------------------------------------------ *)

let test_catapult_roundtrip () =
  let open Stm_intf in
  let ev =
    [|
      Trace.Begin { tid = 0; time = 0 };
      Trace.Read { tid = 0; addr = 8; value = 1; time = 10 };
      Trace.Write { tid = 0; addr = 8; value = 2; time = 20 };
      Trace.CmDecision
        { tid = 1; victim = 0; decision = Trace.Cm_wait; time = 25 };
      Trace.Begin { tid = 1; time = 30 };
      Trace.Abort { tid = 1; reason = Tx_signal.Ww_conflict; time = 40 };
      Trace.Commit { tid = 0; time = 50 };
      Trace.Begin { tid = 1; time = 60 };
      (* still open at the end: must export as a live slice *)
    |]
  in
  let path = Filename.temp_file "test_obs" ".trace.json" in
  Obs.Export.write_file path [ ("engine-a", ev); ("engine-b", [||]) ];
  let ic = open_in_bin path in
  let raw = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  let j = Obs.Json.of_string raw in
  (match Obs.Export.validate_catapult j with
  | Ok () -> ()
  | Error e -> fail ("schema: " ^ e));
  let events =
    match Option.bind (Obs.Json.member "traceEvents" j) Obs.Json.to_list with
    | Some l -> l
    | None -> fail "no traceEvents"
  in
  let with_ph p =
    List.filter
      (fun e ->
        match Option.bind (Obs.Json.member "ph" e) Obs.Json.to_str with
        | Some x -> x = p
        | None -> false)
      events
  in
  (* two process_name metadata records, one per section *)
  check int "metadata records" 2 (List.length (with_ph "M"));
  (* three attempts on engine-a: committed, aborted, live *)
  check int "tx slices" 3 (List.length (with_ph "X"));
  (* R + W + CmDecision instants *)
  check int "instants" 3 (List.length (with_ph "i"));
  let outcomes =
    List.filter_map
      (fun e ->
        Option.bind (Obs.Json.member "args" e) (fun a ->
            Option.bind (Obs.Json.member "outcome" a) Obs.Json.to_str))
      (with_ph "X")
    |> List.sort compare
  in
  check (list string) "slice outcomes"
    [ "abort:w/w"; "commit"; "live" ]
    outcomes

let test_catapult_rejects_malformed () =
  let bad = Obs.Json.Obj [ ("traceEvents", Obs.Json.List []) ] in
  check bool "empty traceEvents rejected" true
    (match Obs.Export.validate_catapult bad with Error _ -> true | Ok () -> false);
  check bool "non-object rejected" true
    (match Obs.Export.validate_catapult (Obs.Json.Int 3) with
    | Error _ -> true
    | Ok () -> false)

(* --- profiler: attribution and no perturbation --------------------------- *)

(* A contended 2-thread micro on one engine; returns elapsed cycles. *)
let contended_run spec =
  let heap = Memory.Heap.create ~words:(1 lsl 12) in
  let base = Memory.Heap.alloc heap 64 in
  let engine = Engines.make spec heap in
  let step ~tid ~op =
    Stm_intf.Engine.atomic engine ~tid (fun tx ->
        let a = base + (((op * 3) + tid) land 15) in
        let v = tx.Stm_intf.Engine.read a in
        tx.Stm_intf.Engine.write a (v + 1))
  in
  let r =
    Harness.Workload.run_for_duration engine ~threads:2
      ~duration_cycles:50_000 step
  in
  r.elapsed_cycles

let test_profiler_attribution () =
  Obs.Profile.reset ();
  Obs.Profile.enable ();
  let elapsed = contended_run Engines.swisstm in
  Obs.Profile.disable ();
  let s = Obs.Profile.snapshot () in
  check bool "cycles attributed" true (Obs.Profile.total s > 0);
  check bool "attribution covers the run" true (Obs.Profile.total s >= elapsed);
  let phase name =
    let rec idx i =
      if Obs.Profile.phase_names.(i) = name then i else idx (i + 1)
    in
    s.Obs.Profile.cycles.(idx 0)
  in
  check bool "read phase nonzero" true (phase "read" > 0);
  check bool "commit phase nonzero" true (phase "commit" > 0)

let test_profiler_no_perturbation () =
  (* Same seed, same workload: elapsed simulated cycles must be identical
     with every collector off, on, and off again. *)
  let spec = Engines.tinystm in
  let base = contended_run spec in
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  Obs.Profile.reset ();
  Obs.Profile.enable ();
  Stm_intf.Trace.start ();
  let metered = contended_run spec in
  ignore (Stm_intf.Trace.stop ());
  Obs.Profile.disable ();
  Obs.Metrics.disable ();
  let after = contended_run spec in
  check int "metered run bit-identical" base metered;
  check int "unmetered-again bit-identical" base after

(* --- the collectors' tables ------------------------------------------- *)

(* Metrics and Profile report as tables that survive the record. *)
let test_collector_tables () =
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  let profiles =
    List.map
      (fun (name, spec) ->
        Obs.Profile.reset ();
        Obs.Profile.enable ();
        ignore (contended_run spec : int);
        Obs.Profile.disable ();
        Obs.Profile.table ~title:("profile: " ^ name) (Obs.Profile.snapshot ()))
      [ ("swisstm", Engines.swisstm); ("tl2", Engines.tl2) ]
  in
  Obs.Metrics.disable ();
  let tables = profiles @ Obs.Metrics.tables () in
  Obs.Metrics.reset ();
  let back =
    Obs.Report.of_json (Obs.Json.of_string (Obs.Json.to_string (Obs.Report.to_json tables)))
  in
  check bool "record round trip" true (Obs.Report.diff tables back = []);
  let table title = List.find (fun (t : Obs.Report.table) -> t.title = title) back in
  let labels title = List.map (fun (r : Obs.Report.row) -> r.label) (table title).rows in
  check (list string) "a row per registered engine" (Obs.Metrics.registered ())
    (labels "metrics: aborts and CM decisions");
  check (list string) "a row per registered gauge"
    (List.map fst (Obs.Metrics.gauge_values ()))
    (labels "metrics: gauges");
  List.iter
    (fun name ->
      check bool (name ^ " tx latency") true
        (Obs.Report.cell (table "metrics: latency") (name ^ " tx") "n" > 0.);
      let profile = table ("profile: " ^ name) in
      check (list string) (name ^ " profile rows")
        (Array.to_list Obs.Profile.phase_names @ [ "total" ])
        (labels profile.title);
      check bool (name ^ " profile total") true (Obs.Report.cell profile "total" "cycles" > 0.))
    [ "swisstm"; "tl2" ]

let suite =
  [
    ( "obs:hist",
      [
        test_case "exact below 64" `Quick test_hist_exact_below_64;
        test_case "bucket bound within 1/32" `Quick test_hist_relative_error;
        test_case "quantile at most max" `Quick test_hist_quantile_at_most_max;
        test_case "merge_into sums" `Quick test_hist_merge;
      ] );
    ("obs:report", [ test_case "collector tables round-trip" `Quick test_collector_tables ]);
    ( "obs:registry",
      [ test_case "reset keeps registrations" `Quick test_registry_reset ] );
    ( "obs:json",
      [ test_case "print/parse round-trip" `Quick test_json_roundtrip ] );
    ( "obs:export",
      [
        test_case "catapult file round-trip" `Quick test_catapult_roundtrip;
        test_case "schema rejects malformed" `Quick
          test_catapult_rejects_malformed;
      ] );
    ( "obs:profiler",
      [
        test_case "phase attribution" `Quick test_profiler_attribution;
        test_case "collectors do not perturb schedules" `Quick
          test_profiler_no_perturbation;
      ] );
  ]

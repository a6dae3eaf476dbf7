(* Harness units: workload drivers and report rendering; plus safety under
   swept lock granularities (false conflicts must never break atomicity,
   only performance — the precondition for Figure 13 / Table 2). *)

let check = Alcotest.check

let test_run_for_duration_stops () =
  let heap = Memory.Heap.create ~words:4096 in
  let cell = Memory.Heap.alloc heap 1 in
  let e = Engines.make Engines.swisstm heap in
  let r =
    Harness.Workload.run_for_duration e ~threads:3 ~duration_cycles:200_000
      (fun ~tid ~op:_ ->
        Stm_intf.Engine.atomic e ~tid (fun tx -> tx.write cell (tx.read cell + 1)))
  in
  Alcotest.(check bool) "past deadline" true (r.elapsed_cycles >= 200_000);
  check Alcotest.int "ops = commits" r.ops r.stats.s_commits;
  check Alcotest.int "counter matches ops" r.ops (Memory.Heap.read heap cell);
  Alcotest.(check bool) "throughput positive" true (Harness.Workload.throughput r > 0.)

let test_run_fixed_work_drains () =
  let heap = Memory.Heap.create ~words:4096 in
  let cell = Memory.Heap.alloc heap 1 in
  let e = Engines.make Engines.tinystm heap in
  let remaining = Runtime.Tmatomic.make 500 in
  let r =
    Harness.Workload.run_fixed_work e ~threads:4 (fun ~tid ->
        if Runtime.Tmatomic.fetch_and_add remaining (-1) <= 0 then false
        else begin
          Stm_intf.Engine.atomic e ~tid (fun tx -> tx.write cell (tx.read cell + 1));
          true
        end)
  in
  check Alcotest.int "all work done" 500 r.ops;
  check Alcotest.int "counter" 500 (Memory.Heap.read heap cell);
  ignore r.elapsed_cycles

(* tiny substring helper; avoids a dependency just for this check *)
let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_report_rendering () =
  let t =
    Obs.Report.table "demo" "tx/s" [ "1T"; "2T"; "4T" ]
      [ ("a", [ 1.5; 20000.; 908. ]); ("bb", [ Float.nan; 0.25; 3. ]) ]
  in
  let buf = Buffer.create 128 in
  let ppf = Format.formatter_of_buffer buf in
  Obs.Report.render ppf t;
  Format.pp_print_flush ppf ();
  let s = Buffer.contents buf in
  Alcotest.(check bool) "title present" true (contains s "demo");
  Alcotest.(check bool) "labels present" true (contains s "bb");
  Alcotest.(check bool) "nan rendered as dash" true (contains s "-");
  Alcotest.(check bool) "fraction keeps its decimals" true (contains s "0.250");
  Alcotest.(check bool) "integer cells print as integers" true
    (contains s " 908\n" && contains s " 3\n" && not (contains s "908.0" || contains s "3.000"));
  check (Alcotest.float 0.) "cell lookup" 0.25 (Obs.Report.cell t "bb" "2T")

(* --- the record ---------------------------------------------------------- *)

let record_tables () =
  [
    Obs.Report.table "sweep" "cycles" [ "1T"; "2T"; "4T" ]
      [ ("a", [ 0x1p53; -17.; 0.1 ]); ("b", [ Float.nan; 1e300; -0.25 ]) ];
    Obs.Report.table "empty" "" [] [];
  ]

let test_record_round_trip () =
  let tables = record_tables () in
  let back =
    Obs.Report.(of_json (Obs.Json.of_string (Obs.Json.to_string (to_json tables))))
  in
  check Alcotest.int "tables" 2 (List.length back);
  List.iter2
    (fun (t : Obs.Report.table) (b : Obs.Report.table) ->
      check Alcotest.string "title" t.title b.title;
      check Alcotest.string "unit" t.unit_ b.unit_;
      check Alcotest.(list string) "columns" t.columns b.columns;
      List.iter2
        (fun (r : Obs.Report.row) (s : Obs.Report.row) ->
          check Alcotest.string "label" r.label s.label;
          Array.iteri
            (fun i v ->
              Alcotest.(check bool)
                (Printf.sprintf "%s cell %d exact" r.label i)
                true
                (Float.equal v s.cells.(i)))
            r.cells)
        t.rows b.rows)
    tables back;
  let text = Obs.Json.to_string (Obs.Report.to_json tables) in
  Alcotest.(check bool) "2^53 is an integer" true (contains text "9007199254740992,");
  Alcotest.(check bool) "negative integer" true (contains text "-17,");
  Alcotest.(check bool) "nan is null" true (contains text "null");
  Alcotest.(check bool) "non-table JSON refused" true
    (match Obs.Report.of_json (Obs.Json.Obj []) with
    | _ -> false
    | exception Failure _ -> true)

let test_record_diff () =
  let open Obs.Report in
  let diffs = Alcotest.(list (triple string string string)) in
  let golden = record_tables () in
  check diffs "equal records" [] (diff golden (record_tables ()));
  let edit f = List.map (fun t -> if t.title = "sweep" then f t else t) (record_tables ()) in
  let perturbed =
    edit (fun t ->
        let bump r = if r.label = "a" then { r with cells = [| 0x1p53; -16.; 0.1 |] } else r in
        { t with rows = List.map bump t.rows })
  in
  check diffs "one perturbed cell" [ ("sweep › a › 2T", "-17", "-16") ] (diff golden perturbed);
  check diffs "one missing row"
    [ ("sweep › a", "present", "absent") ]
    (diff golden (edit (fun t -> { t with rows = List.tl t.rows })));
  let added_column =
    edit (fun t ->
        let widen r = { r with cells = Array.append r.cells [| 3. |] } in
        { t with columns = t.columns @ [ "8T" ]; rows = List.map widen t.rows })
  in
  check diffs "one added column" [ ("sweep › 8T", "absent", "present") ] (diff golden added_column)

(* --- granularity sweep safety ------------------------------------------ *)

let bank_under_granularity spec_of_gran gran () =
  let heap = Memory.Heap.create ~words:(1 lsl 16) in
  let base = Memory.Heap.alloc heap 32 in
  for i = 0 to 31 do
    Memory.Heap.write heap (base + i) 100
  done;
  let e = Engines.make (spec_of_gran gran) heap in
  let body tid () =
    let rng = Runtime.Rng.for_thread ~seed:5 ~tid in
    for _ = 1 to 150 do
      let a = Runtime.Rng.int rng 32 in
      let b = (a + 1 + Runtime.Rng.int rng 31) mod 32 in
      Stm_intf.Engine.atomic e ~tid (fun tx ->
          tx.write (base + a) (tx.read (base + a) - 1);
          tx.write (base + b) (tx.read (base + b) + 1))
    done
  in
  ignore
    (Runtime.Sim.run ~cap_cycles:1_000_000_000_000
       (Array.init 4 (fun tid () -> body tid ())));
  let sum = ref 0 in
  for i = 0 to 31 do
    sum := !sum + Memory.Heap.read heap (base + i)
  done;
  check Alcotest.int
    (Printf.sprintf "conserved at granularity %d" gran)
    3200 !sum

let granularity_cases =
  List.concat_map
    (fun (ename, spec_of) ->
      List.map
        (fun g ->
          Alcotest.test_case
            (Printf.sprintf "%s gran=%d" ename g)
            `Quick
            (bank_under_granularity spec_of g))
        [ 1; 2; 8; 64 ])
    [
      ("swisstm", fun g -> Engines.with_granularity g Engines.swisstm);
      ("tl2", fun g -> Engines.with_granularity g Engines.tl2);
      ("tinystm", fun g -> Engines.with_granularity g Engines.tinystm);
      ("rstm", fun g -> Engines.with_granularity g Engines.rstm);
      ("mvstm", fun g -> Engines.with_granularity g Engines.mvstm);
    ]

(* --- open-system generators (PR 8) -------------------------------------- *)

(* Inter-arrival statistics of a generated stream. *)
let inter_stats (a : int array) =
  let n = Array.length a - 1 in
  let mean = ref 0. in
  for i = 1 to n do
    mean := !mean +. float_of_int (a.(i) - a.(i - 1))
  done;
  let mean = !mean /. float_of_int n in
  let var = ref 0. in
  for i = 1 to n do
    let d = float_of_int (a.(i) - a.(i - 1)) -. mean in
    var := !var +. (d *. d)
  done;
  (mean, !var /. float_of_int n)

let test_poisson_moments () =
  (* Exponential inter-arrivals at 1000/Mcycle: mean 1000 cycles and
     squared coefficient of variation 1. *)
  let a =
    Harness.Arrival.generate ~seed:9 ~until:5_000_000
      (Harness.Arrival.Poisson { per_mcycle = 1000. })
  in
  Alcotest.(check bool) "enough samples" true (Array.length a > 4000);
  let mean, var = inter_stats a in
  Alcotest.(check bool)
    (Printf.sprintf "mean ~ 1000 (got %.1f)" mean)
    true
    (abs_float (mean -. 1000.) < 50.);
  let cv2 = var /. (mean *. mean) in
  Alcotest.(check bool)
    (Printf.sprintf "cv^2 ~ 1 (got %.2f)" cv2)
    true
    (cv2 > 0.9 && cv2 < 1.1)

let test_onoff_burstier_than_poisson () =
  let p =
    Harness.Arrival.generate ~seed:9 ~until:5_000_000
      (Harness.Arrival.Poisson { per_mcycle = 1000. })
  and b =
    Harness.Arrival.generate ~seed:9 ~until:5_000_000
      (Harness.Arrival.Onoff
         { per_mcycle_on = 2000.; on_cycles = 50_000; off_cycles = 50_000 })
  in
  let pm, pv = inter_stats p and bm, bv = inter_stats b in
  let pcv2 = pv /. (pm *. pm) and bcv2 = bv /. (bm *. bm) in
  Alcotest.(check bool)
    (Printf.sprintf "on/off burstier (cv^2 %.2f vs poisson %.2f)" bcv2 pcv2)
    true (bcv2 > pcv2 +. 0.2);
  (* Same long-run rate (2000/Mcycle at 50 % duty = 1000/Mcycle): the
     burstiness comes from the phase structure, not from offering less. *)
  Alcotest.(check bool)
    (Printf.sprintf "on/off long-run rate ~ poisson (mean gap %.1f)" bm)
    true
    (bm > 800. && bm < 1200.)

let test_stages_ramp () =
  let a =
    Harness.Arrival.generate ~seed:4 ~until:200_000
      (Harness.Arrival.Stages
         [
           (100_000, Harness.Arrival.Poisson { per_mcycle = 500. });
           (200_000, Harness.Arrival.Poisson { per_mcycle = 4000. });
         ])
  in
  let lo = Array.fold_left (fun n t -> if t < 100_000 then n + 1 else n) 0 a in
  let hi = Array.length a - lo in
  Alcotest.(check bool)
    (Printf.sprintf "stage rates respected (%d then %d)" lo hi)
    true
    (lo > 20 && lo < 100 && hi > 280 && hi < 540);
  Alcotest.(check bool) "all before until" true
    (Array.for_all (fun t -> t < 200_000) a)

let test_zipf_rank_frequency () =
  (* Empirical log-log slope over the top ranks must track -theta. *)
  let theta = 0.8 in
  let z = Harness.Zipf.create ~seed:3 ~n:1000 ~theta () in
  let counts = Array.make 1000 0 in
  let samples = 200_000 in
  for _ = 1 to samples do
    let k = Harness.Zipf.next z in
    counts.(k) <- counts.(k) + 1
  done;
  Alcotest.(check bool) "hottest key is rank 0" true
    (Array.for_all (fun c -> c <= counts.(0)) counts);
  let xs = ref [] in
  for r = 0 to 49 do
    if counts.(r) > 0 then
      xs :=
        (log (float_of_int (r + 1)), log (float_of_int counts.(r))) :: !xs
  done;
  let pts = !xs in
  let n = float_of_int (List.length pts) in
  let mx = List.fold_left (fun s (x, _) -> s +. x) 0. pts /. n
  and my = List.fold_left (fun s (_, y) -> s +. y) 0. pts /. n in
  let num =
    List.fold_left (fun s (x, y) -> s +. ((x -. mx) *. (y -. my))) 0. pts
  and den =
    List.fold_left (fun s (x, _) -> s +. ((x -. mx) *. (x -. mx))) 0. pts
  in
  let slope = num /. den in
  Alcotest.(check bool)
    (Printf.sprintf "slope ~ -%.1f (got %.3f)" theta slope)
    true
    (abs_float (slope +. theta) < 0.1);
  (* The analytic mass agrees with the empirical mass on the hot keys. *)
  for r = 0 to 4 do
    let expected = Harness.Zipf.expected_freq z r in
    let got = float_of_int counts.(r) /. float_of_int samples in
    Alcotest.(check bool)
      (Printf.sprintf "rank %d mass %.4f ~ %.4f" r got expected)
      true
      (abs_float (got -. expected) < 0.25 *. expected)
  done

let test_equal_seeds_bit_identical () =
  let spec =
    Harness.Arrival.Onoff
      { per_mcycle_on = 1500.; on_cycles = 20_000; off_cycles = 30_000 }
  in
  let a = Harness.Arrival.generate ~stream:3 ~seed:21 ~until:1_000_000 spec
  and b = Harness.Arrival.generate ~stream:3 ~seed:21 ~until:1_000_000 spec in
  Alcotest.(check (array int)) "same (seed, stream) => same stream" a b;
  let za = Harness.Zipf.create ~stream:5 ~seed:21 ~n:512 ~theta:0.99 ()
  and zb = Harness.Zipf.create ~stream:5 ~seed:21 ~n:512 ~theta:0.99 () in
  for i = 1 to 256 do
    Alcotest.(check int)
      (Printf.sprintf "zipf draw %d" i)
      (Harness.Zipf.next za) (Harness.Zipf.next zb)
  done

let test_streams_decorrelated () =
  let spec = Harness.Arrival.Poisson { per_mcycle = 1000. } in
  let a = Harness.Arrival.generate ~stream:0 ~seed:21 ~until:1_000_000 spec
  and b = Harness.Arrival.generate ~stream:1 ~seed:21 ~until:1_000_000 spec in
  Alcotest.(check bool) "distinct streams differ" true (a <> b);
  (* Decorrelated, not merely shifted: few exact collisions. *)
  let in_b = Hashtbl.create 97 in
  Array.iter (fun t -> Hashtbl.replace in_b t ()) b;
  let coll =
    Array.fold_left (fun n t -> if Hashtbl.mem in_b t then n + 1 else n) 0 a
  in
  Alcotest.(check bool)
    (Printf.sprintf "few collisions (%d of %d)" coll (Array.length a))
    true
    (coll * 10 < Array.length a)

(* Frozen first arrivals / draws: any change to the generator algorithms or
   the Rng stream layout shows up here before it silently invalidates the
   service cells of the perf gate's golden. *)
let test_generator_goldens () =
  let a =
    Harness.Arrival.generate ~seed:7 ~until:10_000_000
      (Harness.Arrival.Poisson { per_mcycle = 1000. })
  in
  let prefix = Array.to_list (Array.sub a 0 8) in
  let z = Harness.Zipf.create ~seed:7 ~n:100 ~theta:0.99 () in
  let draws = List.init 8 (fun _ -> Harness.Zipf.next z) in
  Alcotest.(check (list int))
    "poisson golden prefix"
    [ 359; 3189; 5337; 6427; 6849; 7357; 8286; 9954 ]
    prefix;
  Alcotest.(check (list int)) "zipf golden draws"
    [ 2; 74; 55; 17; 2; 4; 12; 38 ]
    draws

let qcheck_arrival_props =
  QCheck.Test.make ~count:60 ~name:"arrivals monotone, bounded, deterministic"
    QCheck.(
      triple (int_bound 1_000_000) (int_range 1 50) (int_bound 2))
    (fun (seed, rate_c, stream) ->
      let spec =
        Harness.Arrival.Poisson { per_mcycle = float_of_int (rate_c * 100) }
      in
      let until = 500_000 in
      let a = Harness.Arrival.generate ~stream ~seed ~until spec in
      let b = Harness.Arrival.generate ~stream ~seed ~until spec in
      let mono = ref true in
      Array.iteri
        (fun i t ->
          if i > 0 && t < a.(i - 1) then mono := false;
          if t < 0 || t >= until then mono := false)
        a;
      !mono && a = b)

let qcheck_zipf_props =
  QCheck.Test.make ~count:60 ~name:"zipf draws in range, deterministic"
    QCheck.(triple (int_bound 1_000_000) (int_range 2 512) (int_bound 2))
    (fun (seed, n, stream) ->
      let z = Harness.Zipf.create ~stream ~seed ~n ~theta:0.9 () in
      let z' = Harness.Zipf.create ~stream ~seed ~n ~theta:0.9 () in
      let ok = ref true in
      for _ = 1 to 200 do
        let k = Harness.Zipf.next z in
        if k < 0 || k >= n then ok := false;
        if k <> Harness.Zipf.next z' then ok := false
      done;
      !ok)

let test_service_deterministic () =
  let cfg =
    {
      Harness.Service.default with
      threads = 4;
      users = 1_000;
      keys = 64;
      duration_cycles = 300_000;
      window_cycles = 100_000;
      arrivals = Harness.Arrival.Poisson { per_mcycle = 800. };
      seed = 11;
    }
  in
  let r1 = Harness.Service.run Engines.swisstm cfg in
  let r2 = Harness.Service.run Engines.swisstm cfg in
  let json (r : Harness.Service.result) = Obs.Json.to_string (Obs.Report.to_json r.windows) in
  Alcotest.(check bool) "windows reported" true (r1.windows <> []);
  Alcotest.(check string) "same config => bit-identical SLO windows" (json r1) (json r2);
  Alcotest.(check bool) "same config => same summary" true
    (r1.summary = r2.summary && r1.summary <> None);
  Alcotest.(check bool) "served everything" true
    (r1.Harness.Service.completed = r1.Harness.Service.offered
    && r1.Harness.Service.offered > 0);
  match r1.Harness.Service.summary with
  | None -> Alcotest.fail "summary missing"
  | Some s ->
      Alcotest.(check bool) "percentiles ordered" true
        (s.Obs.Slo.s_p50 <= s.Obs.Slo.s_p95
        && s.Obs.Slo.s_p95 <= s.Obs.Slo.s_p999
        && s.Obs.Slo.s_p999 <= s.Obs.Slo.s_max)

(* A session's state is one byte, so [run] refuses a browse length whose
   states do not fit, by name, and runs the longest one that does. *)
let test_service_browse_len_bound () =
  let cfg browse_len =
    {
      Harness.Service.default with
      threads = 2;
      users = 100;
      keys = 8;
      browse_len;
      duration_cycles = 100_000;
      window_cycles = 50_000;
      seed = 3;
    }
  in
  (match Harness.Service.run ~obs:false Engines.swisstm (cfg 255) with
  | _ -> Alcotest.fail "browse_len 255 accepted"
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        (Printf.sprintf "refusal names browse_len: %s" msg)
        true
        (String.starts_with ~prefix:"Service: browse_len" msg));
  let r = Harness.Service.run ~obs:false Engines.swisstm (cfg 254) in
  Alcotest.(check bool) "browse_len 254 runs" true
    (r.Harness.Service.offered > 0
    && r.Harness.Service.completed = r.Harness.Service.offered)

let suite =
  [
    ( "harness",
      [
        Alcotest.test_case "duration driver" `Quick test_run_for_duration_stops;
        Alcotest.test_case "fixed-work driver" `Quick test_run_fixed_work_drains;
        Alcotest.test_case "report rendering" `Quick test_report_rendering;
        Alcotest.test_case "record round trip" `Quick test_record_round_trip;
        Alcotest.test_case "record diff" `Quick test_record_diff;
      ] );
    ("granularity-safety", granularity_cases);
    ( "open-system-generators",
      [
        Alcotest.test_case "poisson mean/variance" `Quick test_poisson_moments;
        Alcotest.test_case "on/off burstiness" `Quick
          test_onoff_burstier_than_poisson;
        Alcotest.test_case "staged ramp" `Quick test_stages_ramp;
        Alcotest.test_case "zipf rank-frequency slope" `Quick
          test_zipf_rank_frequency;
        Alcotest.test_case "equal seeds bit-identical" `Quick
          test_equal_seeds_bit_identical;
        Alcotest.test_case "streams decorrelated" `Quick
          test_streams_decorrelated;
        Alcotest.test_case "generator goldens" `Quick test_generator_goldens;
        QCheck_alcotest.to_alcotest qcheck_arrival_props;
        QCheck_alcotest.to_alcotest qcheck_zipf_props;
        Alcotest.test_case "service run deterministic" `Quick
          test_service_deterministic;
        Alcotest.test_case "service browse_len bound" `Quick
          test_service_browse_len_bound;
      ] );
  ]

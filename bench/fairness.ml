(* Fairness ablation: operation-completion latency by operation class.

   Throughput hides starvation: an engine can post good numbers while its
   long transactions never finish (the paper's §1 criticism of timid
   schemes, and the property Greedy/two-phase restore).  This experiment
   measures the full latency — including all retries — of short vs long
   STMBench7 operations under each engine at 8 threads and reports mean
   and tail.  Expectation from the paper's analysis: encounter-time timid
   engines starve long transactions; SwissTM's two-phase manager bounds
   them. *)

open Bench_common

type bucket = { mutable count : int; mutable sum : int; mutable lat : int list }

let mk () = { count = 0; sum = 0; lat = [] }

let record b dt =
  b.count <- b.count + 1;
  b.sum <- b.sum + dt;
  b.lat <- dt :: b.lat

let percentile b p =
  match b.lat with
  | [] -> Float.nan
  | l ->
      let arr = Array.of_list l in
      Array.sort compare arr;
      let idx =
        min (Array.length arr - 1)
          (int_of_float (p *. float_of_int (Array.length arr)))
      in
      float_of_int arr.(idx)

let mean b = if b.count = 0 then Float.nan else float_of_int b.sum /. float_of_int b.count

let run_engine spec =
  let params = Stmbench7.Sb7_params.default in
  let model = Stmbench7.Sb7_model.build ~params () in
  let engine = Engines.make spec model.heap in
  let short = mk () and long = mk () in
  let rngs =
    Array.init Stm_intf.Stats.max_threads (fun tid ->
        Runtime.Rng.for_thread ~seed:params.seed ~tid)
  in
  let threads = 8 in
  let deadline = sb7_duration () * 2 in
  let body tid =
    let rng = rngs.(tid) in
    while Runtime.Exec.now () < deadline do
      let is_read = Runtime.Rng.float rng 1.0 < 0.6 in
      let t0 = Runtime.Exec.now () in
      let is_long =
        if is_read then begin
          let op = Stmbench7.Sb7_bench.pick Stmbench7.Sb7_bench.read_table rng in
          let state = Runtime.Rng.bits rng in
          Stm_intf.Engine.atomic engine ~tid (fun tx ->
              Stmbench7.Sb7_bench.run_read_op model ~tid tx (Runtime.Rng.create state) op);
          op = Stmbench7.Sb7_bench.Traversal_t1
        end
        else begin
          let op = Stmbench7.Sb7_bench.pick Stmbench7.Sb7_bench.write_table rng in
          let state = Runtime.Rng.bits rng in
          Stm_intf.Engine.atomic engine ~tid (fun tx ->
              Stmbench7.Sb7_bench.run_write_op model ~tid tx (Runtime.Rng.create state) op);
          op = Stmbench7.Sb7_bench.Traversal_t2
        end
      in
      let dt = Runtime.Exec.now () - t0 in
      record (if is_long then long else short) dt
    done
  in
  ignore
    (Runtime.Sim.run ~cap_cycles:1_000_000_000_000
       (Array.init threads (fun tid () -> body tid)));
  (short, long)

let run () =
  section "Ablation: fairness — operation latency by class (8 threads, sb7 rw)";
  Printf.printf "%-10s %10s %12s %12s %10s %14s %14s\n" "engine" "short-n"
    "short-mean" "short-p95" "long-n" "long-mean" "long-p95";
  List.iter
    (fun (name, spec) ->
      let short, long = run_engine spec in
      Printf.printf "%-10s %10d %12.0f %12.0f %10d %14.0f %14.0f\n%!" name
        short.count (mean short) (percentile short 0.95) long.count (mean long)
        (percentile long 0.95))
    [
      ("swisstm", swisstm);
      ("tinystm", tinystm);
      ("tl2", tl2);
      ("rstm", rstm_serializer);
    ];
  note "  (latencies in simulated cycles, retries included; long = full\n\
        \   T1/T2 traversals — the transactions timid schemes starve)"

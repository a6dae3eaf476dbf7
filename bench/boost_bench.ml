(* Boosted vs plain word-STM collections under contention (DESIGN.md §15).

   Each case runs the same contended update mix over one structure in its
   two modes — `boosted` (abstract locks + semantic undo through
   {!Txds.Boost.atomic}) and `word` (the word-transactional fallback path
   through {!Stm_intf.Engine.atomic}) — on the deterministic simulator,
   and reports the simulated makespan.  Fixed operation counts rather
   than fixed duration: the question is how many cycles the same semantic
   work costs, and a makespan diffs bit-for-bit across processes.

   The mixes are deliberately hostile to word-level conflict detection:

   - map: every operation is an add or remove on a handful of hot keys,
     so word mode keeps colliding on bucket-head words and aborting,
     while boosted mode at worst spins briefly on a bucket lock and
     never throws work away;
   - pqueue: the discrete-event shape — one consumer popping minima,
     producers inserting a rising key stream.  Word mode serializes
     completely (every insert and pop_min reads and writes the root
     pointer); boosted inserts land above the popper's watermark and
     proceed in parallel under the semantic min-lock.  A symmetric
     all-threads-pop mix would instead serialize on the min-lock itself —
     that is the documented anti-pattern (tx_pqueue.ml), not the gate;
   - list: the sorted-list walk makes every word-mode update conflict
     with readers of its prefix — the classic boosting motivation — but
     there is no boosted Tx_list, so it runs word-only as the
     degradation reference.

   Printed by `bench ablations` and gated by perf_gate, which requires
   boosted map/pqueue throughput >= word on this mix and holds the smoke
   tables in its golden. *)

type structure = Bmap | Bpq | Blist

(* Hot key range for the map mix: small enough that cross-thread
   collisions are the norm at every thread count. *)
let map_keys = 8

(* One case: (operations, simulated makespan). *)
let run_case ~ops_per_thread (structure, boosted) threads =
  let heap = Memory.Heap.create ~words:(1 lsl 20) in
  let engine = Engines.make Engines.swisstm heap in
  let inst =
    match structure with
    | Bmap -> `Map (Txds.Tx_map.create heap ~buckets:16)
    | Bpq ->
        let pq = Txds.Tx_pqueue.create heap in
        (* Backlogged event queue: enough committed work that the consumer
           drains history while the producers extend the frontier — the
           discrete-event steady state.  An empty queue would instead pin
           the consumer to the producers' in-flight nodes (tag waits,
           kills) and poison the watermark on pop-empty. *)
        for i = 1 to ops_per_thread + 64 do
          Txds.Tx_pqueue.Word.insert pq (Stm_intf.Engine.direct_ops heap)
            (i * 4) 0
        done;
        `Pq pq
    | Blist -> `List (Txds.Tx_list.create heap)
  in
  let body tid =
    let rng = Runtime.Rng.for_thread ~seed:97 ~tid in
    match inst with
    | `Map m ->
        fun () ->
          for i = 1 to ops_per_thread do
            let k = Runtime.Rng.int rng map_keys in
            if boosted then
              ignore
                (Txds.Boost.atomic engine ~tid (fun tx ->
                     if i land 1 = 0 then Txds.Tx_map.add m tx k tid
                     else Txds.Tx_map.remove m tx k)
                  : bool)
            else
              ignore
                (Stm_intf.Engine.atomic engine ~tid (fun ops ->
                     if i land 1 = 0 then Txds.Tx_map.Word.add m ops k tid
                     else Txds.Tx_map.Word.remove m ops k)
                  : bool)
          done
    | `Pq pq ->
        let pop () =
          if boosted then
            Txds.Boost.atomic engine ~tid (fun tx ->
                ignore (Txds.Tx_pqueue.pop_min pq tx : (int * int) option))
          else
            Stm_intf.Engine.atomic engine ~tid (fun ops ->
                ignore (Txds.Tx_pqueue.Word.pop_min pq ops : (int * int) option))
        and insert k =
          if boosted then
            Txds.Boost.atomic engine ~tid (fun tx ->
                Txds.Tx_pqueue.insert pq tx k tid)
          else
            Stm_intf.Engine.atomic engine ~tid (fun ops ->
                Txds.Tx_pqueue.Word.insert pq ops k tid)
        in
        fun () ->
          if tid = 0 && threads > 1 then
            (* the consumer: drains minima *)
            for _ = 1 to ops_per_thread do
              pop ()
            done
          else
            (* producers: monotone event-timestamp keys, so inserts stay
               above the consumer's watermark *)
            for i = 1 to ops_per_thread do
              if threads = 1 && i land 1 = 0 then pop ()
              else insert ((i * 8) + tid)
            done
    | `List l ->
        fun () ->
          for i = 1 to ops_per_thread do
            let k = Runtime.Rng.int rng 32 in
            Stm_intf.Engine.atomic engine ~tid (fun ops ->
                if i land 1 = 0 then ignore (Txds.Tx_list.insert ops l k k : bool)
                else ignore (Txds.Tx_list.remove ops l k : bool))
          done
  in
  let makespan =
    Runtime.Sim.run_threads ~cap_cycles:1_000_000_000_000 ~threads (fun tid ->
        body tid ())
  in
  (threads * ops_per_thread, makespan)

(* The list runs word-only, the degradation reference. *)
let cases =
  [
    ("map boosted", (Bmap, true));
    ("map word", (Bmap, false));
    ("pqueue boosted", (Bpq, true));
    ("pqueue word", (Bpq, false));
    ("list word", (Blist, false));
  ]

(* Gate predicate: on the contended update mix, boosted throughput must
   be >= word throughput (equivalently: makespan <=) for the map and the
   pqueue at every thread count above 1.  At 1 thread boosting's lock
   and undo bookkeeping may cost a few percent — uncontended overhead is
   expected and not gated. *)
let shape_checks t =
  List.concat_map
    (fun s ->
      List.map
        (fun n ->
          let makespan mode = Obs.Report.cell t (s ^ " " ^ mode) (Printf.sprintf "%dT" n) in
          (Printf.sprintf "%s_boosted_ahead_%dT" s n, makespan "boosted" <= makespan "word"))
        [ 2; 4; 8 ])
    [ "map"; "pqueue" ]

(* [ops_per_thread] scales wall time; makespans are deterministic for a
   given count. *)
let section =
  {
    Bench_common.title =
      "Ablation: boosted vs word-STM collections under contention (\u{00a7}15)";
    body =
      (fun ~smoke ->
        let tables =
          Bench_common.grid cases
            (run_case ~ops_per_thread:(if smoke then 500 else 2_000))
            [
              ("boosted vs word: simulated makespan", "cycles", fun (_, m) -> float_of_int m);
              (* simulated kilo-transactions per second at the 1 cycle =
                 1 ns scale the other simulated benches use *)
              ( "boosted vs word: throughput", "10^3 tx/s",
                fun (ops, m) -> float_of_int ops /. float_of_int m *. 1e6 );
              ("boosted vs word: operations", "ops", fun (ops, _) -> float_of_int ops);
            ]
        in
        (tables, shape_checks (List.hd tables)));
  }

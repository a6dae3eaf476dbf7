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

   Used by `bench ablations` (human-readable table) and by perf_gate,
   which gates boosted map/pqueue throughput >= word on this mix and
   holds the smoke makespans in its golden. *)

type row = {
  structure : string;
  mode : string;
  threads : int;
  total_ops : int;
  makespan : int;  (** simulated cycles; deterministic *)
}

let ktps r =
  (* simulated kilo-transactions per second at the 1 cycle = 1 ns scale
     the other simulated benches use *)
  float_of_int r.total_ops /. float_of_int r.makespan *. 1e6

type structure = Bmap | Bpq | Blist

let structure_name = function Bmap -> "map" | Bpq -> "pqueue" | Blist -> "list"

(* Hot key range for the map mix: small enough that cross-thread
   collisions are the norm at every thread count. *)
let map_keys = 8

let run_case ~structure ~boosted ~threads ~ops_per_thread =
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
  {
    structure = structure_name structure;
    mode = (if boosted then "boosted" else "word");
    threads;
    total_ops = threads * ops_per_thread;
    makespan;
  }

let thread_counts = [ 1; 2; 4; 8 ]

(** The full matrix.  [ops_per_thread] scales wall time; makespans are
    deterministic for a given count. *)
let matrix ?(ops_per_thread = 2_000) () =
  List.concat_map
    (fun structure ->
      List.concat_map
        (fun threads ->
          let modes =
            match structure with
            | Blist -> [ false ] (* word-only degradation reference *)
            | Bmap | Bpq -> [ true; false ]
          in
          List.map
            (fun boosted ->
              run_case ~structure ~boosted ~threads ~ops_per_thread)
            modes)
        thread_counts)
    [ Bmap; Bpq; Blist ]

let print_rows rows =
  Printf.printf "  %-8s %-8s %8s %10s %14s %12s\n" "struct" "mode" "threads"
    "ops" "makespan[cyc]" "ktps";
  List.iter
    (fun r ->
      Printf.printf "  %-8s %-8s %8d %10d %14d %12.1f\n" r.structure r.mode
        r.threads r.total_ops r.makespan (ktps r))
    rows

(* Gate predicate: on the contended update mix, boosted throughput must
   be >= word throughput (equivalently: makespan <=) for the map and the
   pqueue at every thread count above 1.  At 1 thread boosting's lock
   and undo bookkeeping may cost a few percent — uncontended overhead is
   expected and not gated. *)
let shape_checks rows =
  let find s m t =
    List.find_opt
      (fun r -> r.structure = s && r.mode = m && r.threads = t)
      rows
  in
  List.concat_map
    (fun s ->
      List.filter_map
        (fun t ->
          match (find s "boosted" t, find s "word" t) with
          | Some b, Some w ->
              Some
                ( Printf.sprintf "%s_boosted_ahead_%dT" s t,
                  b.makespan <= w.makespan )
          | _ -> None)
        (List.filter (fun t -> t > 1) thread_counts))
    [ "map"; "pqueue" ]

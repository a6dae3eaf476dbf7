(* STMBench7 port: structural invariants of the built model, operation
   correctness, and concurrent consistency. *)

let check = Alcotest.check

let small_params =
  {
    Stmbench7.Sb7_params.default with
    levels = 4;
    num_composites = 16;
    parts_per_composite = 8;
    doc_words = 16;
  }

let build () = Stmbench7.Sb7_model.build ~params:small_params ()

let direct heap =
  {
    Stm_intf.Engine.read = (fun a -> Memory.Heap.read heap a);
    write = (fun a v -> Memory.Heap.write heap a v);
    alloc = (fun n -> Memory.Heap.alloc heap n);
    free = (fun a n -> Memory.Heap.free heap a n);
  }

let test_build_counts () =
  let m = build () in
  check Alcotest.int "composite pool" 16 (Array.length m.composites);
  check Alcotest.int "base assemblies (fanout^(levels-1))" 27
    (Array.length m.base_assemblies);
  (* every composite holds the configured number of parts *)
  Array.iter
    (fun c ->
      check Alcotest.int "parts per composite" 8
        (Memory.Heap.read m.heap (c + Stmbench7.Sb7_model.cp_nparts)))
    m.composites

let test_build_index_complete () =
  let m = build () in
  let ops = direct m.heap in
  (* every atomic part id maps to a part whose id field matches *)
  for id = 1 to Stmbench7.Sb7_params.total_parts small_params do
    match Txds.Tx_hashmap.find m.part_index ops id with
    | None -> Alcotest.failf "part %d missing from index" id
    | Some addr ->
        check Alcotest.int "index id matches"
          id
          (Memory.Heap.read m.heap (addr + Stmbench7.Sb7_model.ap_id))
  done

let test_traversal_t1_visits_live_parts () =
  let m = build () in
  let engine = Engines.make Engines.swisstm m.heap in
  let visited =
    Stm_intf.Engine.atomic engine ~tid:0 (fun tx -> Stmbench7.Sb7_ops.traversal_t1 m ~tid:0 tx)
  in
  (* T1 walks the assembly hierarchy, so composites shared by several base
     assemblies are traversed once per reference (original behaviour): the
     count is bounded by references x parts-per-composite. *)
  let refs =
    Stmbench7.Sb7_params.num_base_assemblies small_params
    * small_params.comps_per_base
  in
  Alcotest.(check bool) "visits at least one composite of parts" true
    (visited >= small_params.parts_per_composite);
  Alcotest.(check bool) "bounded by total references" true
    (visited <= refs * small_params.parts_per_composite)

let test_update_part_swaps_coords () =
  let m = build () in
  let engine = Engines.make Engines.swisstm m.heap in
  (* Deterministic: find a known part and check the swap happened. *)
  let ops = direct m.heap in
  let addr = Option.get (Txds.Tx_hashmap.find m.part_index ops 1) in
  let x0 = Memory.Heap.read m.heap (addr + Stmbench7.Sb7_model.ap_x) in
  let y0 = Memory.Heap.read m.heap (addr + Stmbench7.Sb7_model.ap_y) in
  let applied = ref false in
  let attempts = ref 0 in
  while (not !applied) && !attempts < 500 do
    incr attempts;
    let rng = Runtime.Rng.create !attempts in
    if
      Stm_intf.Engine.atomic engine ~tid:0 (fun tx ->
          Stmbench7.Sb7_ops.update_part m tx rng)
    then
      (* the op picks a random part; loop until part 1 was the target *)
      applied :=
        Memory.Heap.read m.heap (addr + Stmbench7.Sb7_model.ap_x) = y0
        && Memory.Heap.read m.heap (addr + Stmbench7.Sb7_model.ap_y) = x0
  done;
  Alcotest.(check bool) "eventually swapped part 1" true !applied

let test_create_then_delete_part () =
  let m = build () in
  let engine = Engines.make Engines.swisstm m.heap in
  let count_live () =
    let n = ref 0 in
    Array.iter
      (fun c ->
        let nparts = Memory.Heap.read m.heap (c + Stmbench7.Sb7_model.cp_nparts) in
        for i = 0 to nparts - 1 do
          let p = Memory.Heap.read m.heap (c + Stmbench7.Sb7_model.cp_part + i) in
          if p <> 0 && Memory.Heap.read m.heap (p + Stmbench7.Sb7_model.ap_alive) = 1
          then incr n
        done)
      m.composites;
    !n
  in
  let before = count_live () in
  let rng = Runtime.Rng.create 5 in
  let created =
    Stm_intf.Engine.atomic engine ~tid:0 (fun tx ->
        Stmbench7.Sb7_ops.create_part m tx rng)
  in
  Alcotest.(check bool) "created" true created;
  check Alcotest.int "one more live part" (before + 1) (count_live ());
  let deleted = ref false in
  let tries = ref 0 in
  while (not !deleted) && !tries < 200 do
    incr tries;
    let rng = Runtime.Rng.create (1000 + !tries) in
    deleted :=
      Stm_intf.Engine.atomic engine ~tid:0 (fun tx ->
          Stmbench7.Sb7_ops.delete_part m tx rng)
  done;
  Alcotest.(check bool) "eventually deleted" true !deleted;
  check Alcotest.int "back to before" before (count_live ())

let test_concurrent_mixes_consistent () =
  List.iter
    (fun workload ->
      let m = Stmbench7.Sb7_model.build ~params:small_params () in
      let engine = Engines.make Engines.swisstm m.heap in
      let rngs =
        Array.init 8 (fun tid -> Runtime.Rng.for_thread ~seed:3 ~tid)
      in
      let body tid () =
        for _ = 1 to 60 do
          Stmbench7.Sb7_bench.operation m engine ~tid ~workload rngs.(tid)
        done
      in
      ignore
        (Runtime.Sim.run ~cap_cycles:1_000_000_000_000
           (Array.init 4 (fun tid () -> body tid ())));
      (* Structural consistency: every live part's connections point to
         parts of the structure (addresses within the heap, id > 0), and
         nparts never exceeds capacity. *)
      Array.iter
        (fun c ->
          let nparts = Memory.Heap.read m.heap (c + Stmbench7.Sb7_model.cp_nparts) in
          let cap = Memory.Heap.read m.heap (c + Stmbench7.Sb7_model.cp_cap) in
          Alcotest.(check bool) "nparts within capacity" true (nparts <= cap);
          for i = 0 to nparts - 1 do
            let p = Memory.Heap.read m.heap (c + Stmbench7.Sb7_model.cp_part + i) in
            if p <> 0 then begin
              let id = Memory.Heap.read m.heap (p + Stmbench7.Sb7_model.ap_id) in
              Alcotest.(check bool) "part id positive" true (id > 0)
            end
          done)
        m.composites)
    [
      Stmbench7.Sb7_bench.Read_dominated;
      Stmbench7.Sb7_bench.Read_write;
      Stmbench7.Sb7_bench.Write_dominated;
    ]

let test_workload_ratios () =
  check (Alcotest.float 0.001) "read-dominated" 0.9
    (Stmbench7.Sb7_bench.read_ratio Stmbench7.Sb7_bench.Read_dominated);
  check (Alcotest.float 0.001) "read-write" 0.6
    (Stmbench7.Sb7_bench.read_ratio Stmbench7.Sb7_bench.Read_write);
  check (Alcotest.float 0.001) "write-dominated" 0.1
    (Stmbench7.Sb7_bench.read_ratio Stmbench7.Sb7_bench.Write_dominated)

let suite =
  [
    ( "stmbench7",
      [
        Alcotest.test_case "build counts" `Quick test_build_counts;
        Alcotest.test_case "index complete" `Quick test_build_index_complete;
        Alcotest.test_case "T1 traversal" `Quick test_traversal_t1_visits_live_parts;
        Alcotest.test_case "update part" `Quick test_update_part_swaps_coords;
        Alcotest.test_case "create/delete part" `Quick test_create_then_delete_part;
        Alcotest.test_case "concurrent mixes" `Slow test_concurrent_mixes_consistent;
        Alcotest.test_case "workload ratios" `Quick test_workload_ratios;
      ] );
  ]

(* --- extended operation set ------------------------------------------- *)

let with_engine f =
  let m = build () in
  let e = Engines.make Engines.swisstm m.heap in
  f m e

let atomic e g = Stm_intf.Engine.atomic e ~tid:0 g

let test_extended_read_ops () =
  with_engine (fun m e ->
      let rng = Runtime.Rng.create 11 in
      let qc = atomic e (fun tx -> Stmbench7.Sb7_ops.query_composite m tx rng) in
      Alcotest.(check bool) "query_composite returns data" true (qc > 0);
      let sb = atomic e (fun tx -> Stmbench7.Sb7_ops.scan_base_assembly m tx rng) in
      Alcotest.(check bool) "scan_base_assembly sums dates" true (sb >= 0);
      let qa = atomic e (fun tx -> Stmbench7.Sb7_ops.query_assemblies m tx) in
      (* full assembly tree: 1 + 3 + 9 = 13 complex assemblies at levels=4 *)
      check Alcotest.int "assembly walk count" 13 qa;
      let qr =
        atomic e (fun tx -> Stmbench7.Sb7_ops.query_part_range m tx rng ~span:32)
      in
      check Alcotest.int "range query: fresh structure all live" 32 qr)

let test_extended_write_ops () =
  with_engine (fun m e ->
      let rng = Runtime.Rng.create 12 in
      let touched = atomic e (fun tx -> Stmbench7.Sb7_ops.update_dates m ~tid:0 tx rng) in
      Alcotest.(check bool) "update_dates touches parts" true (touched > 0);
      Alcotest.(check bool) "replace_document" true
        (atomic e (fun tx -> Stmbench7.Sb7_ops.replace_document m tx rng));
      Alcotest.(check bool) "create_connection" true
        (atomic e (fun tx -> Stmbench7.Sb7_ops.create_connection m tx rng));
      Alcotest.(check bool) "delete_connection" true
        (atomic e (fun tx -> Stmbench7.Sb7_ops.delete_connection m tx rng));
      Alcotest.(check bool) "swap_assembly_composite" true
        (atomic e (fun tx -> Stmbench7.Sb7_ops.swap_assembly_composite m tx rng)))

let test_connection_ops_preserve_traversability () =
  (* after many connection edits, every composite's ring keeps the DFS
     reachable and T1 still terminates *)
  with_engine (fun m e ->
      let rng = Runtime.Rng.create 13 in
      for _ = 1 to 200 do
        ignore (atomic e (fun tx -> Stmbench7.Sb7_ops.create_connection m tx rng) : bool);
        ignore (atomic e (fun tx -> Stmbench7.Sb7_ops.delete_connection m tx rng) : bool)
      done;
      let visited = atomic e (fun tx -> Stmbench7.Sb7_ops.traversal_t1 m ~tid:0 tx) in
      Alcotest.(check bool) "T1 still visits parts" true
        (visited >= small_params.parts_per_composite))

let suite =
  suite
  @ [
      ( "stmbench7-extended",
        [
          Alcotest.test_case "read ops" `Quick test_extended_read_ops;
          Alcotest.test_case "write ops" `Quick test_extended_write_ops;
          Alcotest.test_case "connection churn" `Quick
            test_connection_ops_preserve_traversability;
        ] );
    ]

(* --- visit oracle ---------------------------------------------------- *)

module M = Stmbench7.Sb7_model
module Ops = Stmbench7.Sb7_ops

(* Reference walk: the live parts reachable from [comp]'s first live
   slot through live parts' connections, by a Hashtbl DFS over direct
   reads, sorted. *)
let reachable (m : M.t) comp =
  let rd = (direct m.heap).read in
  let seen = Hashtbl.create 64 and live = ref [] in
  let rec go part =
    if part <> 0 && not (Hashtbl.mem seen part) then begin
      Hashtbl.add seen part ();
      if rd (part + M.ap_alive) = 1 then begin
        live := part :: !live;
        for c = 0 to m.params.conns_per_part - 1 do
          go (rd (part + M.ap_conn + (2 * c)))
        done
      end
    end
  in
  let n = rd (comp + M.cp_nparts) in
  let rec first i =
    if i >= n then 0
    else
      let a = rd (comp + M.cp_part + i) in
      if a <> 0 && rd (a + M.ap_alive) = 1 then a else first (i + 1)
  in
  go (first 0);
  List.sort compare !live

(* Every composite reference of every base assembly. *)
let composite_refs (m : M.t) =
  let rd = Memory.Heap.read m.heap in
  Array.to_list m.base_assemblies
  |> List.concat_map (fun b ->
         List.init (rd (b + M.ba_ncomp)) (fun i -> rd (b + M.ba_comp + i)))

let all_parts (m : M.t) =
  let rd = Memory.Heap.read m.heap in
  Array.to_list m.composites
  |> List.concat_map (fun c ->
         List.init (rd (c + M.cp_nparts)) (fun i -> rd (c + M.cp_part + i)))
  |> List.filter (fun p -> p <> 0)

(* Run [op] and return, sorted, every part whose [field] it changed, once
   per unit of change (a part bumped twice appears twice). *)
let bumped (m : M.t) field op =
  let rd = Memory.Heap.read m.heap in
  let parts = all_parts m in
  let before = List.map (fun p -> rd (p + field)) parts in
  let r = op () in
  let changed =
    List.concat
      (List.map2 (fun p v0 -> List.init (rd (p + field) - v0) (fun _ -> p)) parts before)
  in
  (r, List.sort compare changed)

(* The composite a DFS op seeded with [seed] walks: its first draw. *)
let composite_of (m : M.t) seed =
  m.composites.(Runtime.Rng.int (Runtime.Rng.create seed) (Array.length m.composites))

let parts = Alcotest.(list int)

let check_visits (m : M.t) ~tid label =
  let tx = direct m.heap in
  let rd = Memory.Heap.read m.heap in
  for seed = 1 to 24 do
    let comp = composite_of m seed in
    let live = reachable m comp in
    let sum_x = List.fold_left (fun acc p -> acc + rd (p + M.ap_x)) 0 live in
    check Alcotest.int
      (Printf.sprintf "%s: traverse_composite seed %d sums x over reachable" label seed)
      sum_x
      (Ops.traverse_composite m ~tid tx (Runtime.Rng.create seed));
    let n, bumped_x =
      bumped m M.ap_x (fun () -> Ops.update_composite m ~tid tx (Runtime.Rng.create seed))
    in
    check Alcotest.int (Printf.sprintf "%s: update_composite seed %d count" label seed)
      (List.length live) n;
    check parts (Printf.sprintf "%s: update_composite seed %d parts" label seed) live
      bumped_x;
    let n, bumped_date =
      bumped m M.ap_date (fun () -> Ops.update_dates m ~tid tx (Runtime.Rng.create seed))
    in
    check Alcotest.int (Printf.sprintf "%s: update_dates seed %d count" label seed)
      (List.length live) n;
    check parts (Printf.sprintf "%s: update_dates seed %d parts" label seed) live
      bumped_date
  done;
  (* T1/T2 walk each base-assembly reference, shared composites once per
     reference. *)
  let per_ref = List.concat_map (reachable m) (composite_refs m) in
  check Alcotest.int (label ^ ": T1 count") (List.length per_ref)
    (Ops.traversal_t1 m ~tid tx);
  let n, bumped_y = bumped m M.ap_y (fun () -> Ops.traversal_t2 m ~tid tx) in
  check Alcotest.int (label ^ ": T2 count") (List.length per_ref) n;
  check parts (label ^ ": T2 parts") (List.sort compare per_ref) bumped_y

let test_visit_oracle () =
  let m = build () in
  check_visits m ~tid:0 "fresh";
  (* structure churn: parts created and deleted, connections rewired *)
  let e = Engines.make Engines.swisstm m.heap in
  let rng = Runtime.Rng.create 21 in
  for _ = 1 to 150 do
    ignore (atomic e (fun tx -> Ops.create_part m tx rng) : bool);
    ignore (atomic e (fun tx -> Ops.delete_part m tx rng) : bool);
    ignore (atomic e (fun tx -> Ops.create_connection m tx rng) : bool);
    ignore (atomic e (fun tx -> Ops.delete_connection m tx rng) : bool)
  done;
  check_visits m ~tid:0 "after churn";
  check_visits m ~tid:5 "after churn, another tid"

(* The set itself: membership within a walk, emptiness after [start],
   and growth far past the initial 64 slots. *)
let test_visited_set () =
  let module V = Stmbench7.Sb7_visited in
  let s = V.create () in
  let addrs = List.init 1000 (fun i -> 7 + (11 * i)) in
  for walk = 1 to 3 do
    V.start s;
    List.iter
      (fun a ->
        Alcotest.(check bool) (Printf.sprintf "walk %d: %d is new" walk a) true (V.add s a))
      addrs;
    List.iter
      (fun a ->
        Alcotest.(check bool) (Printf.sprintf "walk %d: %d seen" walk a) false (V.add s a))
      addrs
  done

(* --- interleaving and allocation ------------------------------------- *)

(* Simulated threads switch at every transactional read, in the middle
   of a walk; each must still count exactly what a lone walk counts. *)
let test_t1_interleaved policy () =
  let m = build () in
  let expected = Ops.traversal_t1 m ~tid:0 (direct m.heap) in
  let e = Engines.make Engines.swisstm m.heap in
  let got = Array.make 8 [] in
  ignore
    (Runtime.Sim.run ~policy
       (Array.init 8 (fun tid () ->
            for _ = 1 to 2 do
              got.(tid) <-
                Stm_intf.Engine.atomic e ~tid (fun tx -> Ops.traversal_t1 m ~tid tx)
                :: got.(tid)
            done)));
  Array.iteri
    (fun tid counts ->
      check Alcotest.(list int) (Printf.sprintf "thread %d counts" tid)
        [ expected; expected ] counts)
    got

let test_t1_native () =
  let m = build () in
  let expected = Ops.traversal_t1 m ~tid:0 (direct m.heap) in
  let e = Engines.make Engines.swisstm m.heap in
  let domains =
    Array.init 2 (fun tid ->
        Domain.spawn (fun () ->
            Runtime.Exec.set_native_tid tid;
            List.init 20 (fun _ ->
                Stm_intf.Engine.atomic e ~tid (fun tx -> Ops.traversal_t1 m ~tid tx))))
  in
  Array.iteri
    (fun tid d ->
      check Alcotest.(list int) (Printf.sprintf "domain %d counts" tid)
        (List.init 20 (fun _ -> expected))
        (Domain.join d))
    domains

(* A warm walk allocates no visited set: T1's words are its few closures,
   a fraction of a word per composite walk. *)
let test_t1_words () =
  let m = build () in
  let tx = direct m.heap in
  ignore (Ops.traversal_t1 m ~tid:0 tx : int);
  let walks = List.length (composite_refs m) in
  let runs = 100 in
  let w0 = Gc.minor_words () in
  for _ = 1 to runs do
    ignore (Ops.traversal_t1 m ~tid:0 tx : int)
  done;
  let per_walk = (Gc.minor_words () -. w0) /. float_of_int (runs * walks) in
  Alcotest.(check bool)
    (Printf.sprintf "T1: %.2f minor words per composite walk <= 1" per_walk)
    true (per_walk <= 1.)

let suite =
  suite
  @ [
      ( "stmbench7-visits",
        [
          Alcotest.test_case "visit oracle" `Quick test_visit_oracle;
          Alcotest.test_case "visited set" `Quick test_visited_set;
          Alcotest.test_case "T1 interleaved, random" `Quick
            (test_t1_interleaved (Runtime.Sim.random_policy 7));
          Alcotest.test_case "T1 interleaved, pct" `Quick
            (test_t1_interleaved (Runtime.Sim.pct_policy 7));
          Alcotest.test_case "T1 on 2 domains" `Quick test_t1_native;
          Alcotest.test_case "T1 allocation" `Quick test_t1_words;
        ] );
    ]

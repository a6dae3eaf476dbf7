(* STMBench7 workload mixes and runner (paper §4, Figure 2).

   The original defines three mixes by the fraction of read-only
   operations: read-dominated 90 %, read-write 60 %, write-dominated 10 %.
   Within each class the weights below follow the original's distribution
   spirit: short operations dominate; long traversals are rare but heavy. *)

type workload = Read_dominated | Read_write | Write_dominated

let workload_name = function
  | Read_dominated -> "read"
  | Read_write -> "read-write"
  | Write_dominated -> "write"

let read_ratio = function
  | Read_dominated -> 0.9
  | Read_write -> 0.6
  | Write_dominated -> 0.1

(* Weighted op tables; weights need not sum to 1 within a class.  [total]
   is their left-to-right sum, taken once when the table is built. *)
type 'a weighted = { weights : float array; ops : 'a array; total : float }

let weighted (table : (float * 'a) array) =
  {
    weights = Array.map fst table;
    ops = Array.map snd table;
    total = Array.fold_left (fun acc (w, _) -> acc +. w) 0. table;
  }

(* The first op whose cumulative weight exceeds a uniform draw below the
   total (the last op if rounding leaves none). *)
let pick t rng =
  let x = Runtime.Rng.float rng t.total in
  let last = Array.length t.ops - 1 in
  let i = ref 0 and acc = ref 0. in
  while !i < last && not (x < !acc +. t.weights.(!i)) do
    acc := !acc +. t.weights.(!i);
    incr i
  done;
  t.ops.(!i)

type read_op =
  | Query_part
  | Query_composite
  | Scan_base_assembly
  | Scan_document
  | Query_assemblies
  | Query_part_range
  | Traverse_composite
  | Traversal_t1

type write_op =
  | Update_part
  | Update_document
  | Update_composite
  | Update_dates
  | Replace_document
  | Traversal_t2
  | Create_part
  | Delete_part
  | Create_connection
  | Delete_connection
  | Swap_assembly_composite

(* Long traversals carry more weight than their op count suggests: the
   original STMBench7's traversal class is ~10 of 45 operations and
   dominates execution time; these weights keep long transactions a
   first-class part of the mix at simulator scale. *)
let read_table : read_op weighted =
  weighted
  [|
    (26., Query_part);
    (6., Query_composite);
    (4., Scan_base_assembly);
    (14., Scan_document);
    (4., Query_assemblies);
    (5., Query_part_range);
    (32., Traverse_composite);
    (5., Traversal_t1);
  |]

let write_table : write_op weighted =
  weighted
  [|
    (30., Update_part);
    (14., Update_document);
    (16., Update_composite);
    (8., Update_dates);
    (6., Replace_document);
    (7., Traversal_t2);
    (5., Create_part);
    (5., Delete_part);
    (4., Create_connection);
    (3., Delete_connection);
    (1., Swap_assembly_composite);
  |]

let run_read_op model ~tid tx rng = function
  | Query_part -> ignore (Sb7_ops.query_part model tx rng : int)
  | Query_composite -> ignore (Sb7_ops.query_composite model tx rng : int)
  | Scan_base_assembly -> ignore (Sb7_ops.scan_base_assembly model tx rng : int)
  | Scan_document -> ignore (Sb7_ops.scan_document model tx rng : int)
  | Query_assemblies -> ignore (Sb7_ops.query_assemblies model tx : int)
  | Query_part_range ->
      ignore (Sb7_ops.query_part_range model tx rng ~span:32 : int)
  | Traverse_composite -> ignore (Sb7_ops.traverse_composite model ~tid tx rng : int)
  | Traversal_t1 -> ignore (Sb7_ops.traversal_t1 model ~tid tx : int)

let run_write_op model ~tid tx rng = function
  | Update_part -> ignore (Sb7_ops.update_part model tx rng : bool)
  | Update_document -> ignore (Sb7_ops.update_document model tx rng : bool)
  | Update_composite -> ignore (Sb7_ops.update_composite model ~tid tx rng : int)
  | Update_dates -> ignore (Sb7_ops.update_dates model ~tid tx rng : int)
  | Replace_document -> ignore (Sb7_ops.replace_document model tx rng : bool)
  | Traversal_t2 -> ignore (Sb7_ops.traversal_t2 model ~tid tx : int)
  | Create_part -> ignore (Sb7_ops.create_part model tx rng : bool)
  | Delete_part -> ignore (Sb7_ops.delete_part model tx rng : bool)
  | Create_connection -> ignore (Sb7_ops.create_connection model tx rng : bool)
  | Delete_connection -> ignore (Sb7_ops.delete_connection model tx rng : bool)
  | Swap_assembly_composite ->
      ignore (Sb7_ops.swap_assembly_composite model tx rng : bool)

(** One benchmark operation: draws the class from the workload's read
    ratio, then the operation from the class table.  The whole operation is
    one transaction, as in the original benchmark.

    The operation and its random parameters are chosen from [choice_rng]
    *outside* the transaction (so an aborted transaction retries the same
    operation — STMBench7 semantics), while in-transaction randomness uses
    a per-attempt copy. *)
let operation model engine ~tid ~workload rng =
  let is_read = Runtime.Rng.float rng 1.0 < read_ratio workload in
  if is_read then begin
    let op = pick read_table rng in
    let state = Runtime.Rng.bits rng in
    Stm_intf.Engine.atomic engine ~tid (fun tx ->
        run_read_op model ~tid tx (Runtime.Rng.create state) op)
  end
  else begin
    let op = pick write_table rng in
    let state = Runtime.Rng.bits rng in
    Stm_intf.Engine.atomic engine ~tid (fun tx ->
        run_write_op model ~tid tx (Runtime.Rng.create state) op)
  end

(** Build the structure, run [threads] simulated threads for
    [duration_cycles], and return the workload result. *)
let run ?(params = Sb7_params.default) ~spec ~workload ~threads ~duration_cycles
    () =
  let model = Sb7_model.build ~params () in
  let engine = Engines.make spec model.heap in
  let rngs =
    Array.init Stm_intf.Stats.max_threads (fun tid ->
        Runtime.Rng.for_thread ~seed:params.seed ~tid)
  in
  Harness.Workload.run_for_duration engine ~threads ~duration_cycles
    (fun ~tid ~op:_ -> operation model engine ~tid ~workload rngs.(tid))

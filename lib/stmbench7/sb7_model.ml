(* STMBench7 heap object layouts and construction.

   Object kinds (heap layouts, all word offsets):

   Complex assembly : [id; level; child_0 .. child_{fanout-1}]
   Base assembly    : [id; ncomp; comp_0 .. comp_{k-1}]        (shared refs)
   Composite part   : [id; build_date; doc; nparts; cap; part_0 .. part_{cap-1}]
   Atomic part      : [id; x; y; build_date; alive; conn_0 .. ]  where each
                      connection is a pair [to_part; length]
   Document         : [id; size; w_0 .. w_{size-1}]

   The module root points at the top complex assembly.  Two id indexes
   (atomic parts, composite parts) are transactional hash maps, as in the
   original benchmark's B-tree/hash indexes. *)

type t = {
  params : Sb7_params.t;
  heap : Memory.Heap.t;
  root : int;  (** top complex assembly *)
  composites : int array;  (** composite-part pool (heap addresses) *)
  base_assemblies : int array;
  part_index : Txds.Tx_hashmap.t;  (** atomic part id -> address *)
  comp_index : Txds.Tx_hashmap.t;  (** composite id -> address *)
  mutable next_part_id : Runtime.Tmatomic.t;
  visited : Sb7_visited.t Runtime.Tid_table.t;
      (** per-tid visited sets of the part-graph walks ([Sb7_ops]); each is
          built on its thread's first walk, so [build] pays the slot array *)
}

(* -- complex assembly -- *)
let ca_id = 0
let ca_level = 1
let ca_child = 2

(* -- base assembly -- *)
let ba_id = 0
let ba_ncomp = 1
let ba_comp = 2

(* -- composite part -- *)
let cp_id = 0
let cp_date = 1
let cp_doc = 2
let cp_nparts = 3
let cp_cap = 4
let cp_part = 5

(* -- atomic part -- *)
let ap_id = 0
let ap_x = 1
let ap_y = 2
let ap_date = 3
let ap_alive = 4
let ap_conn = 5
let ap_words p = ap_conn + (2 * p.Sb7_params.conns_per_part)

(* -- document -- *)
let doc_id = 0
let doc_size = 1
let doc_word = 2

let heap_words p =
  let open Sb7_params in
  let parts =
    p.num_composites
    * (p.parts_per_composite + p.part_capacity_slack)
    * ap_words p
  in
  let comps = p.num_composites * (cp_part + p.parts_per_composite + p.part_capacity_slack) in
  let docs = p.num_composites * (doc_word + p.doc_words) in
  let assemblies = 4 * num_base_assemblies p * (ba_comp + p.comps_per_base + 8) in
  let index = (2 * p.index_buckets) + (8 * Txds.Tx_hashmap.node_words * total_parts p) in
  (4 * (parts + comps + docs + assemblies + index)) + (1 lsl 18)

(** Build the whole structure non-transactionally (setup time). *)
let build ?(params = Sb7_params.default) () =
  let p = params in
  let heap = Memory.Heap.create ~words:(heap_words p) in
  let rng = Runtime.Rng.create p.seed in
  let wr = Memory.Heap.write heap in
  let part_index = Txds.Tx_hashmap.create heap ~buckets:p.index_buckets in
  let comp_index = Txds.Tx_hashmap.create heap ~buckets:(p.index_buckets / 4) in
  (* Setup-time (quiescent) hash map insertion: reuse the transactional code
     via a trivial direct-access ops record. *)
  let direct_ops =
    {
      Stm_intf.Engine.read = (fun a -> Memory.Heap.read heap a);
      write = (fun a v -> Memory.Heap.write heap a v);
      alloc = (fun n -> Memory.Heap.alloc heap n);
      free = (fun a n -> Memory.Heap.free heap a n);
    }
  in
  let next_part_id = ref 1 in
  let make_document id =
    let d = Memory.Heap.alloc heap (doc_word + p.doc_words) in
    wr (d + doc_id) id;
    wr (d + doc_size) p.doc_words;
    for i = 0 to p.doc_words - 1 do
      wr (d + doc_word + i) (Runtime.Rng.int rng 256)
    done;
    d
  in
  let make_atomic_part () =
    let id = !next_part_id in
    incr next_part_id;
    let a = Memory.Heap.alloc heap (ap_words p) in
    wr (a + ap_id) id;
    wr (a + ap_x) (Runtime.Rng.int rng 10_000);
    wr (a + ap_y) (Runtime.Rng.int rng 10_000);
    wr (a + ap_date) (Runtime.Rng.int rng 10_000);
    wr (a + ap_alive) 1;
    ignore (Txds.Tx_hashmap.add part_index direct_ops id a : bool);
    a
  in
  let make_composite cid =
    let cap = p.parts_per_composite + p.part_capacity_slack in
    let c = Memory.Heap.alloc heap (cp_part + cap) in
    wr (c + cp_id) cid;
    wr (c + cp_date) (Runtime.Rng.int rng 10_000);
    wr (c + cp_doc) (make_document cid);
    wr (c + cp_nparts) p.parts_per_composite;
    wr (c + cp_cap) cap;
    let parts = Array.init p.parts_per_composite (fun _ -> make_atomic_part ()) in
    Array.iteri (fun i a -> wr (c + cp_part + i) a) parts;
    (* Connect each part to [conns_per_part] random parts of the same
       composite (a connected-ish random graph, as in the original). *)
    Array.iteri
      (fun i a ->
        for cidx = 0 to p.conns_per_part - 1 do
          let target =
            if cidx = 0 then parts.((i + 1) mod Array.length parts) (* ring: connected *)
            else parts.(Runtime.Rng.int rng (Array.length parts))
          in
          wr (a + ap_conn + (2 * cidx)) target;
          wr (a + ap_conn + (2 * cidx) + 1) (1 + Runtime.Rng.int rng 99)
        done)
      parts;
    ignore (Txds.Tx_hashmap.add comp_index direct_ops cid c : bool);
    c
  in
  let composites = Array.init p.num_composites (fun i -> make_composite (i + 1)) in
  let bases = ref [] in
  let next_assembly_id = ref 1 in
  let rec make_assembly level =
    let id = !next_assembly_id in
    incr next_assembly_id;
    if level = p.levels then begin
      (* base assembly *)
      let b = Memory.Heap.alloc heap (ba_comp + p.comps_per_base) in
      wr (b + ba_id) id;
      wr (b + ba_ncomp) p.comps_per_base;
      for i = 0 to p.comps_per_base - 1 do
        wr (b + ba_comp + i) composites.(Runtime.Rng.int rng p.num_composites)
      done;
      bases := b :: !bases;
      b
    end
    else begin
      let c = Memory.Heap.alloc heap (ca_child + p.fanout) in
      wr (c + ca_id) id;
      wr (c + ca_level) level;
      for i = 0 to p.fanout - 1 do
        wr (c + ca_child + i) (make_assembly (level + 1))
      done;
      c
    end
  in
  let root = make_assembly 1 in
  {
    params = p;
    heap;
    root;
    composites;
    base_assemblies = Array.of_list !bases;
    part_index;
    comp_index;
    next_part_id = Runtime.Tmatomic.make !next_part_id;
    visited = Sb7_visited.table ();
  }

(* STMBench7 operations.

   A representative subset of the original's 45 operations, preserving its
   four classes (short/long × read-only/update) and their access patterns.
   The mapping to original operation names is noted on each function. *)

open Stm_intf.Engine
open Sb7_model

let work n = Runtime.Exec.tick ((Runtime.Costs.get ()).work * n)

(* --- graph helpers ----------------------------------------------------- *)

(* DFS from [part] through live parts' connections, calling [visit] once
   per live part.  [set] holds the parts met so far in this walk, dead ones
   included.  [dfs_go] and [dfs_first] are top level over explicit
   arguments, so a walk allocates no closure. *)
let rec dfs_go tx set conns visit part =
  if part <> 0 && Sb7_visited.add set part then
    if read tx (part + ap_alive) = 1 then begin
      visit part;
      for c = 0 to conns - 1 do
        dfs_go tx set conns visit (read tx (part + ap_conn + (2 * c)))
      done
    end

(* The first live slot of [comp] from slot [i], or 0. *)
let rec dfs_first tx comp n i =
  if i >= n then 0
  else
    let a = read tx (comp + cp_part + i) in
    if a <> 0 && read tx (a + ap_alive) = 1 then a else dfs_first tx comp n (i + 1)

(* DFS over one composite's atomic-part graph from its first live slot
   (which reaches the ring); calls [visit] once per live part.  The
   visited set is keyed by part address and emptied at the start of each
   composite walk.  It is [tid]'s own, taken from [model.visited]: a set
   shared by threads would be emptied or filled by another walk in the
   middle of this one, since simulated threads share one domain and can
   switch at every transactional read, and native threads run at once.
   The set is host bookkeeping, as the C benchmark's is: it charges no
   cycles, and the walk's reads, writes and ticks are the same in number
   and order as with any other set. *)
let dfs_composite model ~tid tx comp visit =
  let set = Runtime.Tid_table.get model.visited tid in
  Sb7_visited.start set;
  let n = read tx (comp + cp_nparts) in
  dfs_go tx set model.params.conns_per_part visit (dfs_first tx comp n 0)

(* Iterate over every composite reachable from the assembly root. *)
let iter_reachable_composites model tx visit =
  let p = model.params in
  let rec go asm level =
    if level = p.levels then begin
      let n = read tx (asm + ba_ncomp) in
      for i = 0 to n - 1 do
        visit (read tx (asm + ba_comp + i))
      done
    end
    else
      for i = 0 to p.fanout - 1 do
        go (read tx (asm + ca_child + i)) (level + 1)
      done
  in
  go model.root 1

(* --- short read-only operations ---------------------------------------- *)

(** ST1/Q1: look a random atomic part up by id and read it and its
    neighbours' coordinates. *)
let query_part model tx rng =
  let id = 1 + Runtime.Rng.int rng (Sb7_params.total_parts model.params) in
  let part = Txds.Tx_hashmap.lookup model.part_index tx id in
  if part = 0 then 0
  else
    let acc = ref (read tx (part + ap_x) + read tx (part + ap_y)) in
    for c = 0 to model.params.conns_per_part - 1 do
      let n = read tx (part + ap_conn + (2 * c)) in
      if n <> 0 then acc := !acc + read tx (n + ap_x)
    done;
    work 10;
    !acc

(** ST4/Q4: find a composite by id and scan its document for a byte value
    (the original's "document contains" text search). *)
let scan_document model tx rng =
  let cid = 1 + Runtime.Rng.int rng model.params.num_composites in
  let comp = Txds.Tx_hashmap.lookup model.comp_index tx cid in
  if comp = 0 then 0
  else
    let d = read tx (comp + cp_doc) in
    let size = read tx (d + doc_size) in
    let needle = Runtime.Rng.int rng 256 in
    let hits = ref 0 in
    for i = 0 to size - 1 do
      if read tx (d + doc_word + i) = needle then incr hits;
      work 1
    done;
    !hits

(** T6-ish medium traversal: DFS one random composite's part graph,
    summing coordinates. *)
let traverse_composite model ~tid tx rng =
  let comp = model.composites.(Runtime.Rng.int rng (Array.length model.composites)) in
  let acc = ref 0 in
  dfs_composite model ~tid tx comp (fun part ->
      acc := !acc + read tx (part + ap_x);
      work 2);
  !acc

(* --- long read-only operation ------------------------------------------ *)

(** T1: full hierarchy traversal touching every reachable atomic part. *)
let traversal_t1 model ~tid tx =
  let count = ref 0 in
  let visit part =
    ignore (read tx (part + ap_x) : int);
    incr count;
    work 1
  in
  iter_reachable_composites model tx (fun comp ->
      dfs_composite model ~tid tx comp visit);
  !count

(* --- short update operations ------------------------------------------- *)

(** OP7-ish: update the coordinates of one random atomic part (swap x/y,
    bump the build date — the original's op15/op9 flavour). *)
let update_part model tx rng =
  let id = 1 + Runtime.Rng.int rng (Sb7_params.total_parts model.params) in
  let part = Txds.Tx_hashmap.lookup model.part_index tx id in
  if part = 0 then false
  else
    let x = read tx (part + ap_x) and y = read tx (part + ap_y) in
    write tx (part + ap_x) y;
    write tx (part + ap_y) x;
    write tx (part + ap_date) (read tx (part + ap_date) + 1);
    work 8;
    true

(** OP brand: overwrite one random word of one random document. *)
let update_document model tx rng =
  let cid = 1 + Runtime.Rng.int rng model.params.num_composites in
  let comp = Txds.Tx_hashmap.lookup model.comp_index tx cid in
  if comp = 0 then false
  else
    let d = read tx (comp + cp_doc) in
    let size = read tx (d + doc_size) in
    write tx (d + doc_word + Runtime.Rng.int rng size) (Runtime.Rng.int rng 256);
    work 4;
    true

(* --- medium update operation ------------------------------------------- *)

(** T2a on one composite: update every part of a random composite. *)
let update_composite model ~tid tx rng =
  let comp = model.composites.(Runtime.Rng.int rng (Array.length model.composites)) in
  let count = ref 0 in
  dfs_composite model ~tid tx comp (fun part ->
      write tx (part + ap_x) (read tx (part + ap_x) + 1);
      incr count;
      work 2);
  !count

(* --- long update operation ---------------------------------------------- *)

(** T2b: full traversal updating every reachable atomic part — the paper's
    archetypal long update transaction. *)
let traversal_t2 model ~tid tx =
  let count = ref 0 in
  let visit part =
    write tx (part + ap_y) (read tx (part + ap_y) + 1);
    incr count;
    work 1
  in
  iter_reachable_composites model tx (fun comp ->
      dfs_composite model ~tid tx comp visit);
  !count

(* --- structure modifications -------------------------------------------- *)

(** SM1: create an atomic part inside a random composite (allocate, wire
    [conns_per_part] connections to existing parts, register in the id
    index).  Fails (benignly) when the composite is at capacity. *)
let create_part model tx rng =
  let p = model.params in
  let comp = model.composites.(Runtime.Rng.int rng (Array.length model.composites)) in
  let n = read tx (comp + cp_nparts) in
  let cap = read tx (comp + cp_cap) in
  if n >= cap then false
  else begin
    let id = Runtime.Tmatomic.incr_get model.next_part_id in
    let part = alloc tx (ap_words p) in
    write tx (part + ap_id) id;
    write tx (part + ap_x) (Runtime.Rng.int rng 10_000);
    write tx (part + ap_y) (Runtime.Rng.int rng 10_000);
    write tx (part + ap_date) 0;
    write tx (part + ap_alive) 1;
    for c = 0 to p.conns_per_part - 1 do
      let tgt = read tx (comp + cp_part + Runtime.Rng.int rng n) in
      write tx (part + ap_conn + (2 * c)) tgt;
      write tx (part + ap_conn + (2 * c) + 1) (1 + Runtime.Rng.int rng 99)
    done;
    write tx (comp + cp_part + n) part;
    write tx (comp + cp_nparts) (n + 1);
    ignore (Txds.Tx_hashmap.add model.part_index tx id part : bool);
    work 20;
    true
  end

(** SM2: delete a random atomic part: mark it dead and unregister it.
    Connections pointing at it are skipped by traversals (alive flag),
    mirroring the original's lazy disconnection. *)
let delete_part model tx rng =
  let id = 1 + Runtime.Rng.int rng (Sb7_params.total_parts model.params) in
  let part = Txds.Tx_hashmap.lookup model.part_index tx id in
  if part = 0 || read tx (part + ap_alive) = 0 then false
  else begin
    write tx (part + ap_alive) 0;
    ignore (Txds.Tx_hashmap.remove model.part_index tx id : bool);
    work 12;
    true
  end

(* ======================================================================
   Extended operation set.

   The original STMBench7 defines 45 operations across short traversals
   (ST), queries (Q), long traversals (T), structure modifications (SM)
   and special operations (OP).  The functions above cover the core of
   each class; the ones below widen the coverage so the mix exercises
   every access-pattern family of the original. *)

(** ST2: fetch a composite by id and read its header fields. *)
let query_composite model tx rng =
  let cid = 1 + Runtime.Rng.int rng model.params.num_composites in
  let comp = Txds.Tx_hashmap.lookup model.comp_index tx cid in
  if comp = 0 then 0
  else
    let date = read tx (comp + cp_date) in
    let n = read tx (comp + cp_nparts) in
    work 6;
    date + n

(** ST3: scan one random base assembly's composite headers. *)
let scan_base_assembly model tx rng =
  let b =
    model.base_assemblies.(Runtime.Rng.int rng (Array.length model.base_assemblies))
  in
  let n = read tx (b + ba_ncomp) in
  let acc = ref 0 in
  for i = 0 to n - 1 do
    let comp = read tx (b + ba_comp + i) in
    acc := !acc + read tx (comp + cp_date);
    work 3
  done;
  !acc

(** Q6: walk the assembly hierarchy without descending into parts. *)
let query_assemblies model tx =
  let p = model.params in
  let count = ref 0 in
  let rec go asm level =
    incr count;
    ignore (read tx (asm + ca_id) : int);
    work 2;
    if level < p.levels - 1 then
      for i = 0 to p.fanout - 1 do
        go (read tx (asm + ca_child + i)) (level + 1)
      done
  in
  go model.root 1;
  !count

(** Q7: range query over the part-id index — counts live parts with id in
    [lo, lo + span).  A medium read-only transaction over index buckets. *)
let query_part_range model tx rng ~span =
  let total = Sb7_params.total_parts model.params in
  let lo = 1 + Runtime.Rng.int rng (max 1 (total - span)) in
  let hits = ref 0 in
  for id = lo to lo + span - 1 do
    let part = Txds.Tx_hashmap.lookup model.part_index tx id in
    if part <> 0 && read tx (part + ap_alive) = 1 then incr hits
  done;
  work span;
  !hits

(** T3: bump the build date of one composite and all its live parts (the
    original's date-index maintenance traversal, medium update). *)
let update_dates model ~tid tx rng =
  let comp = model.composites.(Runtime.Rng.int rng (Array.length model.composites)) in
  write tx (comp + cp_date) (read tx (comp + cp_date) + 1);
  let count = ref 0 in
  dfs_composite model ~tid tx comp (fun part ->
      write tx (part + ap_date) (read tx (part + ap_date) + 1);
      incr count;
      work 2);
  !count

(** T5: replace a document's whole text (medium update). *)
let replace_document model tx rng =
  let cid = 1 + Runtime.Rng.int rng model.params.num_composites in
  let comp = Txds.Tx_hashmap.lookup model.comp_index tx cid in
  if comp = 0 then false
  else
    let d = read tx (comp + cp_doc) in
    let size = read tx (d + doc_size) in
    for i = 0 to size - 1 do
      write tx (d + doc_word + i) (Runtime.Rng.int rng 256);
      work 1
    done;
    true

(** SM3: create a connection between two random live parts of a random
    composite (overwrites one of the source's connection slots). *)
let create_connection model tx rng =
  let p = model.params in
  let comp = model.composites.(Runtime.Rng.int rng (Array.length model.composites)) in
  let n = read tx (comp + cp_nparts) in
  if n < 2 then false
  else begin
    let src = read tx (comp + cp_part + Runtime.Rng.int rng n) in
    let dst = read tx (comp + cp_part + Runtime.Rng.int rng n) in
    if src = 0 || dst = 0 || src = dst then false
    else begin
      let slot = Runtime.Rng.int rng p.conns_per_part in
      write tx (src + ap_conn + (2 * slot)) dst;
      write tx (src + ap_conn + (2 * slot) + 1) (1 + Runtime.Rng.int rng 99);
      work 8;
      true
    end
  end

(** SM4: sever a random connection (sets the slot's target to null;
    traversals skip null targets). *)
let delete_connection model tx rng =
  let p = model.params in
  let comp = model.composites.(Runtime.Rng.int rng (Array.length model.composites)) in
  let n = read tx (comp + cp_nparts) in
  if n = 0 then false
  else begin
    let src = read tx (comp + cp_part + Runtime.Rng.int rng n) in
    if src = 0 then false
    else begin
      (* keep slot 0 (the connectivity ring) intact so composites stay
         traversable, as the original preserves graph connectivity *)
      let slot = 1 + Runtime.Rng.int rng (max 1 (p.conns_per_part - 1)) in
      write tx (src + ap_conn + (2 * slot)) 0;
      work 6;
      true
    end
  end

(** SM5: rebind one of a base assembly's composite references to a random
    pool composite (the original's assembly-level structure change). *)
let swap_assembly_composite model tx rng =
  let b =
    model.base_assemblies.(Runtime.Rng.int rng (Array.length model.base_assemblies))
  in
  let n = read tx (b + ba_ncomp) in
  if n = 0 then false
  else begin
    let slot = Runtime.Rng.int rng n in
    let fresh =
      model.composites.(Runtime.Rng.int rng (Array.length model.composites))
    in
    write tx (b + ba_comp + slot) fresh;
    work 6;
    true
  end

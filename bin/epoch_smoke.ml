(* Memory-subsystem smoke (DESIGN.md §12), native use-after-reclaim
   check: a writer domain repeatedly privatizes a tagged block
   (republish the handle, [Heap.free] the old block) while a reader
   domain transactionally follows the handle and checks the block's tag
   is uniform.  Freeing without a grace period would let the allocator
   recycle the block and the writer's non-transactional re-init scribble
   over a snapshot a reader still holds — transactional validation cannot
   catch those writes (this is exactly the privatization problem).  With
   [Memory.Epoch] armed there must be zero mixed-tag observations, the
   global epoch must actually advance, freed blocks must actually be
   deferred, and a final drain must empty limbo. *)

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let gauge name =
  match List.assoc_opt name (Obs.Metrics.gauge_values ()) with
  | Some v -> v
  | None -> die "gauge %S not registered" name

let block_words = 8
let pubs = 2_000

let epoch_check () =
  let heap = Memory.Heap.create ~words:(1 lsl 16) in
  let spec = Engines.with_table_bits 12 Engines.swisstm in
  let engine = Engines.make spec heap in
  let handle = Memory.Heap.alloc heap 1 in
  let init_block tag =
    let b = Memory.Heap.alloc heap block_words in
    for i = 0 to block_words - 1 do
      Memory.Heap.write heap (b + i) tag
    done;
    b
  in
  Memory.Heap.write heap handle (init_block 1);
  Memory.Heap.guard_on := true;
  Memory.Epoch.arm ();
  let adv0 = Memory.Epoch.advances () in
  let def0 = Memory.Epoch.deferred () in
  let mixed = Atomic.make 0 in
  let writer =
    Domain.spawn (fun () ->
        Runtime.Exec.set_native_tid 0;
        Memory.Epoch.online ~tid:0;
        for tag = 2 to pubs + 1 do
          let fresh = init_block tag in
          let old =
            Stm_intf.Engine.atomic engine ~tid:0 (fun tx ->
                let o = tx.Stm_intf.Engine.read handle in
                tx.Stm_intf.Engine.write handle fresh;
                o)
          in
          Memory.Heap.free heap old block_words
        done;
        Memory.Epoch.offline ~tid:0)
  in
  let reader =
    Domain.spawn (fun () ->
        Runtime.Exec.set_native_tid 1;
        Memory.Epoch.online ~tid:1;
        for _ = 1 to 4 * pubs do
          let uniform =
            Stm_intf.Engine.atomic engine ~tid:1 (fun tx ->
                let b = tx.Stm_intf.Engine.read handle in
                let t0 = tx.Stm_intf.Engine.read b in
                let ok = ref true in
                for i = 1 to block_words - 1 do
                  if tx.Stm_intf.Engine.read (b + i) <> t0 then ok := false
                done;
                !ok)
          in
          if not uniform then Atomic.incr mixed
        done;
        Memory.Epoch.offline ~tid:1)
  in
  Domain.join writer;
  Domain.join reader;
  Memory.Epoch.disarm ();
  let advances = Memory.Epoch.advances () - adv0 in
  if Atomic.get mixed > 0 then
    die "epoch smoke FAIL: %d mixed-tag (use-after-reclaim) observations"
      (Atomic.get mixed);
  if advances = 0 then die "epoch smoke FAIL: global epoch never advanced";
  if Memory.Epoch.deferred () = def0 then
    die "epoch smoke FAIL: no block was deferred to limbo";
  if Memory.Epoch.limbo_depth () <> 0 then
    die "epoch smoke FAIL: %d blocks left in limbo after drain"
      (Memory.Epoch.limbo_depth ());
  if gauge "heap_double_frees" > 0 then
    die "epoch smoke FAIL: %d double frees" (gauge "heap_double_frees");
  Printf.printf
    "epoch smoke ok: %d publications, 0 mixed-tag reads, %d epoch \
     advances, %d deferred = %d reclaimed\n%!"
    pubs advances
    (Memory.Epoch.deferred ())
    (Memory.Epoch.reclaimed ())

let () =
  match Sys.argv with
  | [| _ |] | [| _; "epoch" |] -> epoch_check ()
  | _ -> die "usage: epoch_smoke [epoch]"

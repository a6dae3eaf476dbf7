(* Boosted transactional priority queue: a skew heap with a semantic
   min-lock (DESIGN.md §15).

   Physical shape: heap nodes [key; value; left; right; tag] hanging off a
   root-pointer word; melds are the classic skew-heap child-swapping
   merge.  A brief *structural* spinlock protects the shape during one
   operation and is never held across an abort point; it is not part of
   conflict detection.

   Semantic conflict detection is asymmetric, which is the whole point:

   - [pop_min] acquires the structure's single abstract *min-lock* (held
     to commit) and maintains a session *watermark* — the largest key it
     has popped so far ([max_int] once it has observed emptiness, reset on
     each fresh acquisition).
   - [insert k] conflicts with an in-flight popper only when [k] is below
     the watermark (the popper's results could have included [k]); inserts
     above the watermark — the common case for workloads that pop small
     keys and insert larger ones, e.g. discrete-event loops — proceed in
     parallel with poppers and with each other, where word-level STM
     serializes every insert against every pop on the root.

   Uncommitted inserts are visible in the tree (melds are eager), so nodes
   carry a tag word: [tid+1] until the inserting transaction commits, 0
   after.  A popper whose minimum is a foreign uncommitted node waits
   boundedly, then escalates through the CM (kill, then self-retry).

   Inserts are *buffered*: each producer melds into a private sub-heap
   (its slot of [subs], guarded by a per-slot brief lock), so concurrent
   producers share no cache line at all — a single structural lock would
   otherwise convoy them on coherence traffic even though their melds
   never logically conflict.  A popper drains the sub-heaps into the main
   tree inside its critical section, atomically with min-selection and
   the watermark update, and the conflict check lives in the drain: a
   slot whose minimum is below the session watermark stays buffered, and
   its inserters linearize after the whole session (they provably overlap
   it — the session's first drain runs with watermark [min_int] and takes
   everything).  Producers therefore never wait on a popping session and
   never touch the structural lock; only the session holder's own inserts
   go straight to the main tree, preserving its sequential semantics.

   Inverses: insert is undone by deleting the node by address (melding its
   children into its place); pop is undone by re-melding the popped node
   with zeroed children (its former children were melded into the tree at
   pop time and stay there).  Pop's free of the node is deferred to
   commit.

   The [Word] submodule drives the same layout through the engine's
   word-transactional ops for composition; as with every boosted
   structure, one mode per structure instance per concurrent phase. *)

let f_key = 0
let f_val = 1
let f_left = 2
let f_right = 3
let f_tag = 4
let node_words = 5

(* Producer sub-heap slots: enough that typical thread counts map
   injectively (tid land (sub_slots - 1)); sharing a slot is only a
   performance loss, never a correctness one. *)
let sub_slots = 8

type t = {
  root : int;  (** heap word holding the root node address (0 = empty) *)
  subs : int;  (** base of [sub_slots] heap words: per-slot sub-heap roots *)
  sublocks : Runtime.Tmatomic.t array;  (** brief lock per sub-heap slot *)
  minlock : Boost.table;  (** single-slot abstract lock for pop_min *)
  slock : Runtime.Tmatomic.t;  (** brief structural lock (main tree) *)
  mutable watermark : int;
      (** largest key popped by the current min-lock holder; only
          meaningful while the min-lock is held (reset on fresh acquire) *)
}

let create heap =
  let root = Memory.Heap.alloc heap 1 in
  Memory.Heap.write heap root 0;
  let subs = Memory.Heap.alloc heap sub_slots in
  for s = 0 to sub_slots - 1 do
    Memory.Heap.write heap (subs + s) 0
  done;
  {
    root;
    subs;
    sublocks = Array.init sub_slots (fun _ -> Runtime.Tmatomic.make 0);
    minlock = Boost.make_table ~slots:1;
    slock = Runtime.Tmatomic.make 0;
    watermark = min_int;
  }

let slot_of_tid tid = tid land (sub_slots - 1)

(* Skew-heap meld with direct (charged) heap access; caller holds the
   structural lock. *)
let rec meld tx a b =
  if a = 0 then b
  else if b = 0 then a
  else
    let ka = Boost.hread tx (a + f_key) in
    let kb = Boost.hread tx (b + f_key) in
    let top, rest = if ka <= kb then (a, b) else (b, a) in
    let l = Boost.hread tx (top + f_left) in
    let r = Boost.hread tx (top + f_right) in
    Boost.hwrite tx (top + f_right) l;
    Boost.hwrite tx (top + f_left) (meld tx r rest);
    top

(* Unlink [node] (found by address) from the tree hanging off [link] and
   meld its children into its place; caller holds the lock covering that
   tree.  Returns [true] if found. *)
let delete_from tx link node =
  let rec go link =
    let cur = Boost.hread tx link in
    if cur = 0 then false
    else if cur = node then begin
      let repl =
        meld tx (Boost.hread tx (cur + f_left)) (Boost.hread tx (cur + f_right))
      in
      Boost.hwrite tx link repl;
      true
    end
    else go (cur + f_left) || go (cur + f_right)
  in
  go link

(* Remove our [node] from its slot (slot lock held briefly) or, when a
   drain already moved it, from the main tree.  Caller holds the main
   structural lock — main before sub is the global lock order, and
   holding main across both searches closes the mid-transfer window
   where a draining popper has the node in neither tree. *)
let delete_anywhere_locked tx t node =
  let s = slot_of_tid tx.Boost.tid in
  Boost.lock_brief t.sublocks.(s) ~tid:tx.Boost.tid;
  let in_sub = delete_from tx (t.subs + s) node in
  Boost.unlock_brief t.sublocks.(s);
  in_sub || delete_from tx t.root node

(* Meld sub-heaps into the main tree; the popper runs this inside its
   critical section so drain, min-selection and watermark update are one
   atomic step.  The conflict check lives HERE, not in [insert]: a slot
   whose minimum (its sub-root key — a skew heap keeps its min at the
   root) is below the session watermark is left buffered.  That is
   serializable: the session's first drain runs with w = min_int and
   takes everything, so a skipped node was necessarily published by a
   transaction overlapping this session, and an overlapping insert may
   linearize after the whole session — the session simply never saw it.
   Every melded slot has all keys >= w, so no past answer of the session
   is invalidated and the watermark can never pass a visible key.

   The empty-slot probe is a plain heap read — the slot lock is only
   taken when there is something to take.  Caller holds the main
   structural lock (main before sub, the global order). *)
let drain_subs_locked tx t =
  for s = 0 to sub_slots - 1 do
    if Boost.hread tx (t.subs + s) <> 0 then begin
      Boost.lock_brief t.sublocks.(s) ~tid:tx.Boost.tid;
      let r = Boost.hread tx (t.subs + s) in
      if r <> 0 && Boost.hread tx (r + f_key) >= t.watermark then begin
        Boost.hwrite tx (t.subs + s) 0;
        Boost.hwrite tx t.root (meld tx (Boost.hread tx t.root) r)
      end;
      Boost.unlock_brief t.sublocks.(s)
    end
  done

(* Acquire the min-lock if we do not hold it yet; a fresh acquisition
   starts a new popping session, so the watermark resets. *)
let acquire_min tx t =
  if not (Boost.holds tx t.minlock 0) then begin
    Boost.acquire tx t.minlock 0;
    Boost.lock_brief t.slock ~tid:tx.tid;
    t.watermark <- min_int;
    Boost.unlock_brief t.slock
  end

(** [insert t tx k v] adds the binding (duplicates allowed — multiset). *)
let insert t tx k v =
  Boost.op_entry tx;
  let node = Boost.halloc tx node_words in
  Boost.hwrite tx (node + f_key) k;
  Boost.hwrite tx (node + f_val) v;
  Boost.hwrite tx (node + f_left) 0;
  Boost.hwrite tx (node + f_right) 0;
  Boost.hwrite tx (node + f_tag) (tx.tid + 1);
  let melded = ref false in
  (* The undo must free the node even when a Retry fires between the
     allocation and the meld, so it is logged before the meld attempt. *)
  Boost.log_undo tx (fun () ->
      if !melded then begin
        Boost.lock_brief t.slock ~tid:tx.tid;
        ignore (delete_anywhere_locked tx t node : bool);
        Boost.unlock_brief t.slock
      end;
      Memory.Heap.free tx.heap node node_words);
  (if Boost.owner_of t.minlock 0 = tx.tid then begin
     (* We ARE the popping session: meld straight into the main tree
        under the structural lock, so our own later pops see the node
        even below our own watermark (sequential semantics within one
        transaction).  This also keeps every sub-heap slot free of the
        session holder's nodes, so the drain skip rule never has to
        split a slot between own and foreign nodes. *)
     Boost.lock_brief t.slock ~tid:tx.tid;
     Boost.hwrite tx t.root (meld tx (Boost.hread tx t.root) node);
     melded := true;
     Boost.unlock_brief t.slock
   end
   else begin
     (* Buffered publish: meld into our private slot — no shared line
        with the other producers, and none with a popper either until it
        drains.  No conflict check and no waiting: an in-flight popping
        session whose watermark already passed [k] simply leaves this
        slot buffered (see [drain_subs_locked]) and this transaction
        linearizes after it. *)
     let s = slot_of_tid tx.tid in
     Boost.lock_brief t.sublocks.(s) ~tid:tx.tid;
     Boost.hwrite tx (t.subs + s)
       (meld tx (Boost.hread tx (t.subs + s)) node);
     melded := true;
     Boost.unlock_brief t.sublocks.(s)
   end);
  Boost.on_commit tx (fun () -> Memory.Heap.write tx.heap (node + f_tag) 0)

(** [pop_min t tx] removes and returns the smallest binding, if any. *)
let pop_min t tx =
  Boost.op_entry tx;
  acquire_min tx t;
  let rec attempt spins =
    Boost.lock_brief t.slock ~tid:tx.tid;
    (* Drain inside the critical section: buffered inserts become visible
       atomically with the selection and watermark update below, which is
       what makes the insert fast path's post-publish check exact. *)
    drain_subs_locked tx t;
    let node = Boost.hread tx t.root in
    if node = 0 then begin
      (* Observed emptiness: every later insert conflicts. *)
      t.watermark <- max_int;
      Boost.unlock_brief t.slock;
      None
    end
    else
      let tag = Boost.hread tx (node + f_tag) in
      if tag <> 0 && tag <> tx.tid + 1 then begin
        (* The minimum is a foreign uncommitted insert: its fate decides
           our answer, so wait it out (bounded, then kill, then retry). *)
        Boost.unlock_brief t.slock;
        attempt (Boost.wait_step tx ~owner:(tag - 1) spins)
      end
      else begin
        let k = Boost.hread tx (node + f_key) in
        let v = Boost.hread tx (node + f_val) in
        let l = Boost.hread tx (node + f_left) in
        let r = Boost.hread tx (node + f_right) in
        Boost.hwrite tx t.root (meld tx l r);
        if k > t.watermark then t.watermark <- k;
        Boost.unlock_brief t.slock;
        Boost.log_undo tx (fun () ->
            Boost.lock_brief t.slock ~tid:tx.tid;
            Boost.hwrite tx (node + f_left) 0;
            Boost.hwrite tx (node + f_right) 0;
            Boost.hwrite tx t.root (meld tx (Boost.hread tx t.root) node);
            Boost.unlock_brief t.slock);
        Boost.defer_free tx node node_words;
        Some (k, v)
      end
  in
  attempt 0

(* --- word-transactional fallback (composition) -------------------------- *)

module Word = struct
  open Stm_intf.Engine

  let rec meld ops a b =
    if a = 0 then b
    else if b = 0 then a
    else
      let ka = read ops (a + f_key) in
      let kb = read ops (b + f_key) in
      let top, rest = if ka <= kb then (a, b) else (b, a) in
      let l = read ops (top + f_left) in
      let r = read ops (top + f_right) in
      write ops (top + f_right) l;
      write ops (top + f_left) (meld ops r rest);
      top

  let insert t ops k v =
    let node = alloc ops node_words in
    write ops (node + f_key) k;
    write ops (node + f_val) v;
    write ops (node + f_left) 0;
    write ops (node + f_right) 0;
    write ops (node + f_tag) 0;
    write ops t.root (meld ops (read ops t.root) node)

  (* Fold any boosted-phase sub-heap leftovers into the main tree so a
     word phase following a boosted phase sees every element.  In a
     word-only instance this costs [sub_slots] reads of zero words. *)
  let drain_subs t ops =
    for s = 0 to sub_slots - 1 do
      let r = read ops (t.subs + s) in
      if r <> 0 then begin
        write ops (t.subs + s) 0;
        write ops t.root (meld ops (read ops t.root) r)
      end
    done

  let pop_min t ops =
    drain_subs t ops;
    let node = read ops t.root in
    if node = 0 then None
    else begin
      let k = read ops (node + f_key) in
      let v = read ops (node + f_val) in
      write ops t.root
        (meld ops (read ops (node + f_left)) (read ops (node + f_right)));
      free ops node node_words;
      Some (k, v)
    end
end

(* --- quiescent verification --------------------------------------------- *)

let to_sorted_list_quiescent t heap =
  let rec go node acc =
    if node = 0 then acc
    else
      go
        (Memory.Heap.read heap (node + f_left))
        (go
           (Memory.Heap.read heap (node + f_right))
           ((Memory.Heap.read heap (node + f_key),
             Memory.Heap.read heap (node + f_val))
           :: acc))
  in
  let acc = ref (go (Memory.Heap.read heap t.root) []) in
  for s = 0 to sub_slots - 1 do
    acc := go (Memory.Heap.read heap (t.subs + s)) !acc
  done;
  List.sort compare !acc

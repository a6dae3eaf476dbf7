(* Transactional chained hash map over the word heap.

   Used as STMBench7's id indexes, vacation's relation tables and genome's
   segment table.  Buckets are heap words holding the head of a singly
   linked list of nodes [key; value; next].

   The bucket count is fixed at creation (power of two); there is no
   resizing — the C benchmarks size their tables up front the same way. *)

open Stm_intf.Engine

let f_key = 0
let f_val = 1
let f_next = 2
let node_words = 3

type t = { buckets : int; base : int }

(** Non-transactional allocation of an empty table (setup time). *)
let create heap ~buckets =
  if buckets <= 0 || buckets land (buckets - 1) <> 0 then
    invalid_arg "Tx_hashmap.create: buckets must be a power of two";
  let base = Memory.Heap.alloc heap buckets in
  for i = 0 to buckets - 1 do
    Memory.Heap.write heap (base + i) 0
  done;
  { buckets; base }

(* Knuth multiplicative hash; keys are arbitrary ints. *)
let slot t k = (k * 0x9E3779B1) lsr 11 land (t.buckets - 1)

let bucket_addr t k = t.base + slot t k

let rec find_node tx node k =
  if node = 0 then 0
  else if read tx (node + f_key) = k then node
  else find_node tx (read tx (node + f_next)) k

(** [find t tx k] returns the value bound to [k], if any. *)
let find t tx k =
  let n = find_node tx (read tx (bucket_addr t k)) k in
  if n = 0 then None else Some (read tx (n + f_val))

(** [lookup t tx k] is the value bound to [k], or 0 if none: [find]
    without the option, for maps whose values are never 0. *)
let lookup t tx k =
  let n = find_node tx (read tx (bucket_addr t k)) k in
  if n = 0 then 0 else read tx (n + f_val)

let mem t tx k = find_node tx (read tx (bucket_addr t k)) k <> 0

(** [add t tx k v] inserts or updates; returns [true] if [k] was new. *)
let add t tx k v =
  let b = bucket_addr t k in
  let head = read tx b in
  let n = find_node tx head k in
  if n <> 0 then begin
    write tx (n + f_val) v;
    false
  end
  else begin
    let node = alloc tx node_words in
    write tx (node + f_key) k;
    write tx (node + f_val) v;
    write tx (node + f_next) head;
    write tx b node;
    true
  end

(** [remove t tx k] unlinks [k]'s node; returns [true] if present. *)
let remove t tx k =
  let b = bucket_addr t k in
  let rec go prev node =
    if node = 0 then false
    else if read tx (node + f_key) = k then begin
      let next = read tx (node + f_next) in
      (if prev = 0 then write tx b next else write tx (prev + f_next) next);
      free tx node node_words;
      true
    end
    else go node (read tx (node + f_next))
  in
  go 0 (read tx b)

(** Fold over all bindings (transactional; reads every bucket). *)
let fold t tx f init =
  let acc = ref init in
  for i = 0 to t.buckets - 1 do
    let rec go node =
      if node <> 0 then begin
        acc := f !acc (read tx (node + f_key)) (read tx (node + f_val));
        go (read tx (node + f_next))
      end
    in
    go (read tx (t.base + i))
  done;
  !acc

(** Number of bindings (transactional full scan). *)
let cardinal t tx = fold t tx (fun n _ _ -> n + 1) 0

(* Non-transactional iteration for test verification (quiescent only). *)
let bindings_quiescent t heap =
  let out = ref [] in
  for i = 0 to t.buckets - 1 do
    let rec go node =
      if node <> 0 then begin
        out :=
          (Memory.Heap.read heap (node + f_key), Memory.Heap.read heap (node + f_val))
          :: !out;
        go (Memory.Heap.read heap (node + f_next))
      end
    in
    go (Memory.Heap.read heap (t.base + i))
  done;
  !out

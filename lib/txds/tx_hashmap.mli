(** Transactional chained hash map over the word heap (int keys/values).

    Fixed power-of-two bucket count, no resizing — C benchmarks size their
    tables up front the same way. *)

type t

val node_words : int

val create : Memory.Heap.t -> buckets:int -> t
(** Non-transactional allocation (setup time). *)

val slot : t -> int -> int
(** Bucket index of a key; exposed so {!Tx_map}'s abstract-lock table
    (sized like the bucket array) agrees on slot assignment. *)

val bucket_addr : t -> int -> int
(** Heap address of a key's bucket head word. *)

val find : t -> Stm_intf.Engine.tx_ops -> int -> int option

val lookup : t -> Stm_intf.Engine.tx_ops -> int -> int
(** [lookup t tx k] is [k]'s value, or 0 if [k] is absent: the reads of
    {!find} without its [Some], for maps whose values are never 0 (heap
    addresses). *)

val mem : t -> Stm_intf.Engine.tx_ops -> int -> bool

val add : t -> Stm_intf.Engine.tx_ops -> int -> int -> bool
(** Insert or update; [true] iff the key was new. *)

val remove : t -> Stm_intf.Engine.tx_ops -> int -> bool

val fold : t -> Stm_intf.Engine.tx_ops -> ('a -> int -> int -> 'a) -> 'a -> 'a
(** Full transactional scan. *)

val cardinal : t -> Stm_intf.Engine.tx_ops -> int

val bindings_quiescent : t -> Memory.Heap.t -> (int * int) list
(** Non-transactional dump for verification (quiescent state only). *)

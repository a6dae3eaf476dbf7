(** Allocation-free read/ownership set: an insertion-ordered (key, value)
    journal over one unboxed [int array], with an optional open-addressing
    key index for O(1) dedup, generation-stamped O(1) wholesale {!clear},
    and a word-sized bloom filter that rejects most {!mem} misses without
    probing.  One set per descriptor field, reused across transactions —
    no allocation on append, lookup, or clear.

    A given value is used in exactly one mode: {e journal mode}
    ({!push}/{!truncate}; duplicates allowed; the index stays empty) or
    {e index mode} ({!add_unique}/{!mem}; duplicates rejected).  Mixing
    modes on one value desynchronizes journal and index.

    {!push}, {!length}, {!key} and {!value} are marked [[@inline]]: an
    engine's per-read append and validation walk compile to the journal's
    loads and stores. *)

type t

val create : ?bits:int -> unit -> t
(** [create ~bits ()] sizes the index at [2^bits] slots and the journal at
    [2^bits] pairs (default 64 each). *)

val length : t -> int
(** Live journal pairs. *)

val is_empty : t -> bool

val clear : t -> unit
(** Drop every entry: one generation bump, O(1), no rehash, no zeroing. *)

val push : t -> int -> int -> unit
(** [push t k v] appends a pair to the journal (journal mode: no dedup,
    the index is not updated). *)

val key : t -> int -> int
(** [key t i] is the key of the [i]th journal pair, unchecked; [i] must be
    below {!length}. *)

val value : t -> int -> int
(** [value t i] is the value of the [i]th journal pair, unchecked. *)

val truncate : t -> int -> unit
(** Keep the first [n] journal pairs (closed-nesting partial rollback).
    Journal mode only: the index is not rewound. *)

val iter : (int -> int -> unit) -> t -> unit
(** Journal order = insertion order; never the index's probe order. *)

val mem : t -> int -> bool
(** Index-mode membership: bloom test, then probe. *)

val add_unique : t -> int -> int -> bool
(** [add_unique t k v] inserts [k] into the index and appends [(k, v)] to
    the journal iff [k] is not already present; returns [true] on insert.
    Replaces the PR-5 dedup triple (shadow [Wlog.mem] + [Wlog.replace] +
    [Ivec.push]) with one probe. *)

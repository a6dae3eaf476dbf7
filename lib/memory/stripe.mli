(** Address-to-stripe mapping (paper §3.3, Figure 1).

    [index] = (addr >> log2 granularity) & (table_size - 1), with the
    granularity in words (the paper's default 2^4 bytes = 4 words).
    Figure 13 / Table 2 sweep the granularity. *)

type t

val create : ?granularity_words:int -> ?table_bits:int -> unit -> t
(** Defaults: 4-word stripes, 2^18-entry table.  Both must be powers of
    two ([Invalid_argument] otherwise). *)

val granularity_words : t -> int
val table_size : t -> int

val index : t -> int -> int
(** Lock-table index covering a word address. *)

val same_stripe : t -> int -> int -> bool

val log2 : int -> int
(** Integer base-2 logarithm (floor). *)

val is_pow2 : int -> bool

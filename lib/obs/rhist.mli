(** Sub-bucketed log2 histogram of non-negative ints: exact below 64,
    32 sub-buckets per octave above (bounded relative error ~3 %).

    The one histogram of [Obs]: {!Metrics} records its latencies and
    {!Slo} its response times in it.  The bucket array (1,856 words) is
    allocated on the first {!observe}, so an engine's metric bundle costs
    nothing until the engine runs metered. *)

type t

val n_buckets : int
val create : unit -> t
val bucket_of : int -> int
val bucket_upper : int -> int
(** Inclusive upper bound of a bucket; [bucket_upper (bucket_of v) >= v]. *)

val observe : t -> int -> unit
val merge_into : t -> into:t -> unit
val reset : t -> unit
val count : t -> int
val sum : t -> int
val max_value : t -> int

val quantile : t -> float -> int
(** Upper bound of the smallest bucket prefix holding the quantile,
    clamped to {!max_value}. *)

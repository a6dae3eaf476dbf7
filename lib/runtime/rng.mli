(** Deterministic SplitMix64 pseudo-random generator.

    Every simulated or native thread owns its own generator, derived from a
    global seed and the thread id, making runs reproducible independently
    of scheduling. *)

type t

val create : int -> t
(** [create seed] is a fresh generator. *)

val for_thread : seed:int -> tid:int -> t
(** Thread-local generator decorrelated from neighbouring [tid]s. *)

val next64 : t -> int64
(** Raw 64-bit output. *)

val bits : t -> int
(** Uniform non-negative 62-bit int. *)

val int : t -> int -> int
(** [int t n] is uniform in [0, n). Raises [Invalid_argument] if [n <= 0]. *)

val float : t -> float -> float
(** [float t x] is uniform in [0, x). *)

val chance : t -> float -> bool
(** [chance t p] is [true] with probability [p]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

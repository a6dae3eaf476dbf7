(** Per-engine irrevocability token (graceful degradation).

    After K consecutive aborts an engine escalates a transaction to
    irrevocable execution: it acquires this token, keeps it across
    retries, and every other thread defers at its start (and, where safe,
    commit) gates.  The holder is exempt from fault injection and — with a
    contention manager that lets it win every conflict — cannot starve.

    Token-free checks are plain reads charging zero simulated cycles, so
    runs that never escalate take bit-identical schedules. *)

type t

val create : unit -> t

val mine : t -> tid:int -> bool
val held_by_other : t -> tid:int -> bool

val acquire : t -> tid:int -> unit
(** Spin until free, then own the token; sets [Runtime.Inject.exempt]. *)

val release : t -> tid:int -> unit
(** No-op unless the caller holds the token. *)

val gate : t -> tid:int -> check:(unit -> unit) -> unit
(** Wait while another thread holds the token; [check] runs per spin
    (pass the engine's kill poll when the waiter can hold locks). *)

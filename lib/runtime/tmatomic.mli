(** Atomic integer cells with a cache-coherence cost model.

    Operations are real [Atomic] operations (safe under native domains);
    inside a simulation they additionally charge virtual cycles through a
    MESI-style line model with a queuing penalty on hot lines — the
    mechanism behind the paper's hot-spot results (Figures 10 and 11).

    Cells created with {!make_shared} share one modelled cache line, like
    SwissTM's adjacent r/w lock pair or RSTM's object header.

    Under a multi-socket {!Topology} misses are distance-keyed
    (local / same-socket / cross-socket, with a directory queuing penalty
    at the line's first-touch home socket); under the default flat
    topology the model is bit-identical to the pre-topology one.  The
    reader set is exact up to [Topology.max_cores] threads. *)

type line

type t
(** One heap block: the value word, then the modelled line. *)

val fresh_line : unit -> line
val make : int -> t
val make_shared : line -> int -> t

val get : t -> int
val set : t -> int -> unit

val cas : t -> expect:int -> replace:int -> bool
(** Charges the full RMW cost whether or not it succeeds (a failing CAS
    still acquires the line exclusively). *)

val fetch_and_add : t -> int -> int
(** Returns the previous value. *)

val incr_get : t -> int
(** Atomically increment; returns the new value. *)

val unsafe_get : t -> int
(** Cost-free read for setup/verification code. *)

val unsafe_set : t -> int -> unit
(** Cost-free write for setup/verification code. *)

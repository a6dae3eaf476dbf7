(** Back-off policies used by contention managers after a rollback. *)

type policy =
  | No_backoff
  | Linear of { base : int; cap : int }
      (** uniform in [0, min cap (base * attempt)] — SwissTM's randomized
          linear back-off (Algorithm 2, line 11) *)
  | Exponential of { base : int; cap : int }
      (** uniform in [0, min cap (base * 2^attempt)] — Polka-style *)

val default_linear : policy

val default_exponential : policy
(** Capped high enough to out-wait the longest transactions, which is what
    lets kill-based managers escape mutual-abort livelocks. *)

val delay : policy -> Rng.t -> attempt:int -> int
(** Cycles to wait before the [attempt]-th retry (1-based). *)

val wait_cycles : int -> unit
(** Wait: virtual time in a simulation, bounded spinning natively. *)

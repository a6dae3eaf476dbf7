(** Per-thread transaction statistics: one thread's counters, kept in its
    descriptor; an engine's snapshot sums its threads'. *)

val max_threads : int

type t

type snapshot = {
  s_commits : int;
  s_aborts_ww : int;  (** write/write conflicts lost *)
  s_aborts_rw : int;  (** read-set validation failures *)
  s_aborts_killed : int;  (** remote aborts by a contention manager *)
  s_waits : int;  (** spin-wait iterations *)
  s_backoffs : int;  (** contention-manager back-off waits taken *)
  s_cycles_wasted : int;  (** simulated cycles discarded by aborts *)
  s_reads : int;
  s_writes : int;
  s_max_consecutive_aborts : int;
      (** worst consecutive-abort run of any single thread — the
          starvation bound adaptive escalation must enforce *)
}

val create : unit -> t

val commit : t -> unit
val abort : t -> Tx_signal.abort_reason -> unit
val wait : t -> unit
val read : t -> unit
val write : t -> unit

val wasted : t -> cycles:int -> unit
(** Charge the simulated cycles an aborted attempt burned. *)

val snapshot : t -> snapshot
(** [s_backoffs] is 0: back-offs are counted in the thread's
    [Cm.Cm_intf.txinfo], which the engine adds in. *)

val add : snapshot -> snapshot -> snapshot

val total_aborts : snapshot -> int

val abort_rate : snapshot -> float
(** aborts / (commits + aborts), in [0, 1]. *)

val pp : Format.formatter -> snapshot -> unit

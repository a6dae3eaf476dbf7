(** Metrics registry: typed counters and latency histograms ({!Rhist}).

    Off by default.  Engine call sites guard every hook with
    [if !Metrics.on then ...] (one load + one branch when off), and no
    hook charges simulated cycles, so metered and unmetered runs take
    bit-identical schedules. *)

val on : bool ref
(** The hook guard.  Use {!enable}/{!disable} rather than flipping it
    directly so the scheduler's dispatch hook stays in sync. *)

type engine
(** One engine's bundle of counters, histograms and stripe heat map. *)

val register_engine : string -> engine
(** Idempotent by name; the returned bundle stays registered across
    {!reset}. *)

val unregistered : engine
(** A bundle outside the registry, so nothing reports it: a {!thread}'s
    before its first begin, and the descriptor-table sentinel's. *)

val registered : unit -> string list
(** Registered engine names, oldest first. *)

val enable : unit -> unit
val disable : unit -> unit

val reset : unit -> unit
(** Zero all counters, histograms and heat maps; registrations survive.
    {!thread} records are left alone. *)

(** {2 Per-thread state}

    One record per transaction descriptor ([Cm.Cm_intf.txinfo.obs]):
    every hook but {!on_stripe_conflict} takes it, so no hook looks its
    thread up.  The five sums accumulate the thread's abort/retry cost
    from the hooks until [Obs.Slo.record] reads and clears them, which
    attributes a service request's response time to its causes. *)

type thread = {
  mutable engine : engine;
      (** bundle of the thread's latest transaction's engine;
          {!unregistered} before its first begin *)
  mutable commit_start : int;  (** commit-phase entry cycle; [-1] = not reached *)
  mutable retries : int;  (** aborted attempts *)
  mutable wasted_cycles : int;  (** cycles discarded by those attempts *)
  mutable backoff_cycles : int;  (** CM back-off waits *)
  mutable escalations : int;  (** serial-token escalations *)
  mutable throttles : int;  (** adaptive-CM throttle serializations *)
}

val make_thread : unit -> thread

(** {2 Engine hooks} — guard with [if !Metrics.on].  [start] is the
    transaction's begin cycle (the descriptor's [start_cycles]). *)

val on_tx_begin : thread -> engine -> unit
val on_commit_start : thread -> unit
val on_tx_commit : thread -> start:int -> unit
val on_tx_abort :
  thread -> start:int -> reason:Stm_intf.Tx_signal.abort_reason -> unit
val on_stripe_conflict : engine -> stripe:int -> unit
val on_cm_decision : thread -> decision:Stm_intf.Trace.cm_decision -> unit
val on_cm_phase_shift : thread -> unit

val on_cm_throttle : thread -> unit
(** The adaptive manager serialized this thread behind its throttle. *)

val on_escalation : thread -> unit
(** An engine escalated this thread to irrevocable execution. *)

val on_backoff : thread -> cycles:int -> unit
(** The thread's contention manager backs off for [cycles] (> 0). *)

(** {2 Gauges} *)

val register_gauge : string -> (unit -> int) -> unit
(** Register a named read-out thunk sampled by {!tables}
    (heap and epoch-reclamation counters live in layers below [Obs]).  Idempotent by name.  Gauges are cumulative process-wide
    totals; {!reset} leaves them alone. *)

val gauge_values : unit -> (string * int) list
(** Sample every registered gauge, registration order. *)

(** {2 Per-socket coherence counters} *)

val per_socket : unit -> (int * int * int) array
(** [(hits, misses, steals)] per socket of the current
    [Runtime.Topology], maintained uncharged by the runtime cost model;
    reset via [Runtime.Topology.reset_counters] (topology changes reset
    them implicitly).  Included in {!tables}. *)

(** {2 Reporting} *)

val tables : unit -> Report.table list
(** Six tables, titled ["metrics: ..."]: aborts and CM decisions (a row
    per registered engine); latency (n, mean, p50, p90, max cycles of the
    tx, commit, wasted and backoff histograms, a row for each one that
    observed anything); the 8 hottest conflict stripes per engine;
    scheduler dispatches and switches; per-socket coherence counters; and
    gauges (a row per registered gauge). *)

(** Metrics registry: typed counters and latency histograms ({!Rhist}).

    Off by default.  Engine call sites guard every hook with
    [if !Metrics.on then ...] (one load + one branch when off), and no
    hook charges simulated cycles, so metered and unmetered runs take
    bit-identical schedules. *)

val on : bool ref
(** The hook guard.  Use {!enable}/{!disable} rather than flipping it
    directly so the runtime back-off/scheduler hooks stay in sync. *)

val register_engine : string -> int
(** Idempotent by name; the returned eid stays valid across {!reset}. *)

val registered : unit -> string list
(** Registered engine names, oldest first. *)

val enable : unit -> unit
val disable : unit -> unit

val reset : unit -> unit
(** Zero all counters, histograms and heat maps; registrations survive. *)

(** {2 Engine hooks} — guard with [if !Metrics.on]. *)

val on_tx_begin : eid:int -> tid:int -> unit
val on_commit_start : tid:int -> unit
val on_tx_commit : tid:int -> unit
val on_tx_abort : tid:int -> reason:Stm_intf.Tx_signal.abort_reason -> unit
val on_stripe_conflict : eid:int -> stripe:int -> unit

val on_cm_decision :
  tid:int -> victim:int -> decision:Stm_intf.Trace.cm_decision -> unit

val on_cm_phase_shift : tid:int -> unit

val on_cm_throttle : tid:int -> unit
(** The adaptive manager serialized this thread behind its throttle. *)

val on_escalation : tid:int -> unit
(** An engine escalated this thread to irrevocable execution. *)

(** {2 Per-request attribution} — harvested by [Obs.Slo].

    Cumulative per-thread abort/retry cost since the last {!att_clear},
    fed from the hooks above (no additional engine call sites).  The
    service harness clears at request dispatch and reads at completion to
    attribute the request's response time to its causes. *)

type attribution = {
  a_retries : int;  (** aborted attempts *)
  a_wasted_cycles : int;  (** cycles discarded by those attempts *)
  a_backoff_cycles : int;  (** CM back-off waits *)
  a_escalations : int;  (** serial-token escalations *)
  a_throttles : int;  (** adaptive-CM throttle serializations *)
}

val att_clear : tid:int -> unit
val att_read : tid:int -> attribution

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

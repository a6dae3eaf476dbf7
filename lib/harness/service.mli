(** Open-system service harness: a transactional session/inventory store
    driven by an arrival process.

    Closed-loop drivers ({!Workload.run_for_duration}) measure capacity:
    N threads issue back-to-back transactions and throughput is the
    answer.  This harness measures *latency under load* the way a served
    system experiences it: requests arrive on their own schedule
    ({!Arrival}), queue when every simulated core is busy, and their
    response time — queue wait + every aborted attempt + back-off + the
    committing attempt — is what the SLO sees.  Offered load is decoupled
    from service rate, so pushing the arrival rate past capacity shows
    the tail blowing up rather than throughput politely saturating.

    The application is a session/inventory store over one transactional
    heap: a large simulated-user population (10^5–10^6) multiplexed onto
    a few simulated cores.  Each user cycles through login → read-mostly
    browsing → a checkout that decrements Zipf-popular stock words —
    checkout collisions on hot keys are the contention source.

    Determinism: arrivals, user choice and key choice come from dedicated
    {!Runtime.Rng} streams; workers run under {!Runtime.Sim}; SLO
    recording charges zero cycles.  Same (config, seed) → bit-identical
    windows and summaries. *)

type config = {
  threads : int;  (** simulated server cores *)
  users : int;  (** simulated user population *)
  keys : int;  (** inventory size (words) *)
  theta : float;  (** Zipf skew of key popularity *)
  browse_len : int;
      (** browse requests per session before checkout, at most 254 (a
          session's state is one byte) *)
  demand_cycles : int;  (** base service demand ticked inside each tx *)
  arrivals : Arrival.spec;
  duration_cycles : int;  (** arrivals are generated in [0, duration) *)
  window_cycles : int;  (** SLO window length *)
  slow_cutoff : int;  (** responses at/over this feed slow-request sums *)
  seed : int;
  trace_window : int option;
      (** Record the transactional event stream for the window with this
          index (for Chrome-trace export of one slice of the run). *)
}

val default : config
(** 8 cores, 200k users, 4096 keys, theta 0.9, steady Poisson load at
    ~60 % of single-core-population capacity — a sane starting point
    meant to be overridden per experiment. *)

type result = {
  elapsed_cycles : int;  (** simulated makespan (arrivals fully drained) *)
  offered : int;  (** requests generated *)
  completed : int;  (** requests served *)
  stats : Stm_intf.Stats.snapshot;
  summary : Obs.Slo.summary option;  (** [None] when [obs] was off *)
  windows : Obs.Report.table list;
      (** {!Obs.Slo.window_tables} of the run, titled by [label]; [[]]
          when [obs] was off *)
  trace : (string * Stm_intf.Trace.event array) option;
      (** (label, events) of the traced window, if one was requested *)
}

val run : ?obs:bool -> ?label:string -> Engines.spec -> config -> result
(** Build the engine and heap, generate the arrival stream, serve it to
    completion.  With [obs] (default [true]) the run is wrapped in
    [Obs.Metrics.enable] + [Obs.Slo.enable] and the result carries the
    summary and the window tables, titled by [label] (default
    [Engines.name spec]); with [obs:false] nothing is armed — the
    obs-off perturbation gate compares wall-clock against this mode.
    Collector state is disarmed and reset on exit either way. *)

val goodput_per_mcycle : result -> float
(** Completed requests per million simulated cycles. *)

val offered_per_mcycle : result -> float

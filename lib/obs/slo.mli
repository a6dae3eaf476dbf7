(** Windowed SLO metrics for open-system (service) runs.

    Collects per-window response-time distributions — response time is
    queue wait + every aborted attempt + back-off + the committing
    attempt — over fixed windows of simulated time, and attributes each
    request's cycles to causes (queue / aborted work / back-off / commit)
    using the sums the existing engine hooks accumulate in the thread's
    {!Metrics.thread} record.

    Same contract as the rest of [Obs]: recording charges zero simulated
    cycles, so an SLO-metered run takes a bit-identical schedule to an
    unmetered one, and everything reported is a deterministic function of
    (engine, workload, seed).

    Response-time percentiles use {!Rhist}: 32 sub-buckets per octave
    (~3 % relative resolution), so p99.9/p50 tail-amplification ratios
    are meaningfully comparable across engines. *)

module Rhist = Rhist

val on : bool ref

val enable : window_cycles:int -> ?slow_cutoff:int -> unit -> unit
(** Arm the collector.  [window_cycles] is the SLO window length in
    simulated cycles; requests whose response time reaches [slow_cutoff]
    (default: never) additionally feed the per-window slow-request
    attribution sums. *)

val disable : unit -> unit
val reset : unit -> unit

(** {2 Harness hooks} — charge no simulated cycles. *)

val note_arrival : time:int -> unit
(** Count one offered request in the window containing [time] (the
    service harness calls this for the whole pre-generated arrival
    stream, so offered load is visible even for windows where the
    saturated server completed nothing). *)

val record :
  Metrics.thread -> arrival:int -> started:int -> finished:int -> unit
(** Record one completed request of the thread whose record is given:
    response time [finished - arrival] lands in the window containing
    [finished], queue wait is [started - arrival], and the
    abort/back-off/serial attribution is the record's sums, which are
    then cleared, so the thread's next request starts from zero. *)

(** {2 Reporting} *)

type summary = {
  s_requests : int;
  s_p50 : int;
  s_p95 : int;
  s_p999 : int;
  s_max : int;
  s_tail_amplification : float;  (** p99.9 / p50 (0 if no requests) *)
  s_queue_cycles : int;
  s_abort_cycles : int;
  s_backoff_cycles : int;
  s_exec_cycles : int;
  s_retries : int;
  s_escalations : int;
  s_throttles : int;
}

val summarize : ?from_cycles:int -> ?to_cycles:int -> unit -> summary
(** Merge the response-time histograms of every window whose start lies
    in [[from_cycles, to_cycles)] (defaults: everything). *)

val window_tables : name:string -> unit -> Report.table list
(** The non-empty windows (neither arrivals nor completions: skipped),
    one row per window labelled by its start cycle, as two tables titled
    ["<name> SLO windows of <n> cycles: latency"] and [": attribution"].
    Deterministic: same run, same tables. *)

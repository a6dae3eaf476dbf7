(* Concrete contention managers (paper §2.1 and Algorithm 2).

   [make spec] instantiates fresh shared counters, so distinct engine
   instances never share contention-manager state. *)

open Cm_intf

(* Every manager back-off goes through here so the count lands in the
   waiting thread's [txinfo], the only back-off counter: an engine's
   snapshot reports it as [s_backoffs] and its reset zeroes it.  The
   increment is unconditional (a plain field write, no RNG draw), so
   schedules are unchanged; a non-zero wait is reported to the thread's
   metrics before it is charged. *)
let backoff_wait info policy ~attempt =
  info.backoffs <- info.backoffs + 1;
  let cycles = Runtime.Backoff.delay policy info.rng ~attempt in
  if cycles > 0 && !Obs.Metrics.on then Obs.Metrics.on_backoff info.obs ~cycles;
  Runtime.Backoff.wait_cycles cycles

(* Defaults for the managers that neither throttle nor escalate. *)
let no_pre_attempt _ ~escalated:_ = ()
let no_quit _ = ()

(* --- Timid: always abort the attacker, optionally after a tiny random
   back-off (the TL2 / TinySTM default behaviour). --- *)
let timid () =
  {
    name = spec_name Timid;
    on_start = (fun info ~restart -> note_start info ~restart);
    on_write = (fun _ ~writes:_ -> ());
    resolve = (fun ~attacker:_ ~victim:_ -> Abort_self);
    on_rollback =
      (fun info ->
        note_rollback info;
        (* uncapped attempts: a transaction repeatedly losing to a long
           writer must eventually out-wait the writer's commit instead of
           thrashing (TL2/TinySTM ship comparable back-off escalation) *)
        backoff_wait info Runtime.Backoff.default_linear
          ~attempt:info.succ_aborts);
    on_commit = (fun _ -> ());
    pre_attempt = no_pre_attempt;
    escalate_after = max_int;
    on_quit = no_quit;
  }

(* --- Greedy: a unique monotonically increasing timestamp at transaction
   start; kept across restarts; the lower (older) timestamp always wins.
   The shared [clock] increment on *every* transaction start is the cache
   hot spot the paper blames for Greedy's poor small-transaction
   performance (Figure 10). --- *)
let greedy () =
  let clock = Runtime.Tmatomic.make 0 in
  {
    name = spec_name Greedy;
    on_start =
      (fun info ~restart ->
        note_start info ~restart;
        if not restart then info.cm_ts <- Runtime.Tmatomic.incr_get clock);
    on_write = (fun _ ~writes:_ -> ());
    resolve =
      (fun ~attacker ~victim ->
        if attacker.cm_ts < victim.cm_ts then begin
          request_kill victim;
          Killed_victim
        end
        else Abort_self);
    on_rollback =
      (fun info ->
        note_rollback info;
        backoff_wait info Runtime.Backoff.default_linear
          ~attempt:(min info.succ_aborts 4));
    on_commit = (fun _ -> ());
    pre_attempt = no_pre_attempt;
    escalate_after = max_int;
    on_quit = no_quit;
  }

(* --- Serializer: Greedy re-timestamped on every restart; loses Greedy's
   starvation-freedom (paper §2.1). --- *)
let serializer () =
  let clock = Runtime.Tmatomic.make 0 in
  {
    name = spec_name Serializer;
    on_start =
      (fun info ~restart ->
        note_start info ~restart;
        info.cm_ts <- Runtime.Tmatomic.incr_get clock);
    on_write = (fun _ ~writes:_ -> ());
    resolve =
      (fun ~attacker ~victim ->
        if attacker.cm_ts < victim.cm_ts then begin
          request_kill victim;
          Killed_victim
        end
        else Abort_self);
    on_rollback =
      (fun info ->
        note_rollback info;
        backoff_wait info Runtime.Backoff.default_linear
          ~attempt:(min info.succ_aborts 4));
    on_commit = (fun _ -> ());
    pre_attempt = no_pre_attempt;
    escalate_after = max_int;
    on_quit = no_quit;
  }

(* --- Polka: priority = number of locations accessed so far; on conflict
   the attacker waits (exponential back-off), gaining one point of
   temporary priority per wait; once attacker priority + waits exceeds the
   victim's priority, the victim is aborted. --- *)
let polka () =
  {
    name = spec_name Polka;
    on_start = (fun info ~restart -> note_start info ~restart);
    on_write = (fun _ ~writes:_ -> ());
    resolve =
      (fun ~attacker ~victim ->
        (* a migrated (stolen) task carries pre-paid transfer work *)
        let prio i = i.accesses + (steal_priority_bonus * i.steals) in
        if prio attacker + attacker.conflict_waits >= prio victim
        then begin
          request_kill victim;
          Killed_victim
        end
        else begin
          attacker.conflict_waits <- attacker.conflict_waits + 1;
          backoff_wait attacker Runtime.Backoff.default_exponential
            ~attempt:attacker.conflict_waits;
          Wait
        end);
    on_rollback =
      (fun info ->
        note_rollback info;
        (* A killed victim must not re-announce itself instantly or it gets
           re-killed forever; uncapped attempts let the exponential window
           grow past the length of the longest transactions, which is what
           breaks mutual-kill livelocks between equal-priority giants. *)
        backoff_wait info Runtime.Backoff.default_exponential
          ~attempt:info.succ_aborts);
    on_commit = (fun _ -> ());
    pre_attempt = no_pre_attempt;
    escalate_after = max_int;
    on_quit = no_quit;
  }

(* --- Karma (Scherer & Scott, CSJP'04): like Polka but the priority is
   the work accumulated over ALL attempts of the transaction, so a
   transaction that keeps losing gains enough karma to win eventually. --- *)
let karma () =
  {
    name = spec_name Karma;
    on_start =
      (fun info ~restart ->
        (* carry the previous attempt's work into the new one *)
        if restart then info.karma <- info.karma + info.accesses
        else info.karma <- 0;
        note_start info ~restart);
    on_write = (fun _ ~writes:_ -> ());
    resolve =
      (fun ~attacker ~victim ->
        let prio i =
          i.karma + i.accesses + (steal_priority_bonus * i.steals)
        in
        if prio attacker + attacker.conflict_waits >= prio victim then begin
          request_kill victim;
          Killed_victim
        end
        else begin
          attacker.conflict_waits <- attacker.conflict_waits + 1;
          backoff_wait attacker Runtime.Backoff.default_exponential
            ~attempt:attacker.conflict_waits;
          Wait
        end);
    on_rollback =
      (fun info ->
        note_rollback info;
        backoff_wait info Runtime.Backoff.default_exponential
          ~attempt:info.succ_aborts);
    on_commit = (fun info -> info.karma <- 0);
    pre_attempt = no_pre_attempt;
    escalate_after = max_int;
    on_quit = no_quit;
  }

(* --- Timestamp (Scherer & Scott): the older transaction wins, but the
   attacker grants the victim a bounded grace period first. --- *)
let timestamp () =
  let clock = Runtime.Tmatomic.make 0 in
  let grace = 8 in
  {
    name = spec_name Timestamp;
    on_start =
      (fun info ~restart ->
        note_start info ~restart;
        if not restart then info.cm_ts <- Runtime.Tmatomic.incr_get clock);
    on_write = (fun _ ~writes:_ -> ());
    resolve =
      (fun ~attacker ~victim ->
        if attacker.cm_ts >= victim.cm_ts then Abort_self
        else if attacker.conflict_waits < grace then begin
          attacker.conflict_waits <- attacker.conflict_waits + 1;
          backoff_wait attacker Runtime.Backoff.default_exponential
            ~attempt:attacker.conflict_waits;
          Wait
        end
        else begin
          request_kill victim;
          Killed_victim
        end);
    on_rollback =
      (fun info ->
        note_rollback info;
        backoff_wait info Runtime.Backoff.default_linear
          ~attempt:(min info.succ_aborts 6));
    on_commit = (fun _ -> ());
    pre_attempt = no_pre_attempt;
    escalate_after = max_int;
    on_quit = no_quit;
  }

(* --- The paper's two-phase manager (Algorithm 2).

   Phase one (cm_ts = infinity, i.e. [max_int]): behave like Timid — abort
   the attacker on any conflict.  A transaction enters phase two on its
   [wn]-th write by drawing a Greedy timestamp, *kept across restarts*
   (cm-start only resets cm-ts when the transaction is not a restart), which
   gives long transactions Greedy's starvation-freedom while short ones
   never touch the shared clock.  After rollback: randomized linear back-off
   proportional to the number of successive aborts. --- *)
let two_phase ~wn ~backoff () =
  let clock = Runtime.Tmatomic.make 0 in
  {
    name = spec_name (Two_phase { wn; backoff });
    on_start =
      (fun info ~restart ->
        note_start info ~restart;
        if not restart then info.cm_ts <- max_int);
    on_write =
      (fun info ~writes ->
        if info.cm_ts = max_int && writes = wn then begin
          info.cm_ts <- Runtime.Tmatomic.incr_get clock;
          if !Obs.Metrics.on then Obs.Metrics.on_cm_phase_shift info.obs
        end);
    resolve =
      (fun ~attacker ~victim ->
        if attacker.cm_ts = max_int then Abort_self
        else if victim.cm_ts < attacker.cm_ts then Abort_self
        else begin
          request_kill victim;
          Killed_victim
        end);
    on_rollback =
      (fun info ->
        note_rollback info;
        if backoff then
          backoff_wait info Runtime.Backoff.default_linear
            ~attempt:info.succ_aborts);
    on_commit = (fun _ -> ());
    pre_attempt = no_pre_attempt;
    escalate_after = max_int;
    on_quit = no_quit;
  }

(* --- Adaptive: two-phase conflict resolution plus contention throttling
   (graceful degradation, paper §5 "stretching" discussion).

   Each thread maintains an abort-rate EWMA in [txinfo.contention]
   (fixed-point, [contention_scale] = certain abort; alpha = 1/8): rollback
   moves it an eighth of the way towards the ceiling, commit decays it by an
   eighth.  Once the estimate crosses [threshold], the thread is a proven
   offender and [pre_attempt] serializes it behind a condition token held
   until its commit, so at most one high-contention transaction runs at a
   time while well-behaved threads proceed untouched.

   The manager also publishes [escalate_after]: engines escalate a
   transaction to irrevocable execution (cm_ts = 0) after that many
   consecutive aborts.  [resolve] treats cm_ts = 0 as an absolute winner
   and never selects it as a kill victim, which is what makes the
   escalated attempt's write/write conflicts always resolve in its favor.

   Deadlock discipline: an escalated thread must never wait for the
   throttle token (it releases any it holds instead) — otherwise it could
   deadlock against a throttled thread parked at the engine's start gate
   waiting for the irrevocability token. *)
let adaptive ~wn ~threshold ~escalate_after () =
  let clock = Runtime.Tmatomic.make 0 in
  let throttle = Runtime.Tmatomic.make 0 in
  (* 0 = free, tid + 1 = throttled offender *)
  let holds info = Runtime.Tmatomic.unsafe_get throttle = info.tid + 1 in
  let release info = if holds info then Runtime.Tmatomic.set throttle 0 in
  let acquire info =
    if not (holds info) then begin
      if !Obs.Metrics.on then Obs.Metrics.on_cm_throttle info.obs;
      let rec go () =
        if Runtime.Tmatomic.get throttle <> 0 then begin
          Runtime.Exec.pause ();
          go ()
        end
        else if
          not (Runtime.Tmatomic.cas throttle ~expect:0 ~replace:(info.tid + 1))
        then go ()
      in
      go ()
    end
  in
  {
    name = spec_name (Adaptive { wn; threshold; escalate_after });
    on_start =
      (fun info ~restart ->
        note_start info ~restart;
        if not restart then info.cm_ts <- max_int);
    on_write =
      (fun info ~writes ->
        if info.cm_ts = max_int && writes = wn then begin
          info.cm_ts <- Runtime.Tmatomic.incr_get clock;
          if !Obs.Metrics.on then Obs.Metrics.on_cm_phase_shift info.obs
        end);
    resolve =
      (fun ~attacker ~victim ->
        if victim.cm_ts = 0 then Abort_self
        else if attacker.cm_ts = 0 then begin
          request_kill victim;
          Killed_victim
        end
        else if attacker.cm_ts = max_int then Abort_self
        else if victim.cm_ts < attacker.cm_ts then Abort_self
        else begin
          request_kill victim;
          Killed_victim
        end);
    on_rollback =
      (fun info ->
        note_rollback info;
        info.contention <-
          info.contention + ((contention_scale - info.contention) / 8);
        backoff_wait info Runtime.Backoff.default_linear
          ~attempt:info.succ_aborts);
    on_commit =
      (fun info ->
        info.contention <- info.contention - (info.contention / 8);
        release info);
    pre_attempt =
      (fun info ~escalated ->
        if escalated then release info
        else if info.contention >= threshold then acquire info);
    escalate_after;
    on_quit = release;
  }

(* Observability wrapper: report each conflict resolution to the trace
   recorder and the metrics registry.  Applied centrally so every manager
   and every engine gets CM-decision events without per-engine wiring.
   [resolve] only runs on conflicts — never on the fast path — so the two
   flag loads per call cost nothing measurable. *)
let instrument t =
  let resolve ~attacker ~victim =
    let d = t.resolve ~attacker ~victim in
    if !Stm_intf.Trace.enabled || !Obs.Metrics.on then begin
      let decision : Stm_intf.Trace.cm_decision =
        match d with
        | Abort_self -> Cm_abort_self
        | Wait -> Cm_wait
        | Killed_victim -> Cm_kill
      in
      if !Stm_intf.Trace.enabled then
        Stm_intf.Trace.on_cm_decision ~tid:attacker.tid ~victim:victim.tid
          ~decision;
      if !Obs.Metrics.on then Obs.Metrics.on_cm_decision attacker.obs ~decision
    end;
    d
  in
  { t with resolve }

let make spec =
  instrument
    (match spec with
    | Timid -> timid ()
    | Greedy -> greedy ()
    | Serializer -> serializer ()
    | Polka -> polka ()
    | Karma -> karma ()
    | Timestamp -> timestamp ()
    | Two_phase { wn; backoff } -> two_phase ~wn ~backoff ()
    | Adaptive { wn; threshold; escalate_after } ->
        adaptive ~wn ~threshold ~escalate_after ())

(* Metrics registry: typed counters and latency histograms ([Rhist]).

   Layering follows the PR-2 Trace discipline: everything is OFF by
   default, every engine call site guards its hook with a single [!on]
   dereference, and no hook charges simulated cycles — so a metered run
   takes a bit-identical schedule to an unmetered one, and the off path
   costs one load + one predictable branch per site.

   Engines register themselves by name once at construction time and get
   back their bundle of preallocated counters, which the hot-path hooks
   update directly (no string hashing or lookup per event).  Per-thread
   state (current engine's bundle, commit start time, the
   request-attribution sums) is a [thread] record held by the thread's
   transaction descriptor ([Cm.Cm_intf.txinfo.obs]), which every hook
   takes as its first argument. *)

(* --- per-engine bundles ------------------------------------------------ *)

type engine = {
  name : string;
  tx_h : Rhist.t;  (* committed transaction duration, cycles *)
  commit_h : Rhist.t;  (* commit-phase length, cycles *)
  wasted_h : Rhist.t;  (* cycles discarded per aborted attempt *)
  backoff_h : Rhist.t;  (* back-off wait lengths, cycles *)
  mutable ab_ww : int;
  mutable ab_rw : int;
  mutable ab_killed : int;
  mutable cm_self : int;  (* CM told the attacker to abort itself *)
  mutable cm_wait : int;  (* CM told the attacker to wait *)
  mutable cm_kill : int;  (* CM killed the victim *)
  mutable cm_shift : int;  (* CM phase transitions (e.g. timid -> greedy) *)
  mutable cm_throttle : int;  (* adaptive-CM throttle serializations *)
  mutable escalations : int;  (* escalations to irrevocable execution *)
  heat : (int, int ref) Hashtbl.t;  (* stripe index -> conflict count *)
}

let on = ref false

let engines : engine list ref = ref [] (* newest first *)

let new_engine name =
  {
    name;
    tx_h = Rhist.create ();
    commit_h = Rhist.create ();
    wasted_h = Rhist.create ();
    backoff_h = Rhist.create ();
    ab_ww = 0;
    ab_rw = 0;
    ab_killed = 0;
    cm_self = 0;
    cm_wait = 0;
    cm_kill = 0;
    cm_shift = 0;
    cm_throttle = 0;
    escalations = 0;
    heat = Hashtbl.create 64;
  }

(* --- per-thread state --------------------------------------------------- *)

(* One per transaction descriptor.  The five sums are the thread's
   abort/retry cost since [Obs.Slo.record] last harvested them: they let
   the service harness attribute a slow request's response time to its
   causes, fed from the existing hooks below (no new engine call sites,
   so the no-perturbation contract is untouched). *)
type thread = {
  mutable engine : engine;
  mutable commit_start : int;
  mutable retries : int;
  mutable wasted_cycles : int;
  mutable backoff_cycles : int;
  mutable escalations : int;
  mutable throttles : int;
}

(* What a thread's hooks feed before its first begin: a bundle outside
   the registry, so nothing reports it. *)
let unregistered = new_engine "unregistered"

let make_thread () =
  {
    engine = unregistered;
    commit_start = -1;
    retries = 0;
    wasted_cycles = 0;
    backoff_cycles = 0;
    escalations = 0;
    throttles = 0;
  }

(* Scheduler counters (fed by the Sim dispatch hook). *)
let sched_dispatches = ref 0
let sched_switches = ref 0
let sched_last_tid = ref (-1)

(** Idempotent by name: registering ["swisstm"] twice returns the same
    bundle, so re-created engines accumulate into one. *)
let register_engine name =
  match List.find_opt (fun e -> e.name = name) !engines with
  | Some e -> e
  | None ->
      let e = new_engine name in
      engines := e :: !engines;
      e

let registered () = List.rev_map (fun e -> e.name) !engines

(* --- hooks (call sites guard with [if !Metrics.on]) -------------------- *)

let on_tx_begin (t : thread) engine =
  t.engine <- engine;
  t.commit_start <- -1

let on_commit_start (t : thread) = t.commit_start <- Runtime.Exec.now ()

let on_tx_commit (t : thread) ~start =
  let e = t.engine and now = Runtime.Exec.now () in
  Rhist.observe e.tx_h (now - start);
  if t.commit_start >= 0 then Rhist.observe e.commit_h (now - t.commit_start)

let on_tx_abort (t : thread) ~start ~(reason : Stm_intf.Tx_signal.abort_reason) =
  let wasted = Runtime.Exec.now () - start in
  t.retries <- t.retries + 1;
  t.wasted_cycles <- t.wasted_cycles + wasted;
  let e = t.engine in
  (match reason with
  | Ww_conflict -> e.ab_ww <- e.ab_ww + 1
  | Rw_validation -> e.ab_rw <- e.ab_rw + 1
  | Killed -> e.ab_killed <- e.ab_killed + 1);
  Rhist.observe e.wasted_h wasted

let on_stripe_conflict e ~stripe =
  match Hashtbl.find_opt e.heat stripe with
  | Some r -> incr r
  | None -> Hashtbl.add e.heat stripe (ref 1)

let on_cm_decision (t : thread) ~(decision : Stm_intf.Trace.cm_decision) =
  let e = t.engine in
  match decision with
  | Cm_abort_self -> e.cm_self <- e.cm_self + 1
  | Cm_wait -> e.cm_wait <- e.cm_wait + 1
  | Cm_kill -> e.cm_kill <- e.cm_kill + 1

let on_cm_phase_shift (t : thread) = t.engine.cm_shift <- t.engine.cm_shift + 1

let on_cm_throttle (t : thread) =
  t.throttles <- t.throttles + 1;
  t.engine.cm_throttle <- t.engine.cm_throttle + 1

let on_escalation (t : thread) =
  t.escalations <- t.escalations + 1;
  t.engine.escalations <- t.engine.escalations + 1

let on_backoff (t : thread) ~cycles =
  t.backoff_cycles <- t.backoff_cycles + cycles;
  Rhist.observe t.engine.backoff_h cycles

let record_dispatch tid =
  incr sched_dispatches;
  if tid <> !sched_last_tid then begin
    incr sched_switches;
    sched_last_tid := tid
  end

(* --- gauges ------------------------------------------------------------ *)

(* Monotone counters owned by lower layers (the heap, the epoch
   reclaimer) that cannot depend on [Obs]: they register a read-out
   thunk here and the reporting paths sample it.  Gauges are cumulative
   process-wide totals, so [reset] does not touch them. *)
let gauges : (string * (unit -> int)) list ref = ref []

let register_gauge name f =
  if not (List.mem_assoc name !gauges) then gauges := (name, f) :: !gauges

let gauge_values () =
  List.rev_map (fun (name, f) -> (name, f ())) !gauges

(* The memory layer sits below [Obs] and cannot register itself; its
   allocator and epoch-reclaimer counters are adopted here. *)
let () =
  register_gauge "heap_frees" Memory.Heap.frees_total;
  register_gauge "heap_free_reuses" Memory.Heap.reuses_total;
  register_gauge "heap_leaked_frees" Memory.Heap.leaked_frees_total;
  register_gauge "heap_double_frees" Memory.Heap.double_frees_total;
  register_gauge "epoch_advances" Memory.Epoch.advances;
  register_gauge "epoch_deferred" Memory.Epoch.deferred;
  register_gauge "epoch_reclaimed" Memory.Epoch.reclaimed;
  register_gauge "epoch_limbo_depth" Memory.Epoch.limbo_depth

(* --- lifecycle --------------------------------------------------------- *)

let enable () =
  Runtime.Sim.on_dispatch := record_dispatch;
  Runtime.Sim.on_dispatch_enabled := true;
  on := true

let disable () =
  on := false;
  Runtime.Sim.on_dispatch_enabled := false

(** Zero every counter/histogram/heat-map but keep the registrations:
    bundles handed out before a reset stay registered after it.
    Per-thread records live in the descriptors and are left alone. *)
let reset () =
  List.iter
    (fun e ->
      Rhist.reset e.tx_h;
      Rhist.reset e.commit_h;
      Rhist.reset e.wasted_h;
      Rhist.reset e.backoff_h;
      e.ab_ww <- 0;
      e.ab_rw <- 0;
      e.ab_killed <- 0;
      e.cm_self <- 0;
      e.cm_wait <- 0;
      e.cm_kill <- 0;
      e.cm_shift <- 0;
      e.cm_throttle <- 0;
      e.escalations <- 0;
      Hashtbl.reset e.heat)
    !engines;
  sched_dispatches := 0;
  sched_switches := 0;
  sched_last_tid := -1

(* --- reporting --------------------------------------------------------- *)

let top_stripes e k =
  let all = Hashtbl.fold (fun s r acc -> (s, !r) :: acc) e.heat [] in
  let sorted =
    List.sort (fun (s1, c1) (s2, c2) -> if c2 <> c1 then compare c2 c1 else compare s1 s2) all
  in
  List.filteri (fun i _ -> i < k) sorted

(* Per-socket coherence/steal counters, maintained (uncharged) by the
   runtime's cost-model fast paths; adopted here so every Obs consumer
   sees them next to the engine metrics. *)
let per_socket () = Runtime.Topology.socket_counters ()

let ints = List.map float_of_int

(* The registry as tables: abort/CM counts and latency histograms per
   engine, hot stripes, scheduler and per-socket counters, gauges. *)
let tables () =
  let engines = List.rev !engines in
  let hist_rows e =
    List.filter_map
      (fun (what, h) ->
        let n = Rhist.count h in
        if n = 0 then None
        else
          Some
            ( e.name ^ " " ^ what,
              [ float_of_int n; float_of_int (Rhist.sum h) /. float_of_int n ]
              @ ints [ Rhist.quantile h 0.5; Rhist.quantile h 0.9; Rhist.max_value h ] ))
      [ ("tx", e.tx_h); ("commit", e.commit_h); ("wasted", e.wasted_h); ("backoff", e.backoff_h) ]
  in
  let stripe_rows e =
    List.mapi
      (fun i (s, c) -> (Printf.sprintf "%s #%d" e.name (i + 1), ints [ s; c ]))
      (top_stripes e 8)
  in
  Report.
    [
      table "metrics: aborts and CM decisions" "count"
        [ "w/w"; "r/w"; "killed"; "cm self"; "cm wait"; "cm kill"; "shifts"; "throttles";
          "escalations" ]
        (List.map
           (fun e ->
             ( e.name,
               ints
                 [ e.ab_ww; e.ab_rw; e.ab_killed; e.cm_self; e.cm_wait; e.cm_kill; e.cm_shift;
                   e.cm_throttle; e.escalations ] ))
           engines);
      table "metrics: latency" "cycles" [ "n"; "mean"; "p50"; "p90"; "max" ]
        (List.concat_map hist_rows engines);
      table "metrics: hot stripes" "conflicts" [ "stripe"; "conflicts" ]
        (List.concat_map stripe_rows engines);
      table "metrics: scheduler" "count" [ "dispatches"; "switches" ]
        [ ("sim", ints [ !sched_dispatches; !sched_switches ]) ];
      table
        (Format.asprintf "metrics: sockets (%a)" Runtime.Topology.pp (Runtime.Topology.get ()))
        "count" [ "hits"; "misses"; "steals" ]
        (List.mapi
           (fun i (h, m, st) -> (Printf.sprintf "s%d" i, ints [ h; m; st ]))
           (Array.to_list (per_socket ())));
      table "metrics: gauges" "count" [ "value" ]
        (List.map (fun (n, v) -> (n, [ float_of_int v ])) (gauge_values ()));
    ]

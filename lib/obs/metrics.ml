(* Metrics registry: typed counters and log2-bucketed histograms.

   Layering follows the PR-2 Trace discipline: everything is OFF by
   default, every engine call site guards its hook with a single [!on]
   dereference, and no hook charges simulated cycles — so a metered run
   takes a bit-identical schedule to an unmetered one, and the off path
   costs one load + one predictable branch per site.

   Engines register themselves by name once at construction time and get
   back a small integer [eid]; the hot-path hooks index a per-eid bundle
   of preallocated counters through that integer (no string hashing per
   event).  Per-thread state (current engine, tx start time, commit start
   time) lives in process-wide arrays indexed by [tid land 511]
   ([Runtime.Topology.max_cores] slots), shared by every engine. *)

(* --- log2-bucketed histograms ------------------------------------------ *)

module Hist = struct
  let n_buckets = 64

  type t = {
    mutable count : int;
    mutable sum : int;
    mutable max : int;
    buckets : int array;
  }

  let create () = { count = 0; sum = 0; max = 0; buckets = Array.make n_buckets 0 }

  (* Bucket index = number of significant bits: 0 and negatives land in
     bucket 0, value v >= 1 in bucket (floor(log2 v) + 1).  max_int has 62
     significant bits on 64-bit OCaml, so indices stay below [n_buckets]. *)
  let bucket_of v =
    if v <= 0 then 0
    else begin
      let b = ref 0 and n = ref v in
      while !n > 0 do
        incr b;
        n := !n lsr 1
      done;
      !b
    end

  (* Inclusive upper bound of bucket [b]: 0 for bucket 0, 2^b - 1 above. *)
  let bucket_upper b = if b = 0 then 0 else (1 lsl b) - 1

  let observe t v =
    t.count <- t.count + 1;
    t.sum <- t.sum + v;
    if v > t.max then t.max <- v;
    let b = bucket_of v in
    t.buckets.(b) <- t.buckets.(b) + 1

  let reset t =
    t.count <- 0;
    t.sum <- 0;
    t.max <- 0;
    Array.fill t.buckets 0 n_buckets 0

  let count t = t.count
  let sum t = t.sum
  let max_value t = t.max
  let mean t = if t.count = 0 then 0. else float_of_int t.sum /. float_of_int t.count
  let bucket t b = t.buckets.(b)

  (* Smallest bucket upper bound below which at least [q] of the mass
     lies — a log2-granular quantile, good enough for reports. *)
  let approx_quantile t q =
    if t.count = 0 then 0
    else begin
      let target = Float.to_int (Float.of_int t.count *. q +. 0.999999) in
      let acc = ref 0 and b = ref 0 in
      while !acc < target && !b < n_buckets do
        acc := !acc + t.buckets.(!b);
        if !acc < target then incr b
      done;
      bucket_upper (min !b (n_buckets - 1))
    end

  let to_json t =
    let nonzero = ref [] in
    for b = n_buckets - 1 downto 0 do
      if t.buckets.(b) > 0 then
        nonzero :=
          Json.Obj
            [
              ("le", Json.Int (bucket_upper b));
              ("count", Json.Int t.buckets.(b));
            ]
          :: !nonzero
    done;
    Json.Obj
      [
        ("count", Json.Int t.count);
        ("sum", Json.Int t.sum);
        ("max", Json.Int t.max);
        ("p50", Json.Int (approx_quantile t 0.5));
        ("p90", Json.Int (approx_quantile t 0.9));
        ("buckets", Json.List !nonzero);
      ]
end

(* --- per-engine bundles ------------------------------------------------ *)

type engine = {
  name : string;
  eid : int;
  tx_h : Hist.t;  (* committed transaction duration, cycles *)
  commit_h : Hist.t;  (* commit-phase length, cycles *)
  wasted_h : Hist.t;  (* cycles discarded per aborted attempt *)
  backoff_h : Hist.t;  (* back-off wait lengths, cycles *)
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

let max_threads = Runtime.Topology.max_cores
let slot tid = tid land (max_threads - 1)

let engines : engine list ref = ref [] (* newest first *)
let by_eid : engine array ref = ref [||]

(* Per-thread attribution state. *)
let cur_eid = Array.make max_threads (-1)
let tx_start = Array.make max_threads 0
let commit_start = Array.make max_threads (-1)

(* Per-thread request attribution (PR 8): cumulative abort/retry cost
   since the last [att_clear], harvested by [Obs.Slo] to attribute a slow
   service request's response time to its causes.  Fed from the existing
   hooks below — no new engine call sites, so the no-perturbation
   contract is untouched. *)
type attribution = {
  a_retries : int;  (** aborted attempts *)
  a_wasted_cycles : int;  (** cycles discarded by those attempts *)
  a_backoff_cycles : int;  (** CM back-off waits *)
  a_escalations : int;  (** serial-token escalations *)
  a_throttles : int;  (** adaptive-CM throttle serializations *)
}

let att_retries = Array.make max_threads 0
let att_wasted = Array.make max_threads 0
let att_backoff = Array.make max_threads 0
let att_escal = Array.make max_threads 0
let att_throttle = Array.make max_threads 0

let att_clear ~tid =
  let s = slot tid in
  att_retries.(s) <- 0;
  att_wasted.(s) <- 0;
  att_backoff.(s) <- 0;
  att_escal.(s) <- 0;
  att_throttle.(s) <- 0

let att_read ~tid =
  let s = slot tid in
  {
    a_retries = att_retries.(s);
    a_wasted_cycles = att_wasted.(s);
    a_backoff_cycles = att_backoff.(s);
    a_escalations = att_escal.(s);
    a_throttles = att_throttle.(s);
  }

(* Scheduler counters (fed by the Sim dispatch hook). *)
let sched_dispatches = ref 0
let sched_switches = ref 0
let sched_last_tid = ref (-1)

let new_engine name eid =
  {
    name;
    eid;
    tx_h = Hist.create ();
    commit_h = Hist.create ();
    wasted_h = Hist.create ();
    backoff_h = Hist.create ();
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

(** Idempotent by name: registering ["swisstm"] twice returns the same
    eid, so re-created engines accumulate into one bundle. *)
let register_engine name =
  match List.find_opt (fun e -> e.name = name) !engines with
  | Some e -> e.eid
  | None ->
      let eid = Array.length !by_eid in
      let e = new_engine name eid in
      engines := e :: !engines;
      by_eid := Array.append !by_eid [| e |];
      eid

let engine_of_eid eid =
  if eid >= 0 && eid < Array.length !by_eid then Some (!by_eid).(eid) else None

let registered () = List.rev_map (fun e -> e.name) !engines

(* --- hooks (call sites guard with [if !Metrics.on]) -------------------- *)

let on_tx_begin ~eid ~tid =
  let s = slot tid in
  cur_eid.(s) <- eid;
  tx_start.(s) <- Runtime.Exec.now ();
  commit_start.(s) <- -1

let on_commit_start ~tid = commit_start.(slot tid) <- Runtime.Exec.now ()

let on_tx_commit ~tid =
  let s = slot tid in
  match engine_of_eid cur_eid.(s) with
  | None -> ()
  | Some e ->
      let now = Runtime.Exec.now () in
      Hist.observe e.tx_h (now - tx_start.(s));
      if commit_start.(s) >= 0 then
        Hist.observe e.commit_h (now - commit_start.(s))

let on_tx_abort ~tid ~(reason : Stm_intf.Tx_signal.abort_reason) =
  let s = slot tid in
  att_retries.(s) <- att_retries.(s) + 1;
  att_wasted.(s) <- att_wasted.(s) + (Runtime.Exec.now () - tx_start.(s));
  match engine_of_eid cur_eid.(s) with
  | None -> ()
  | Some e ->
      (match reason with
      | Ww_conflict -> e.ab_ww <- e.ab_ww + 1
      | Rw_validation -> e.ab_rw <- e.ab_rw + 1
      | Killed -> e.ab_killed <- e.ab_killed + 1);
      Hist.observe e.wasted_h (Runtime.Exec.now () - tx_start.(s))

let on_stripe_conflict ~eid ~stripe =
  match engine_of_eid eid with
  | None -> ()
  | Some e -> (
      match Hashtbl.find_opt e.heat stripe with
      | Some r -> incr r
      | None -> Hashtbl.add e.heat stripe (ref 1))

let on_cm_decision ~tid ~victim:_
    ~(decision : Stm_intf.Trace.cm_decision) =
  match engine_of_eid cur_eid.(slot tid) with
  | None -> ()
  | Some e -> (
      match decision with
      | Cm_abort_self -> e.cm_self <- e.cm_self + 1
      | Cm_wait -> e.cm_wait <- e.cm_wait + 1
      | Cm_kill -> e.cm_kill <- e.cm_kill + 1)

let on_cm_phase_shift ~tid =
  match engine_of_eid cur_eid.(slot tid) with
  | None -> ()
  | Some e -> e.cm_shift <- e.cm_shift + 1

let on_cm_throttle ~tid =
  let s = slot tid in
  att_throttle.(s) <- att_throttle.(s) + 1;
  match engine_of_eid cur_eid.(s) with
  | None -> ()
  | Some e -> e.cm_throttle <- e.cm_throttle + 1

let on_escalation ~tid =
  let s = slot tid in
  att_escal.(s) <- att_escal.(s) + 1;
  match engine_of_eid cur_eid.(s) with
  | None -> ()
  | Some e -> e.escalations <- e.escalations + 1

(* Installed into [Runtime.Backoff.on_wait]: attribute the wait to the
   engine the waiting thread is currently running under. *)
let record_backoff ~cycles =
  let s = slot (Runtime.Exec.self ()) in
  att_backoff.(s) <- att_backoff.(s) + cycles;
  match engine_of_eid cur_eid.(s) with
  | None -> ()
  | Some e -> Hist.observe e.backoff_h cycles

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
  Runtime.Backoff.on_wait := record_backoff;
  Runtime.Backoff.on_wait_enabled := true;
  Runtime.Sim.on_dispatch := record_dispatch;
  Runtime.Sim.on_dispatch_enabled := true;
  on := true

let disable () =
  on := false;
  Runtime.Backoff.on_wait_enabled := false;
  Runtime.Sim.on_dispatch_enabled := false

(** Zero every counter/histogram/heat-map but keep the registrations:
    eids handed out before a reset stay valid after it. *)
let reset () =
  List.iter
    (fun e ->
      Hist.reset e.tx_h;
      Hist.reset e.commit_h;
      Hist.reset e.wasted_h;
      Hist.reset e.backoff_h;
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
  Array.fill cur_eid 0 max_threads (-1);
  Array.fill tx_start 0 max_threads 0;
  Array.fill commit_start 0 max_threads (-1);
  Array.fill att_retries 0 max_threads 0;
  Array.fill att_wasted 0 max_threads 0;
  Array.fill att_backoff 0 max_threads 0;
  Array.fill att_escal 0 max_threads 0;
  Array.fill att_throttle 0 max_threads 0;
  sched_dispatches := 0;
  sched_switches := 0;
  sched_last_tid := -1

(* --- reporting --------------------------------------------------------- *)

let top_stripes e k =
  let all = Hashtbl.fold (fun s r acc -> (s, !r) :: acc) e.heat [] in
  let sorted =
    List.sort (fun (s1, c1) (s2, c2) -> if c2 <> c1 then compare c2 c1 else compare s1 s2) all
  in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  take k sorted

let pp_hist ppf name h =
  if Hist.count h > 0 then
    Format.fprintf ppf "    %-10s n=%-8d mean=%-10.0f p50<=%-10d p90<=%-10d max=%d@\n"
      name (Hist.count h) (Hist.mean h)
      (Hist.approx_quantile h 0.5)
      (Hist.approx_quantile h 0.9)
      (Hist.max_value h)

let pp_engine ppf e =
  Format.fprintf ppf "  %s:@\n" e.name;
  Format.fprintf ppf
    "    aborts     w/w=%d r/w=%d killed=%d   cm: self=%d wait=%d kill=%d \
     shifts=%d throttles=%d escalations=%d@\n"
    e.ab_ww e.ab_rw e.ab_killed e.cm_self e.cm_wait e.cm_kill e.cm_shift
    e.cm_throttle e.escalations;
  pp_hist ppf "tx" e.tx_h;
  pp_hist ppf "commit" e.commit_h;
  pp_hist ppf "wasted" e.wasted_h;
  pp_hist ppf "backoff" e.backoff_h;
  match top_stripes e 8 with
  | [] -> ()
  | top ->
      Format.fprintf ppf "    hot stripes:";
      List.iter (fun (s, c) -> Format.fprintf ppf " %d:%d" s c) top;
      Format.fprintf ppf "@\n"

(* Per-socket coherence/steal counters, maintained (uncharged) by the
   runtime's cost-model fast paths; adopted here so every Obs consumer
   sees them next to the engine metrics. *)
let per_socket () = Runtime.Topology.socket_counters ()

let pp_sockets ppf () =
  let s = per_socket () in
  let any = Array.exists (fun (h, m, st) -> h + m + st > 0) s in
  if Array.length s > 1 || any then begin
    Format.fprintf ppf "  sockets (%a):@\n" Runtime.Topology.pp
      (Runtime.Topology.get ());
    Array.iteri
      (fun i (h, m, st) ->
        Format.fprintf ppf "    s%d: hits=%d misses=%d steals=%d@\n" i h m st)
      s
  end

let sockets_to_json () =
  Json.List
    (Array.to_list
       (Array.mapi
          (fun i (h, m, st) ->
            Json.Obj
              [
                ("socket", Json.Int i);
                ("hits", Json.Int h);
                ("misses", Json.Int m);
                ("steals", Json.Int st);
              ])
          (per_socket ())))

let pp ppf () =
  Format.fprintf ppf "metrics:@\n";
  List.iter (pp_engine ppf) (List.rev !engines);
  if !sched_dispatches > 0 then
    Format.fprintf ppf "  sched: dispatches=%d switches=%d@\n"
      !sched_dispatches !sched_switches;
  pp_sockets ppf ();
  match gauge_values () with
  | [] -> ()
  | gs ->
      Format.fprintf ppf "  gauges:";
      List.iter (fun (n, v) -> Format.fprintf ppf " %s=%d" n v) gs;
      Format.fprintf ppf "@\n"

let engine_to_json e =
  Json.Obj
    [
      ("name", Json.Str e.name);
      ( "aborts",
        Json.Obj
          [
            ("ww", Json.Int e.ab_ww);
            ("rw", Json.Int e.ab_rw);
            ("killed", Json.Int e.ab_killed);
          ] );
      ( "cm",
        Json.Obj
          [
            ("abort_self", Json.Int e.cm_self);
            ("wait", Json.Int e.cm_wait);
            ("kill", Json.Int e.cm_kill);
            ("phase_shifts", Json.Int e.cm_shift);
            ("throttles", Json.Int e.cm_throttle);
            ("escalations", Json.Int e.escalations);
          ] );
      ("tx_cycles", Hist.to_json e.tx_h);
      ("commit_cycles", Hist.to_json e.commit_h);
      ("wasted_cycles", Hist.to_json e.wasted_h);
      ("backoff_cycles", Hist.to_json e.backoff_h);
      ( "hot_stripes",
        Json.List
          (List.map
             (fun (s, c) ->
               Json.Obj [ ("stripe", Json.Int s); ("conflicts", Json.Int c) ])
             (top_stripes e 16)) );
    ]

let to_json () =
  Json.Obj
    [
      ( "engines",
        Json.List (List.map engine_to_json (List.rev !engines)) );
      ( "sched",
        Json.Obj
          [
            ("dispatches", Json.Int !sched_dispatches);
            ("switches", Json.Int !sched_switches);
          ] );
      ("sockets", sockets_to_json ());
      ( "gauges",
        Json.Obj
          (List.map (fun (n, v) -> (n, Json.Int v)) (gauge_values ())) );
    ]

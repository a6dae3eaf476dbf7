(* Open-system service driver: arrivals → queue → simulated cores.

   The moving parts, and where their determinism comes from:
   - the arrival stream and the request→user assignment are pre-generated
     from dedicated Rng streams before any thread starts;
   - workers claim requests from a shared cursor; the read-increment pair
     has no tick between it, so under the cooperative simulator a claim
     is atomic and the claim order is a pure function of the schedule;
   - key popularity is sampled from a per-worker Zipf stream, *before*
     the transaction body, so every retry of a request touches the same
     keys (retries re-pay the service demand, not a fresh dice roll);
   - SLO recording ([Obs.Slo]) charges no cycles, so obs-on and obs-off
     runs take the same schedule.

   A request's life: it arrives at time [a]; some worker eventually
   claims it at time [t >= a] (if [t < a] the worker idles to [a],
   charged to the profiler's idle phase — the server is ahead of the
   offered load); the transaction then runs to commit, aborting and
   backing off as contention dictates.  Response time is
   [finish - a]; queue wait [start - a] is the congestion signal. *)

open Runtime

type config = {
  threads : int;
  users : int;
  keys : int;
  theta : float;
  browse_len : int;
  demand_cycles : int;
  arrivals : Arrival.spec;
  duration_cycles : int;
  window_cycles : int;
  slow_cutoff : int;
  seed : int;
  trace_window : int option;
}

let default =
  {
    threads = 8;
    users = 200_000;
    keys = 4096;
    theta = 0.9;
    browse_len = 4;
    demand_cycles = 400;
    arrivals = Arrival.Poisson { per_mcycle = 4000. };
    duration_cycles = 2_000_000;
    window_cycles = 250_000;
    slow_cutoff = 50_000;
    seed = 42;
    trace_window = None;
  }

type result = {
  elapsed_cycles : int;
  offered : int;
  completed : int;
  stats : Stm_intf.Stats.snapshot;
  summary : Obs.Slo.summary option;
  windows : Obs.Report.table list;
  trace : (string * Stm_intf.Trace.event array) option;
}

(* Rng streams (per seed): keep these disjoint from worker tids so the
   harness draws never collide with an engine-internal stream. *)
let stream_arrivals = 1009
let stream_users = 1013
let stream_sessions = 1019
let stream_zipf_base = 1100

type trace_ctl = {
  t_from : int;
  t_until : int;
  mutable t_armed : bool;
  mutable t_events : Stm_intf.Trace.event array option;
}

let trace_check ctl =
  let now = Exec.now () in
  if (not ctl.t_armed) && ctl.t_events = None && now >= ctl.t_from
     && now < ctl.t_until
  then begin
    ctl.t_armed <- true;
    Stm_intf.Trace.start ()
  end
  else if ctl.t_armed && now >= ctl.t_until then begin
    ctl.t_armed <- false;
    ctl.t_events <- Some (Stm_intf.Trace.stop ())
  end

let validate c =
  if c.threads <= 0 || c.threads > Stm_intf.Stats.max_threads then
    invalid_arg "Service: bad thread count";
  if c.users <= 0 then invalid_arg "Service: users <= 0";
  if c.keys < 2 then invalid_arg "Service: keys < 2";
  if c.browse_len < 0 then invalid_arg "Service: browse_len < 0";
  if c.duration_cycles <= 0 then invalid_arg "Service: duration <= 0";
  if c.window_cycles <= 0 then invalid_arg "Service: window <= 0"

(* Session state machine: 0 = logged out (next request: login),
   1..browse_len = browsing, browse_len + 1 = ready to check out. *)

let run ?(obs = true) ?label spec c =
  validate c;
  let heap = Memory.Heap.create ~words:(c.users + c.keys + 128) in
  let base = Memory.Heap.alloc heap (c.users + c.keys) in
  let ubase = base and kbase = base + c.users in
  for k = 0 to c.keys - 1 do
    Memory.Heap.write heap (kbase + k) 1_000_000
  done;
  let engine = Engines.make spec heap in
  let times =
    Arrival.generate ~stream:stream_arrivals ~seed:c.seed
      ~until:c.duration_cycles c.arrivals
  in
  let n = Array.length times in
  let urng = Rng.for_thread ~seed:c.seed ~tid:stream_users in
  let req_user = Array.init n (fun _ -> Rng.int urng c.users) in
  (* Users start mid-session (uniform over the state machine): with a
     population far larger than the request count, most users are seen
     once per run, and an all-logged-out start would mean nothing but
     login traffic — the stationary state mix is the realistic one. *)
  let srng = Rng.for_thread ~seed:c.seed ~tid:stream_sessions in
  let session =
    Array.init c.users (fun _ -> Rng.int srng (c.browse_len + 2))
  in
  let tctl =
    Option.map
      (fun w ->
        {
          t_from = w * c.window_cycles;
          t_until = (w + 1) * c.window_cycles;
          t_armed = false;
          t_events = None;
        })
      c.trace_window
  in
  if obs then begin
    Obs.Metrics.reset ();
    Obs.Slo.reset ();
    Obs.Metrics.enable ();
    Obs.Slo.enable ~window_cycles:c.window_cycles ~slow_cutoff:c.slow_cutoff
      ();
    Array.iter (fun t -> Obs.Slo.note_arrival ~time:t) times
  end;
  let cursor = ref 0 in
  let done_ops = Array.make c.threads 0 in
  let checkout_state = c.browse_len + 1 in
  let body tid =
    let z =
      Zipf.create ~stream:(stream_zipf_base + tid) ~seed:c.seed ~n:c.keys
        ~theta:c.theta ()
    in
    let continue = ref true in
    while !continue do
      let i = !cursor in
      if i >= n then continue := false
      else begin
        cursor := i + 1;
        (match tctl with Some ctl -> trace_check ctl | None -> ());
        let arrival = times.(i) in
        Exec.idle_until arrival;
        let user = req_user.(i) in
        let started = Exec.now () in
        let state = session.(user) in
        (if state = 0 then begin
           (* login: touch the session word, read one catalog page *)
           let k = Zipf.next z in
           Stm_intf.Engine.atomic engine ~tid (fun ops ->
               Exec.tick c.demand_cycles;
               let v = Stm_intf.Engine.read ops (ubase + user) in
               Stm_intf.Engine.write ops (ubase + user) (v + 1);
               ignore (Stm_intf.Engine.read ops (kbase + k)))
         end
         else if state < checkout_state then begin
           (* browse: read-mostly catalog lookups *)
           let k0 = Zipf.next z
           and k1 = Zipf.next z
           and k2 = Zipf.next z
           and k3 = Zipf.next z in
           Stm_intf.Engine.atomic engine ~tid (fun ops ->
               Exec.tick c.demand_cycles;
               ignore (Stm_intf.Engine.read ops (kbase + k0));
               ignore (Stm_intf.Engine.read ops (kbase + k1));
               ignore (Stm_intf.Engine.read ops (kbase + k2));
               ignore (Stm_intf.Engine.read ops (kbase + k3)))
         end
         else begin
           (* checkout: decrement stock on two Zipf-hot keys — the
              contention source of the whole workload.  The stock
              updates come FIRST and the payment-processing demand is
              ticked while they are pending, so engines with eager
              write locks hold the hot words for the whole demand
              window and lazy ones revalidate across it: a realistic
              worst case for write-write collisions. *)
           let k0 = Zipf.next z and k1 = Zipf.next z in
           Stm_intf.Engine.atomic engine ~tid (fun ops ->
               let s0 = Stm_intf.Engine.read ops (kbase + k0) in
               Stm_intf.Engine.write ops (kbase + k0) (s0 - 1);
               if k1 <> k0 then begin
                 let s1 = Stm_intf.Engine.read ops (kbase + k1) in
                 Stm_intf.Engine.write ops (kbase + k1) (s1 - 1)
               end;
               Exec.tick (2 * c.demand_cycles);
               let v = Stm_intf.Engine.read ops (ubase + user) in
               Stm_intf.Engine.write ops (ubase + user) (v + 100))
         end);
        session.(user) <- (if state >= checkout_state then 0 else state + 1);
        done_ops.(tid) <- done_ops.(tid) + 1;
        (* The thread's current descriptor is the request's transaction's. *)
        Obs.Slo.record Cm.Cm_intf.current.(tid).obs ~arrival ~started
          ~finished:(Exec.now ())
      end
    done
  in
  let finish () =
    (match tctl with
    | Some ctl when ctl.t_armed ->
        ctl.t_armed <- false;
        ctl.t_events <- Some (Stm_intf.Trace.stop ())
    | _ -> ());
    if obs then begin
      Obs.Slo.disable ();
      Obs.Metrics.disable ()
    end
  in
  let elapsed =
    Fun.protect ~finally:finish (fun () ->
        Sim.run_threads ~threads:c.threads body)
  in
  let summary, windows =
    if obs then
      let name = Option.value label ~default:(Engines.name spec) in
      (Some (Obs.Slo.summarize ()), Obs.Slo.window_tables ~name ())
    else (None, [])
  in
  if obs then begin
    Obs.Slo.reset ();
    Obs.Metrics.reset ()
  end;
  let trace =
    match tctl with
    | Some ctl -> (
        match ctl.t_events with
        | Some evs ->
            Some
              ( Printf.sprintf "%s/window-%d" (Stm_intf.Engine.name engine)
                  (Option.value c.trace_window ~default:0),
                evs )
        | None -> None)
    | None -> None
  in
  {
    elapsed_cycles = elapsed;
    offered = n;
    completed = Array.fold_left ( + ) 0 done_ops;
    stats = Stm_intf.Engine.stats engine;
    summary;
    windows;
    trace;
  }

let per_mcycle count r =
  if r.elapsed_cycles <= 0 then 0.
  else 1e6 *. float_of_int count /. float_of_int r.elapsed_cycles

let goodput_per_mcycle r = per_mcycle r.completed r
let offered_per_mcycle r = per_mcycle r.offered r

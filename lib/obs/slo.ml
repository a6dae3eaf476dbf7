(* Windowed SLO metrics for open-system (service) runs.

   Follows the PR-3 collector discipline: OFF by default, armed around a
   run, and no hook charges simulated cycles — an SLO-metered service run
   takes a bit-identical schedule to an unmetered one.  The response-time
   attribution reads the sums of the thread's [Metrics.thread] record
   (fed by the existing engine hooks) and clears them, so arming Slo
   requires [Metrics.enable] and adds zero new engine call sites.

   Percentile resolution: the service gate compares p99.9/p50 ratios
   *between* engines, which [Rhist]'s 32 sub-buckets per octave (~3 %
   relative error) make meaningful. *)

module Rhist = Rhist

(* --- window store ------------------------------------------------------- *)

type win = {
  start : int;
  mutable arrivals : int;
  mutable completions : int;
  resp : Rhist.t;
  mutable queue_cycles : int;
  mutable abort_cycles : int;
  mutable backoff_cycles : int;
  mutable exec_cycles : int;
  mutable retries : int;
  mutable escalations : int;
  mutable throttles : int;
  mutable slow : int;
  mutable slow_queue : int;
  mutable slow_abort : int;
  mutable slow_backoff : int;
}

let on = ref false
let win_cycles = ref 1_000_000
let slow_cutoff = ref max_int
let wins : win option array ref = ref [||]

let enable ~window_cycles:wc ?slow_cutoff:(cutoff = max_int) () =
  if wc <= 0 then invalid_arg "Slo.enable: window_cycles <= 0";
  win_cycles := wc;
  slow_cutoff := cutoff;
  on := true

let disable () = on := false

let reset () = wins := [||]

let new_win start =
  {
    start;
    arrivals = 0;
    completions = 0;
    resp = Rhist.create ();
    queue_cycles = 0;
    abort_cycles = 0;
    backoff_cycles = 0;
    exec_cycles = 0;
    retries = 0;
    escalations = 0;
    throttles = 0;
    slow = 0;
    slow_queue = 0;
    slow_abort = 0;
    slow_backoff = 0;
  }

let win_at time =
  let i = if time < 0 then 0 else time / !win_cycles in
  let a = !wins in
  let n = Array.length a in
  if i >= n then begin
    let n' = max (i + 1) (max 8 (2 * n)) in
    let a' = Array.make n' None in
    Array.blit a 0 a' 0 n;
    wins := a'
  end;
  match (!wins).(i) with
  | Some w -> w
  | None ->
      let w = new_win (i * !win_cycles) in
      (!wins).(i) <- Some w;
      w

(* --- harness hooks ------------------------------------------------------ *)

let note_arrival ~time =
  if !on then begin
    let w = win_at time in
    w.arrivals <- w.arrivals + 1
  end

let record (t : Metrics.thread) ~arrival ~started ~finished =
  if !on then begin
    let w = win_at finished in
    let resp = finished - arrival in
    let queue = if started > arrival then started - arrival else 0 in
    let wasted = t.wasted_cycles and backoff = t.backoff_cycles in
    let exec = max 0 (resp - queue - wasted - backoff) in
    w.completions <- w.completions + 1;
    Rhist.observe w.resp resp;
    w.queue_cycles <- w.queue_cycles + queue;
    w.abort_cycles <- w.abort_cycles + wasted;
    w.backoff_cycles <- w.backoff_cycles + backoff;
    w.exec_cycles <- w.exec_cycles + exec;
    w.retries <- w.retries + t.retries;
    w.escalations <- w.escalations + t.escalations;
    w.throttles <- w.throttles + t.throttles;
    if resp >= !slow_cutoff then begin
      w.slow <- w.slow + 1;
      w.slow_queue <- w.slow_queue + queue;
      w.slow_abort <- w.slow_abort + wasted;
      w.slow_backoff <- w.slow_backoff + backoff
    end;
    t.retries <- 0;
    t.wasted_cycles <- 0;
    t.backoff_cycles <- 0;
    t.escalations <- 0;
    t.throttles <- 0
  end

(* --- reporting ---------------------------------------------------------- *)

type summary = {
  s_requests : int;
  s_p50 : int;
  s_p95 : int;
  s_p999 : int;
  s_max : int;
  s_tail_amplification : float;
  s_queue_cycles : int;
  s_abort_cycles : int;
  s_backoff_cycles : int;
  s_exec_cycles : int;
  s_retries : int;
  s_escalations : int;
  s_throttles : int;
}

let summarize ?(from_cycles = 0) ?(to_cycles = max_int) () =
  let h = Rhist.create () in
  let queue = ref 0
  and ab = ref 0
  and bo = ref 0
  and ex = ref 0
  and rt = ref 0
  and esc = ref 0
  and thr = ref 0 in
  Array.iter
    (function
      | Some w when w.start >= from_cycles && w.start < to_cycles ->
          Rhist.merge_into w.resp ~into:h;
          queue := !queue + w.queue_cycles;
          ab := !ab + w.abort_cycles;
          bo := !bo + w.backoff_cycles;
          ex := !ex + w.exec_cycles;
          rt := !rt + w.retries;
          esc := !esc + w.escalations;
          thr := !thr + w.throttles
      | _ -> ())
    !wins;
  let p50 = Rhist.quantile h 0.5 and p999 = Rhist.quantile h 0.999 in
  {
    s_requests = Rhist.count h;
    s_p50 = p50;
    s_p95 = Rhist.quantile h 0.95;
    s_p999 = p999;
    s_max = Rhist.max_value h;
    s_tail_amplification =
      (if p50 <= 0 then 0. else float_of_int p999 /. float_of_int p50);
    s_queue_cycles = !queue;
    s_abort_cycles = !ab;
    s_backoff_cycles = !bo;
    s_exec_cycles = !ex;
    s_retries = !rt;
    s_escalations = !esc;
    s_throttles = !thr;
  }

(* The non-empty windows, labelled by start cycle, as a latency table
   and an attribution table. *)
let window_tables ~name () =
  let ws =
    Array.to_list !wins
    |> List.filter_map (function
         | Some w when w.arrivals > 0 || w.completions > 0 -> Some w
         | _ -> None)
  in
  let table what unit_ columns f =
    Report.table
      (Printf.sprintf "%s SLO windows of %d cycles: %s" name !win_cycles what)
      unit_ columns
      (List.map (fun w -> (string_of_int w.start, List.map float_of_int (f w))) ws)
  in
  let q w p = Rhist.quantile w.resp p in
  [
    table "latency" "requests, cycles"
      [ "arrivals"; "completions"; "p50"; "p95"; "p99.9"; "max"; "retries"; "escalations";
        "throttles" ]
      (fun w ->
        [ w.arrivals; w.completions; q w 0.5; q w 0.95; q w 0.999; Rhist.max_value w.resp;
          w.retries; w.escalations; w.throttles ]);
    table "attribution" "cycles, requests"
      [ "queue"; "abort"; "backoff"; "exec"; "slow"; "slow queue"; "slow abort"; "slow backoff" ]
      (fun w ->
        [ w.queue_cycles; w.abort_cycles; w.backoff_cycles; w.exec_cycles; w.slow; w.slow_queue;
          w.slow_abort; w.slow_backoff ]);
  ]

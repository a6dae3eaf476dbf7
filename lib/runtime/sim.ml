(* Deterministic discrete-event scheduler for simulated threads.

   Each thread is an OCaml 5 fiber.  Threads advance their private virtual
   clocks through [Exec.tick]; which runnable thread gets resumed — and for
   how long — is decided by a pluggable *policy*:

   - [Earliest_first] (the default): always resume the runnable thread with
     the smallest virtual time (ties broken by thread id).  A thread keeps
     running without a context switch for as long as it remains the
     earliest one; the resulting schedule is identical to switching on
     every tick, minus the overhead.  This is the policy every benchmark
     runs under: it is the one that makes virtual makespans meaningful.

   - [Random _]: seeded perturbation for schedule exploration.  Each
     decision picks uniformly among the live threads whose clocks are
     within [window] cycles of the minimum and runs the winner for a
     random quantum.  Clocks still advance monotonically, so no thread
     starves (a lagging thread is eventually the minimum and therefore
     always a candidate), but tie-breaks and preemption points differ per
     seed — each seed is one more interleaving of the same program.

   - [Pct _]: PCT-style priority scheduling (Burckhardt et al., ASPLOS
     2010) with [depth - 1] priority-change points spread over [horizon]
     virtual cycles.  The highest-priority live thread runs; at each
     change point the running thread's priority drops below everyone
     else's.  A thread that yields without progress (a spin loop blocked
     on a lock, [Exec.blocked_yield]) is likewise demoted so the lock
     owner can run — the standard PCT treatment of yields, and the reason
     the policy cannot livelock on the engines' spin-wait loops.

   All three are deterministic functions of (bodies, policy): same seed,
   same schedule — which is what makes a failing fuzzer triple
   (policy, seed, program) replayable. *)

exception Timeout of int
(** Raised when every live thread's virtual clock passed the [cap_cycles]
    safety limit — in this codebase that means a livelock bug. *)

exception Nested_simulation

type policy =
  | Earliest_first
  | Random of { seed : int; window : int; quantum : int }
  | Pct of { seed : int; depth : int; horizon : int }

let random_policy ?(window = 5_000) ?(quantum = 2_000) seed =
  Random { seed; window; quantum }

let pct_policy ?(depth = 3) ?(horizon = 2_000_000) seed =
  Pct { seed; depth; horizon }

let policy_name = function
  | Earliest_first -> "earliest"
  | Random { seed; _ } -> Printf.sprintf "random:%d" seed
  | Pct { seed; depth; _ } -> Printf.sprintf "pct:%d(d=%d)" seed depth

type state = {
  conts : (unit, unit) Effect.Deep.continuation option array;
      (* the last continuation a thread parked; [None] until it starts *)
  finished : bool array;
  vtimes : int array;
}

(* [park] is built once per thread (the [Exec.Yield] match fixes [a =
   unit]), so a yield allocates only the [Some k] it parks. *)
let make_handler st tid =
  let park = Some (fun k -> st.conts.(tid) <- Some k) in
  {
    Effect.Deep.retc = (fun () -> st.finished.(tid) <- true);
    exnc =
      (fun e ->
        (* re-raise with the thread body's backtrace, not this frame's *)
        Printexc.raise_with_backtrace e (Printexc.get_raw_backtrace ()));
    effc =
      (fun (type a) (eff : a Effect.t) :
           ((a, unit) Effect.Deep.continuation -> unit) option ->
        match eff with Exec.Yield -> park | _ -> None);
  }

(* Observability hook (installed by lib/obs): called with the thread id on
   every dispatch decision, before the thread is resumed.  Same ref-pair
   discipline as the Trace hooks: one load + one branch when off, and the
   hook must not charge cycles or touch scheduler state. *)
let on_dispatch : (int -> unit) ref = ref (fun _ -> ())
let on_dispatch_enabled = ref false

(* Resume thread [tid] until it yields or finishes; decrement [alive] when
   it finished.  Shared by every policy loop.  The resumed continuation is
   left in its slot, spent, rather than cleared (a second write barrier
   per dispatch): the thread parks a fresh one before it can be stepped
   again, and resuming a spent one raises instead of running. *)
let step st bodies alive tid =
  if !on_dispatch_enabled then !on_dispatch tid;
  Exec.cur := tid;
  Exec.blocked_yield := false;
  (match st.conts.(tid) with
  | Some k -> Effect.Deep.continue k ()
  | None -> Effect.Deep.match_with bodies.(tid) () (make_handler st tid));
  Exec.cur := -1;
  if st.finished.(tid) then decr alive

(* --- indexed heap ------------------------------------------------------ *)

(* Indexed binary heap over thread ids, ordered by [(key.(tid), tid)]
   over a caller-owned [int array] (clocks, or PCT's negated priorities)
   with an inlined compare.  It replaced O(n) per-dispatch linear
   searches, which at 512 simulated threads made every policy loop
   quadratic in the schedule length.  Only the just-stepped thread's key
   ever changes (its clock moved, or PCT demoted it), so each dispatch
   costs one O(log n) [fix] plus O(1) reads — and the order is exactly
   the linear searches' tie-break, so schedules are bit-identical to
   theirs (pinned by the dispatch suite's frozen digests and the frozen
   sb7 matrix). *)
module Iheap = struct
  type t = {
    heap : int array;  (* position -> tid *)
    pos : int array;  (* tid -> position, -1 once removed *)
    key : int array;  (* tid -> key, written by the caller *)
    mutable size : int;
  }

  let[@inline] less h a b =
    let ka = h.key.(a) and kb = h.key.(b) in
    ka < kb || (ka = kb && a < b)

  let swap h i j =
    let a = h.heap.(i) and b = h.heap.(j) in
    h.heap.(i) <- b;
    h.heap.(j) <- a;
    h.pos.(b) <- i;
    h.pos.(a) <- j

  let rec sift_up h i =
    if i > 0 then begin
      let p = (i - 1) / 2 in
      if less h h.heap.(i) h.heap.(p) then begin
        swap h i p;
        sift_up h p
      end
    end

  let rec sift_down h i =
    let l = (2 * i) + 1 in
    if l < h.size then begin
      let m =
        if l + 1 < h.size && less h h.heap.(l + 1) h.heap.(l) then l + 1
        else l
      in
      if less h h.heap.(m) h.heap.(i) then begin
        swap h i m;
        sift_down h m
      end
    end

  let make key =
    let n = Array.length key in
    let h =
      { heap = Array.init n Fun.id; pos = Array.init n Fun.id; key; size = n }
    in
    for i = (n / 2) - 1 downto 0 do
      sift_down h i
    done;
    h

  let min h = h.heap.(0)

  (* Restore the invariant after tid's key changed in either direction. *)
  let fix h tid =
    sift_down h h.pos.(tid);
    sift_up h h.pos.(tid)

  let remove h tid =
    let i = h.pos.(tid) in
    let last = h.size - 1 in
    h.size <- last;
    h.pos.(tid) <- -1;
    if i <> last then begin
      let moved = h.heap.(last) in
      h.heap.(i) <- moved;
      h.pos.(moved) <- i;
      fix h moved
    end
end

(* --- policy loops ------------------------------------------------------- *)

(* The benchmark policy: always the earliest live thread, preempted when it
   ticks past the second-earliest clock (clamped to the cap, so even a lone
   runaway thread yields back and the timeout check fires). *)
let run_earliest st bodies alive cap_cycles =
  let h = Iheap.make st.vtimes in
  while !alive > 0 do
    let best = Iheap.min h in
    let best_t = st.vtimes.(best) in
    if best_t > cap_cycles then raise (Timeout best_t);
    (* The second-smallest element under the heap's total order is one of
       the root's children, and — the order being vtime-major — carries
       the second-smallest vtime. *)
    let second = ref max_int in
    if h.Iheap.size > 1 then second := st.vtimes.(h.Iheap.heap.(1));
    if h.Iheap.size > 2 then
      second := Int.min !second st.vtimes.(h.Iheap.heap.(2));
    Exec.next_deadline := Int.min !second cap_cycles;
    step st bodies alive best;
    if st.finished.(best) then Iheap.remove h best else Iheap.fix h best
  done

(* Seeded perturbation: pick uniformly among live threads within [window]
   cycles of the minimum clock, run the winner for a random quantum. *)
let run_random st bodies alive n cap_cycles ~seed ~window ~quantum =
  let rng = Rng.create seed in
  let h = Iheap.make st.vtimes in
  let cand = Array.make n 0 in
  while !alive > 0 do
    let min_t = st.vtimes.(Iheap.min h) in
    if min_t > cap_cycles then raise (Timeout min_t);
    let limit = min_t + window in
    (* Collect the candidate set by descending the heap and pruning where
       the clock passes [limit] (clocks are nondecreasing along any
       root-to-leaf path), then sort by tid so the pick index enumerates
       the candidates in ascending tid order. *)
    let count = ref 0 in
    let rec visit i =
      if i < h.Iheap.size then begin
        let tid = h.Iheap.heap.(i) in
        if st.vtimes.(tid) <= limit then begin
          cand.(!count) <- tid;
          incr count;
          visit ((2 * i) + 1);
          visit ((2 * i) + 2)
        end
      end
    in
    visit 0;
    for i = 1 to !count - 1 do
      let x = cand.(i) in
      let j = ref i in
      while !j > 0 && cand.(!j - 1) > x do
        cand.(!j) <- cand.(!j - 1);
        decr j
      done;
      cand.(!j) <- x
    done;
    let pick = Rng.int rng !count in
    let tid = cand.(pick) in
    Exec.next_deadline :=
      Int.min (st.vtimes.(tid) + 1 + Rng.int rng quantum) cap_cycles;
    step st bodies alive tid;
    if st.finished.(tid) then Iheap.remove h tid else Iheap.fix h tid
  done

(* PCT: random static priorities, [depth - 1] change points over [horizon]
   cycles of cumulative progress, blocked yields demote the spinner.

   One addition over textbook PCT: no thread may run more than [4 *
   horizon] cycles ahead of the slowest live thread without being
   demoted.  PCT assumes the running thread makes global progress, but an
   abort-retry duel (e.g. the timid CM aborting the attacker against a
   preempted lock holder) spins at top priority without ever performing a
   blocked yield; under earliest-first the duel self-heals because the
   spinner's clock overtakes the victim's, so only priority policies need
   the explicit lag bound.  It restores starvation freedom and keeps the
   schedule deterministic. *)
let run_pct st bodies alive n cap_cycles ~seed ~depth ~horizon =
  let rng = Rng.create seed in
  let neg_prio = Array.init n (fun i -> i) in
  Rng.shuffle rng neg_prio;
  Array.map_inplace Int.neg neg_prio;
  let floor_neg = ref 1 in
  let change_points =
    Array.init (Int.max 0 (depth - 1)) (fun _ -> Rng.int rng horizon)
  in
  Array.sort compare change_points;
  let next_change = ref 0 in
  let progressed = ref 0 in
  let lag = 4 * horizon in
  (* Two heaps: clocks for the timeout/lag minimum, negated priorities
     for the selection.  Priorities are unique (a permutation, then each
     demotion a fresh value below all), so the tid tie-break never fires
     and the min-heap runs exactly the highest priority. *)
  let vh = Iheap.make st.vtimes in
  let ph = Iheap.make neg_prio in
  while !alive > 0 do
    let min_t = st.vtimes.(Iheap.min vh) in
    if min_t > cap_cycles then raise (Timeout min_t);
    let tid = Iheap.min ph in
    let until_change =
      if !next_change < Array.length change_points then
        Int.max 1 (change_points.(!next_change) - !progressed)
      else max_int
    in
    let before = st.vtimes.(tid) in
    let lag_deadline = min_t + lag in
    let change_deadline =
      if until_change = max_int then max_int else before + until_change
    in
    Exec.next_deadline :=
      Int.min (Int.min change_deadline lag_deadline) cap_cycles;
    step st bodies alive tid;
    progressed := !progressed + (st.vtimes.(tid) - before);
    let fin = st.finished.(tid) in
    if fin then begin
      Iheap.remove vh tid;
      Iheap.remove ph tid
    end
    else Iheap.fix vh tid;
    if
      !next_change < Array.length change_points
      && !progressed >= change_points.(!next_change)
    then begin
      neg_prio.(tid) <- !floor_neg;
      incr floor_neg;
      incr next_change;
      if not fin then Iheap.fix ph tid
    end
    else if
      (not fin) && (!Exec.blocked_yield || st.vtimes.(tid) >= lag_deadline)
    then begin
      neg_prio.(tid) <- !floor_neg;
      incr floor_neg;
      Iheap.fix ph tid
    end
  done

(** [run bodies] executes all thread bodies to completion under the
    simulated scheduler and returns the final per-thread virtual times.
    [cap_cycles] (default 10^12) bounds any thread's virtual clock and turns
    livelocks into a [Timeout].  [policy] selects the schedule (default
    {!Earliest_first}); all policies are deterministic given their seed. *)
let run ?(cap_cycles = 1_000_000_000_000) ?(policy = Earliest_first)
    (bodies : (unit -> unit) array) =
  if Exec.in_sim () then raise Nested_simulation;
  let n = Array.length bodies in
  if n = 0 then [||]
  else begin
    let st =
      {
        conts = Array.make n None;
        finished = Array.make n false;
        vtimes = Array.make n 0;
      }
    in
    let saved_vtimes = !Exec.vtimes and saved_deadline = !Exec.next_deadline in
    Exec.vtimes := st.vtimes;
    let cleanup () =
      Exec.cur := -1;
      Exec.vtimes := saved_vtimes;
      Exec.next_deadline := saved_deadline
    in
    Fun.protect ~finally:cleanup (fun () ->
        let alive = ref n in
        (match policy with
        | Earliest_first -> run_earliest st bodies alive cap_cycles
        | Random { seed; window; quantum } ->
            run_random st bodies alive n cap_cycles ~seed ~window ~quantum
        | Pct { seed; depth; horizon } ->
            run_pct st bodies alive n cap_cycles ~seed ~depth ~horizon);
        Array.copy st.vtimes)
  end

(** Convenience wrapper: run [threads] copies of [body tid] and return the
    maximum final virtual time (the simulated makespan, in cycles). *)
let run_threads ?cap_cycles ?policy ~threads body =
  let vts =
    run ?cap_cycles ?policy (Array.init threads (fun tid () -> body tid))
  in
  Array.fold_left max 0 vts

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
  bits : int;  (* width of the tid field of a packed key *)
  clock_max : int;  (* a larger clock saturates to it in a key *)
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

(* --- dispatch tree -------------------------------------------------------

   A winner (tournament) tree over thread ids.  Thread [tid]'s leaf holds
   one packed key, [(k lsl bits) lor tid], so comparing keys compares
   [(k, tid)] pairs: the key is a clock, or a PCT priority rank, with the
   tid as tie-break.  Each internal node holds the min of its children,
   so the root is the earliest [(k, tid)].  [bmin] takes that min without
   a branch: the compares it replaces depend on clocks, mispredict, and
   were most of the cost of the indexed heap this tree replaced (a linear
   search over the same keys cost as much).  Keys are non-negative so
   [a - b] cannot overflow; finished threads and the padding leaves of a
   thread count that is not a power of two hold [empty].  Only the
   stepped thread's key changes per dispatch, and its path is rewritten
   in place, so dispatch allocates nothing.  The order is the heap's and
   the old linear searches' exactly: the dispatch suite pins it. *)

let empty = max_int

let[@inline] bmin a b =
  let d = a - b in
  b + (d land (d asr 62))

let[@inline] pack st k tid = (k lsl st.bits) lor tid

(* A clock past [clock_max] is past the cap and every random window, so
   its key saturates rather than overflows. *)
let[@inline] clock_key st tid =
  pack st (bmin st.vtimes.(tid) st.clock_max) tid

module Tree = struct
  (* [node.(1)] is the root, [node.(leaves + tid)] tid's leaf and
     [node.(i)] the min of [node.(2i)] and [node.(2i + 1)]; walks index
     the array unchecked, within [1, 2 * leaves). *)
  type t = { node : int array; leaves : int }

  let make st n key =
    let leaves = 1 lsl st.bits in
    let node = Array.make (2 * leaves) empty in
    for tid = 0 to n - 1 do
      node.(leaves + tid) <- key tid
    done;
    for i = leaves - 1 downto 1 do
      node.(i) <- bmin node.(2 * i) node.((2 * i) + 1)
    done;
    { node; leaves }

  let[@inline] root t = Array.unsafe_get t.node 1
  let[@inline] tid t key = key land (t.leaves - 1)

  (* The smallest key but [tid]'s: the min over the siblings on its path. *)
  let rest t tid =
    let i = ref (t.leaves + tid) and m = ref empty in
    while !i > 1 do
      m := bmin !m (Array.unsafe_get t.node (!i lxor 1));
      i := !i lsr 1
    done;
    !m

  (* Set [tid]'s leaf to [k], carrying a running min up its path: one
     sibling load per level. *)
  let set t tid k =
    let i = ref (t.leaves + tid) and m = ref k in
    Array.unsafe_set t.node !i k;
    while !i > 1 do
      m := bmin !m (Array.unsafe_get t.node (!i lxor 1));
      i := !i lsr 1;
      Array.unsafe_set t.node !i !m
    done

  (* Append to [cand] every tid whose key is at most [limit], in tid
     order: a left-to-right descent from node [i] that prunes subtrees
     whose min passes [limit].  Returns the new count. *)
  let rec collect t limit cand count i =
    if Array.unsafe_get t.node i > limit then count
    else if i >= t.leaves then begin
      cand.(count) <- i - t.leaves;
      count + 1
    end
    else collect t limit cand (collect t limit cand count (2 * i)) ((2 * i) + 1)
end

(* The [Timeout] payload: the smallest live clock (a key may saturate). *)
let timeout st =
  let m = ref max_int in
  Array.iteri
    (fun tid v -> if not st.finished.(tid) then m := Int.min !m v)
    st.vtimes;
  raise (Timeout !m)

(* --- policy loops ------------------------------------------------------- *)

(* The benchmark policy: always the earliest live thread, preempted when it
   ticks past the second-earliest clock (clamped to the cap, so even a lone
   runaway thread yields back and the timeout check fires). *)
let run_earliest st bodies alive cap_cycles =
  let t = Tree.make st (Array.length bodies) (clock_key st) in
  while !alive > 0 do
    let best = Tree.root t in
    if best asr st.bits > cap_cycles then timeout st;
    let tid = Tree.tid t best in
    Exec.next_deadline := bmin (Tree.rest t tid asr st.bits) cap_cycles;
    step st bodies alive tid;
    Tree.set t tid (if st.finished.(tid) then empty else clock_key st tid)
  done

(* Seeded perturbation: pick uniformly among live threads within [window]
   cycles of the minimum clock, in tid order, and run the winner for a
   random quantum. *)
let run_random st bodies alive n cap_cycles ~seed ~window ~quantum =
  let rng = Rng.create seed in
  let t = Tree.make st n (clock_key st) in
  let cand = Array.make n 0 in
  while !alive > 0 do
    let min_t = Tree.root t asr st.bits in
    if min_t > cap_cycles then timeout st;
    let limit = pack st (min_t + window) (t.Tree.leaves - 1) in
    let count = Tree.collect t limit cand 0 1 in
    let tid = cand.(Rng.int rng count) in
    Exec.next_deadline :=
      Int.min (st.vtimes.(tid) + 1 + Rng.int rng quantum) cap_cycles;
    step st bodies alive tid;
    Tree.set t tid (if st.finished.(tid) then empty else clock_key st tid)
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
  let perm = Array.init n Fun.id in
  Rng.shuffle rng perm;
  let change_points =
    Array.init (Int.max 0 (depth - 1)) (fun _ -> Rng.int rng horizon)
  in
  Array.sort compare change_points;
  let next_change = ref 0 in
  let progressed = ref 0 in
  let lag = 4 * horizon in
  (* Two trees: clocks for the timeout/lag minimum, priority ranks for the
     selection.  Rank [n - 1 - perm.(tid)] puts the highest static
     priority first, and each demotion takes a fresh rank below all
     ([floor]), so ranks are unique and the tid tie-break never fires. *)
  let vt = Tree.make st n (clock_key st) in
  let pt = Tree.make st n (fun tid -> pack st (n - 1 - perm.(tid)) tid) in
  let floor = ref n in
  while !alive > 0 do
    let min_t = Tree.root vt asr st.bits in
    if min_t > cap_cycles then timeout st;
    let tid = Tree.tid pt (Tree.root pt) in
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
    Tree.set vt tid (if fin then empty else clock_key st tid);
    let demote =
      if
        !next_change < Array.length change_points
        && !progressed >= change_points.(!next_change)
      then begin
        incr next_change;
        true
      end
      else
        (not fin) && (!Exec.blocked_yield || st.vtimes.(tid) >= lag_deadline)
    in
    if fin then Tree.set pt tid empty
    else if demote then Tree.set pt tid (pack st !floor tid);
    if demote then incr floor
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
    let rec tid_bits b = if 1 lsl b >= n then b else tid_bits (b + 1) in
    let bits = tid_bits 0 in
    let clock_max = (max_int asr bits) - 1 in
    (* Every clock a decision compares, up to the cap plus the random
       window, must pack exactly beside a tid. *)
    let window = match policy with Random r -> Int.max 0 r.window | _ -> 0 in
    if cap_cycles >= clock_max - window then
      invalid_arg
        (Printf.sprintf
           "Sim.run: cap_cycles %d + window %d does not pack beside %d \
            thread ids (max %d)"
           cap_cycles window n (clock_max - window - 1));
    let st =
      {
        conts = Array.make n None;
        finished = Array.make n false;
        vtimes = Array.make n 0;
        bits;
        clock_max;
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

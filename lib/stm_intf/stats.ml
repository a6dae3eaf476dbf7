(* Per-thread transaction statistics.

   A [t] is one thread's counters, embedded in that thread's descriptor:
   only its own thread writes it, so no synchronisation is needed and
   counting does not perturb the cache model.  An engine's snapshot sums
   its descriptors' counters. *)

(* Must stay a power of two ([Serial] masks tids with it) and within the
   topology's core ceiling (thread tids index per-socket placement). *)
let max_threads = 512
let () = assert (max_threads <= Runtime.Topology.max_cores)

type t = {
  mutable commits : int;
  mutable aborts_ww : int;
  mutable aborts_rw : int;
  mutable aborts_killed : int;
  mutable waits : int;
  mutable cycles_wasted : int;
  mutable reads : int;
  mutable writes : int;
  mutable consec_aborts : int;  (* current run of aborts without a commit *)
  mutable max_consec_aborts : int;  (* worst such run *)
}

type snapshot = {
  s_commits : int;
  s_aborts_ww : int;
  s_aborts_rw : int;
  s_aborts_killed : int;
  s_waits : int;
  s_backoffs : int;
  s_cycles_wasted : int;
  s_reads : int;
  s_writes : int;
  s_max_consecutive_aborts : int;
      (* worst consecutive-abort run of any single thread: the starvation
         bound the adaptive CM's escalation is required to enforce *)
}

let create () =
  {
    commits = 0;
    aborts_ww = 0;
    aborts_rw = 0;
    aborts_killed = 0;
    waits = 0;
    cycles_wasted = 0;
    reads = 0;
    writes = 0;
    consec_aborts = 0;
    max_consec_aborts = 0;
  }

let commit t =
  t.commits <- t.commits + 1;
  t.consec_aborts <- 0
let[@inline] wait t = t.waits <- t.waits + 1
let[@inline] read t = t.reads <- t.reads + 1
let[@inline] write t = t.writes <- t.writes + 1
let wasted t ~cycles = t.cycles_wasted <- t.cycles_wasted + cycles

let abort t (reason : Tx_signal.abort_reason) =
  (match reason with
  | Ww_conflict -> t.aborts_ww <- t.aborts_ww + 1
  | Rw_validation -> t.aborts_rw <- t.aborts_rw + 1
  | Killed -> t.aborts_killed <- t.aborts_killed + 1);
  let c = t.consec_aborts + 1 in
  t.consec_aborts <- c;
  if c > t.max_consec_aborts then t.max_consec_aborts <- c

(* Back-offs are counted in the thread's contention-manager record, not
   here: the caller that owns both fills [s_backoffs] in. *)
let snapshot t =
  {
    s_commits = t.commits;
    s_aborts_ww = t.aborts_ww;
    s_aborts_rw = t.aborts_rw;
    s_aborts_killed = t.aborts_killed;
    s_waits = t.waits;
    s_backoffs = 0;
    s_cycles_wasted = t.cycles_wasted;
    s_reads = t.reads;
    s_writes = t.writes;
    s_max_consecutive_aborts = t.max_consec_aborts;
  }

let total_aborts s = s.s_aborts_ww + s.s_aborts_rw + s.s_aborts_killed

let abort_rate s =
  let attempts = s.s_commits + total_aborts s in
  if attempts = 0 then 0. else float_of_int (total_aborts s) /. float_of_int attempts

let pp ppf s =
  Format.fprintf ppf
    "commits=%d aborts(w/w=%d r/w=%d killed=%d) waits=%d backoffs=%d \
     wasted=%d reads=%d writes=%d maxconsec=%d"
    s.s_commits s.s_aborts_ww s.s_aborts_rw s.s_aborts_killed s.s_waits
    s.s_backoffs s.s_cycles_wasted s.s_reads s.s_writes
    s.s_max_consecutive_aborts

(** Sum two snapshots (threads of one run, or phases of a benchmark). *)
let add a b =
  {
    s_commits = a.s_commits + b.s_commits;
    s_aborts_ww = a.s_aborts_ww + b.s_aborts_ww;
    s_aborts_rw = a.s_aborts_rw + b.s_aborts_rw;
    s_aborts_killed = a.s_aborts_killed + b.s_aborts_killed;
    s_waits = a.s_waits + b.s_waits;
    s_backoffs = a.s_backoffs + b.s_backoffs;
    s_cycles_wasted = a.s_cycles_wasted + b.s_cycles_wasted;
    s_reads = a.s_reads + b.s_reads;
    s_writes = a.s_writes + b.s_writes;
    s_max_consecutive_aborts =
      (* a maximum, not a sum: the worst run of any one thread *)
      max a.s_max_consecutive_aborts b.s_max_consecutive_aborts;
  }

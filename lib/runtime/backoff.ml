(* Back-off policies used by contention managers after a rollback.

   SwissTM uses a randomized *linear* back-off: the wait is uniform in
   [0, base * successive_aborts] cycles (paper, Algorithm 2, line 11).
   Polka-style managers use capped exponential back-off. *)

type policy =
  | No_backoff
  | Linear of { base : int; cap : int }
  | Exponential of { base : int; cap : int }

let default_linear = Linear { base = 3_000; cap = 3_000_000 }

(* The exponential cap must exceed the length of the longest transactions
   (millions of cycles for Lee-TM routes / STMBench7 traversals): Polka-
   style managers escape mutual-kill livelocks only when the back-off can
   grow into a window long enough for one victim to finish. *)
let default_exponential = Exponential { base = 1_000; cap = 64_000_000 }

(** Number of cycles to wait before the [attempt]-th retry (1-based). *)
let delay policy rng ~attempt =
  let attempt = Int.max 1 attempt in
  match policy with
  | No_backoff -> 0
  | Linear { base; cap } ->
      (* Clamp before multiplying: [base * attempt] overflows to a negative
         span for the unbounded attempt counts an abort storm produces, and
         [Rng.int] raises on non-positive bounds. *)
      let span = if base > 0 && attempt > cap / base then cap else base * attempt in
      let span = Int.min cap span in
      Rng.int rng (span + 1)
  | Exponential { base; cap } ->
      let span = Int.min cap (base * (1 lsl Int.min attempt 20)) in
      Rng.int rng (span + 1)

(** Wait for [cycles]: virtual time in a simulation, a bounded spin loop
    natively. *)
let wait_cycles cycles =
  if cycles > 0 then begin
    if Exec.in_sim () then Exec.tick_as Exec.ph_backoff cycles
    else
      (* Round up so short waits still yield the pipeline at least once;
         [cycles / 8] silently dropped any wait under 8 cycles. *)
      let spins = (cycles + 7) / 8 in
      for _ = 1 to spins do
        Domain.cpu_relax ()
      done
  end

(* Wall-clock helpers and order statistics shared by every phase. *)

(** Monotonic host time in nanoseconds (CLOCK_MONOTONIC, allocation-free). *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

(** CPU time this process has used, in nanoseconds (getrusage: user +
    system, microsecond resolution).  Unlike [now_ns] it stops while the
    host runs something else on the benchmark's CPU, including time a
    hypervisor steals from the virtual CPU where the kernel accounts it. *)
let cpu_ns () = int_of_float (Sys.time () *. 1e9)

(** Median and quartiles of a sample, with its size.  Quartiles follow
    Python's [statistics.quantiles(xs, n=4)] (the "exclusive" method), so
    spreads printed here match the ones a reader recomputes from the
    per-run values. *)
type summary = { median : float; q1 : float; q3 : float; n : int }

let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Measure.quartiles: empty sample";
  let median =
    if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
  in
  if n = 1 then { median; q1 = median; q3 = median; n }
  else begin
    let m = n + 1 in
    let cut i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    { median; q1 = cut 1; q3 = cut 3; n }
  end

let median xs = (quartiles xs).median

(** Relative spread (q3 - q1) / median; 0 for a constant or zero sample. *)
let rel_spread s = if s.median = 0. then 0. else (s.q3 -. s.q1) /. Float.abs s.median

(** [sample ~n ~batch f] times [n] batches of [batch] calls of [f] and
    returns the per-call nanoseconds of each batch. *)
let sample ~n ~batch f =
  List.init n (fun _ ->
      let t0 = now_ns () in
      for _ = 1 to batch do
        f ()
      done;
      float_of_int (now_ns () - t0) /. float_of_int batch)

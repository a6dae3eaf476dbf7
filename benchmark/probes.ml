(* Probes of public layer functions, in host nanoseconds.

   Each probe times [samples] batches and reports the per-call time of
   every batch, so the caller gets a median, quartiles and n.  The sizes
   follow the workloads: a write log of 8 entries is an rbtree-write
   transaction, 1024 entries and a 4096-entry read-set walk are an sb7
   long traversal, [Exec.tick] with 8 fibers is every simulated cell. *)

open Stm_intf

let samples = 21
let sink = ref 0

(** Host load witness, taken once per native round: a fixed integer loop
    that touches no memory.  Its time moves only when the machine takes
    CPU away from the benchmark or changes clock speed, so a slow witness
    marks a round disturbed from outside the program. *)
let calib_ns () =
  let t0 = Measure.now_ns () in
  let x = ref 1 in
  for i = 1 to 2_000_000 do
    x := (!x * 1103515245) + i
  done;
  sink := !sink + !x;
  float_of_int (Measure.now_ns () - t0)

let wlog_add n =
  let t = Wlog.create () in
  Measure.sample ~n:samples ~batch:(max 1 (16384 / n)) (fun () ->
      Wlog.clear t;
      for i = 0 to n - 1 do
        Wlog.replace t (4096 + (4 * i)) i
      done)
  |> List.map (fun ns -> ns /. float_of_int n)

let wlog_find n =
  let t = Wlog.create () in
  for i = 0 to n - 1 do
    Wlog.replace t (4096 + (4 * i)) i
  done;
  Measure.sample ~n:samples ~batch:(max 1 (16384 / n)) (fun () ->
      for i = 0 to n - 1 do
        sink := !sink + Wlog.slot_value t (Wlog.probe t (4096 + (4 * i)))
      done)
  |> List.map (fun ns -> ns /. float_of_int n)

let rset_entries = 4096

let rset_push () =
  let t = Rset.create () in
  Measure.sample ~n:samples ~batch:4 (fun () ->
      Rset.clear t;
      for i = 0 to rset_entries - 1 do
        Rset.push t (4 * i) i
      done)
  |> List.map (fun ns -> ns /. float_of_int rset_entries)

(* One pass over every logged (address, version) pair: the loop a
   commit-time or extension validation runs. *)
let rset_walk () =
  let t = Rset.create () in
  for i = 0 to rset_entries - 1 do
    Rset.push t (4 * i) i
  done;
  Measure.sample ~n:samples ~batch:4 (fun () ->
      let acc = ref 0 in
      for i = 0 to Rset.length t - 1 do
        acc := !acc + Rset.key t i + Rset.value t i
      done;
      sink := !sink + !acc)

let tmatomic_get () =
  let c = Runtime.Tmatomic.make 1 in
  Measure.sample ~n:samples ~batch:4096 (fun () ->
      sink := !sink + Runtime.Tmatomic.get c)

let tmatomic_cas () =
  let c = Runtime.Tmatomic.make 0 in
  Measure.sample ~n:samples ~batch:4096 (fun () ->
      let v = Runtime.Tmatomic.unsafe_get c in
      if Runtime.Tmatomic.cas c ~expect:v ~replace:(v + 1) then incr sink)

(* Host ns per call of [f] inside a fresh simulation of [fibers] threads,
   each calling it [calls] times; includes every scheduler switch the
   calls cause. *)
let in_sim ~fibers ~calls f =
  List.init samples (fun _ ->
      let t0 = Measure.now_ns () in
      ignore
        (Runtime.Sim.run_threads ~threads:fibers (fun _ ->
             for _ = 1 to calls do
               f ()
             done)
          : int);
      float_of_int (Measure.now_ns () - t0) /. float_of_int (fibers * calls))

let tmatomic_sim_get () =
  let c = Runtime.Tmatomic.make 1 in
  in_sim ~fibers:1 ~calls:4096 (fun () -> sink := !sink + Runtime.Tmatomic.get c)

(* [tick 1] on the earliest of several equal-clock fibers always passes
   the next deadline, so every call is a switch. *)
let tick_switch fibers = in_sim ~fibers ~calls:(8192 / fibers) (fun () -> Runtime.Exec.tick 1)

(** (metric name, per-call ns samples) for every probe. *)
let run () =
  [
    ("probe.wlog_add_8_ns", wlog_add 8);
    ("probe.wlog_find_8_ns", wlog_find 8);
    ("probe.wlog_add_1024_ns", wlog_add 1024);
    ("probe.wlog_find_1024_ns", wlog_find 1024);
    ("probe.rset_push_ns", rset_push ());
    ("probe.rset_walk_4096_ns", rset_walk ());
    ("probe.tmatomic_get_ns", tmatomic_get ());
    ("probe.tmatomic_cas_ns", tmatomic_cas ());
    ("probe.tmatomic_sim_get_ns", tmatomic_sim_get ());
    ("probe.exec_tick_8_ns", tick_switch 8);
    ("probe.exec_tick_64_ns", tick_switch 64);
  ]

(* The classic NOrec-vs-TL2 crossover (Dalessandro/Spear/Scott, PPoPP
   2010, Fig. 4-6 in spirit): short update transactions over
   disjoint-access-parallel data, so every cross-thread cost is pure
   metadata.

   - NOrec reads carry no per-location metadata (one global sequence
     poll instead of TL2's per-stripe lock read) and its update commit
     is a single CAS + write-back + store, against TL2's per-stripe
     acquisition, GV4 bump and publication.  At 1-2 threads that
     overhead gap is the whole story and NOrec wins.
   - As threads grow, every NOrec commit moves the one sequence word
     all other threads poll: each foreign commit turns the next poll
     into a modelled cache miss and forces an O(|read set|) value
     revalidation, and committers queue on the hot line.  TL2's
     stripes stay thread-private here, so it scales and NOrec falls
     behind — commit serialization bites.

   The workload is deterministic simulated time, so the crossover shape
   (ahead at 1-2 threads, behind at the top count) is bit-stable and
   gated in perf_gate, whose golden holds the smoke table; the full-run
   table is in EXPERIMENTS.md and in BENCH_GATE.json at
   full.crossover.tables. *)

open Bench_common

let thread_counts = [ 1; 2; 4; 8 ]
let top_threads = 8

(* Per-thread block: 64 words = 16 default-granularity stripes, so the
   write sets of different threads never share a stripe and TL2 sees no
   conflicts at all. *)
let block_words = 64

(* Workload shape, tuned against the simulator's coherence model so the
   crossover is visible and deterministic:
   - [reads_per_tx]/[work_units] set the transaction length, long enough
     that at 2 threads successive sequence-line misses fall outside the
     hot-line queuing window;
   - every [update_period]-th transaction writes [write_stripes] distinct
     stripes — rare enough that commit serialization is noise at 2
     threads, frequent enough that 8 threads saturate the sequence line. *)
let reads_per_tx = 4
let write_stripes = 2
let update_period = 8
let work_units = 400

(* The smoke duration is a constant: it sizes golden cells, which
   SWISSTM_BENCH_SCALE must not move. *)
let duration_cycles ~smoke = if smoke then 300_000 else duration 2_000_000

let step engine base ~tid ~op =
  Stm_intf.Engine.atomic engine ~tid (fun tx ->
      let mine = base + (tid * block_words) in
      (* Rotate through the block so successive transactions touch
         different words (keeps the redo/read logs honest, defeats any
         single-address degenerate path). *)
      let o = op * 7 land (block_words - 1) in
      let acc = ref 0 in
      for i = 0 to reads_per_tx - 1 do
        acc :=
          !acc + Stm_intf.Engine.read tx (mine + ((o + (i * 5)) land (block_words - 1)))
      done;
      Runtime.Exec.tick ((Runtime.Costs.get ()).work * work_units);
      (* Stagger update transactions across threads: simulated threads run
         near-lockstep, and synchronized commits would slam the sequence
         line in bursts at every thread count, hiding the gradual
         commit-rate crossover the gate is looking for. *)
      if (op + (tid * 3)) mod update_period = 0 then
        for k = 0 to write_stripes - 1 do
          Stm_intf.Engine.write tx
            (mine + ((o + (k * 4)) land (block_words - 1)))
            (!acc + op + k)
        done)

let run_point ~spec ~threads ~duration_cycles =
  let heap = Memory.Heap.create ~words:(1 lsl 16) in
  let base = Memory.Heap.alloc heap (threads * block_words) in
  let engine = Engines.make spec heap in
  Harness.Workload.run_for_duration engine ~threads ~duration_cycles
    (step engine base)

let specs = [ ("norec", Engines.norec); ("tl2", Engines.tl2) ]

(* The gated shape: NOrec ahead at 1 and 2 threads, behind at the top
   thread count.  Each check is named so a gate failure says which leg
   of the crossover broke. *)
let shape_checks t =
  let ktps engine n = Obs.Report.cell t engine (Printf.sprintf "%dT" n) in
  [
    ("norec_ahead_1t", ktps "norec" 1 > ktps "tl2" 1);
    ("norec_ahead_2t", ktps "norec" 2 > ktps "tl2" 2);
    ("norec_behind_top", ktps "norec" top_threads < ktps "tl2" top_threads);
  ]

let section =
  {
    title = "Crossover: NOrec vs TL2 (short disjoint update txs, ktx/s)";
    body =
      (fun ~smoke ->
        let duration_cycles = duration_cycles ~smoke in
        let tables =
          grid ~threads:thread_counts specs
            (fun spec threads -> run_point ~spec ~threads ~duration_cycles)
            [ ("NOrec vs TL2, short disjoint update transactions", "10^3 tx/s", ktps) ]
        in
        (tables, shape_checks (List.hd tables)));
  }

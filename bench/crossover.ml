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
   gated in perf_gate, whose golden holds the smoke cells; the full-run
   numbers are in EXPERIMENTS.md and the "full" member of
   BENCH_GATE.json. *)

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

type row = { engine : string; ktps : float array (* per thread_counts *) }

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

let matrix ~duration_cycles () =
  List.map
    (fun (name, spec) ->
      {
        engine = name;
        ktps =
          Array.of_list
            (List.map
               (fun threads -> ktps (run_point ~spec ~threads ~duration_cycles))
               thread_counts);
      })
    specs

let find rows name = List.find (fun r -> r.engine = name) rows

(* The gated shape: NOrec ahead at 1 and 2 threads, behind at the top
   thread count.  Each check is named so a gate failure says which leg
   of the crossover broke. *)
let shape_checks rows =
  let norec = find rows "norec" and tl2 = find rows "tl2" in
  let at n =
    let rec idx i = function
      | [] -> invalid_arg "thread count"
      | t :: _ when t = n -> i
      | _ :: rest -> idx (i + 1) rest
    in
    idx 0 thread_counts
  in
  [
    ("norec_ahead_1t", norec.ktps.(at 1) > tl2.ktps.(at 1));
    ("norec_ahead_2t", norec.ktps.(at 2) > tl2.ktps.(at 2));
    ( "norec_behind_top",
      norec.ktps.(at top_threads) < tl2.ktps.(at top_threads) );
  ]

let print_rows rows =
  Printf.printf "%-8s" "engine";
  List.iter (fun t -> Printf.printf "%12s" (Printf.sprintf "%dT" t)) thread_counts;
  print_newline ();
  List.iter
    (fun r ->
      Printf.printf "%-8s" r.engine;
      Array.iter (fun v -> Printf.printf "%12.1f" v) r.ktps;
      print_newline ())
    rows

(* `bench crossover`: the full report. *)
let run () =
  section "Crossover: NOrec vs TL2 (short disjoint update txs, ktx/s)";
  let rows = matrix ~duration_cycles:(duration_cycles ~smoke:false) () in
  print_rows rows;
  List.iter
    (fun (name, ok) ->
      note "  %-18s %s" name (if ok then "ok" else "VIOLATED"))
    (shape_checks rows)

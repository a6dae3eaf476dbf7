(* Fault-injection smoke test: under a deterministic abort storm, adaptive
   contention control must bound the worst consecutive-abort run of every
   thread by its escalation budget K, while the fixed policies (timid,
   two-phase) demonstrably fail to.

   The scenario arms [Runtime.Inject.abort_storm] (one access in eight
   condemned, frequent holder stalls and commit stretches) over a hot
   8-thread read-modify-write workload.  A thread under the storm aborts
   ~88% of its attempts, so fixed policies exhibit consecutive-abort runs
   far past K within a few hundred transactions; the adaptive manager
   escalates any thread at K consecutive aborts to irrevocable execution,
   whose attempt cannot fail, so its maximum run is exactly bounded.

   Exit 0 iff both halves hold.  Wired into [make fault-smoke] / [make
   check]. *)

let threads = 8
let tx_per_thread = 200
let accesses_per_tx = 8
let region_words = 64
let seed = ref 42

(* Escalation budget under test: must match [Cm_intf.default_adaptive]. *)
let k =
  match Cm.Cm_intf.default_adaptive with
  | Cm.Cm_intf.Adaptive { escalate_after; _ } -> escalate_after
  | _ -> assert false

let speclist =
  [ ("--seed", Arg.Set_int seed, "N  injector seed (default 42)") ]

let usage = "fault_smoke [--seed N]   (see also: make fault-smoke)"

(* Hot read-modify-write mix over a small shared region: every pair of
   transactions conflicts with high probability, so the storm's spurious
   aborts compound with real contention. *)
let storm_run spec =
  let heap = Memory.Heap.create ~words:(1 lsl 14) in
  let base = Memory.Heap.alloc heap region_words in
  let engine = Engines.make (Engines.with_table_bits 10 spec) heap in
  let remaining = Array.make threads tx_per_thread in
  let r =
    Harness.Workload.with_faults ~seed:!seed
      ~profile:Runtime.Inject.abort_storm (fun () ->
        Harness.Workload.run_fixed_work engine ~threads (fun ~tid ->
            if remaining.(tid) = 0 then false
            else begin
              remaining.(tid) <- remaining.(tid) - 1;
              let rng =
                Runtime.Rng.for_thread ~seed:(!seed + remaining.(tid)) ~tid
              in
              Stm_intf.Engine.atomic engine ~tid (fun tx ->
                  for _ = 1 to accesses_per_tx do
                    let a = base + Runtime.Rng.int rng region_words in
                    tx.write a (tx.read a + 1)
                  done);
              true
            end))
  in
  (r, Runtime.Inject.injected_aborts ())

let () =
  Arg.parse speclist
    (fun a ->
      prerr_endline (Printf.sprintf "stray argument %S" a);
      exit 2)
    usage;
  let cases =
    [
      (* (name, spec, bounded): [bounded] is the assertion direction. *)
      ("swisstm-adaptive", Engines.with_cm Cm.Cm_intf.default_adaptive
         Engines.swisstm, true);
      ("swisstm (two-phase)", Engines.swisstm, false);
      ("swisstm-timid", Engines.with_cm Cm.Cm_intf.Timid Engines.swisstm,
       false);
    ]
  in
  Printf.printf
    "abort-storm smoke: %d threads x %d tx, K = %d, seed = %d\n%!" threads
    tx_per_thread k !seed;
  let failures = ref 0 in
  List.iter
    (fun (name, spec, bounded) ->
      let r, injected = storm_run spec in
      let worst = r.Harness.Workload.stats.s_max_consecutive_aborts in
      let ok = if bounded then worst <= k else worst > k in
      if not ok then incr failures;
      Printf.printf
        "  %-22s commits=%-6d aborts=%-6d injected=%-6d worst-run=%-4d %s\n%!"
        name r.stats.s_commits
        (Stm_intf.Stats.total_aborts r.stats)
        injected worst
        (if ok then
           if bounded then Printf.sprintf "<= K  ok" else "> K   ok (unbounded as expected)"
         else if bounded then "EXCEEDS K  FAIL"
         else "within K — storm too weak to discriminate  FAIL");
      (* Sanity: every run must complete all its work. *)
      if r.ops <> threads * tx_per_thread then begin
        incr failures;
        Printf.printf "  %-22s INCOMPLETE: %d/%d ops\n%!" name r.ops
          (threads * tx_per_thread)
      end)
    cases;
  (* The global-lock control's fixed timid manager does not bound abort
     runs, but it must face the same storm: spurious aborts surface as
     release, back-off and retry (counted as killed aborts), stalls and
     stretches lengthen the critical section.  Assert it completes and that each fault class
     actually fired through its hooks. *)
  let r, injected = storm_run Engines.glock in
  let killed = r.Harness.Workload.stats.s_aborts_killed in
  let stretches = Runtime.Inject.injected_stretches () in
  let ok =
    r.ops = threads * tx_per_thread && killed > 0 && injected > 0
    && stretches > 0
  in
  if not ok then incr failures;
  Printf.printf
    "  %-22s commits=%-6d aborts=%-6d injected=%-6d stretches=%-4d %s\n%!"
    "glock (control)" r.stats.s_commits killed injected stretches
    (if ok then "faults observed  ok"
     else "faults not observed / incomplete  FAIL");
  if !failures = 0 then begin
    print_endline "fault-smoke PASS";
    exit 0
  end
  else begin
    Printf.printf "fault-smoke FAIL (%d)\n%!" !failures;
    exit 1
  end

(* Benchmark harness entry point: regenerates every table and figure of the
   paper's evaluation (PLDI'09, §4-§5).

     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- fig5 fig10   # a subset
     SWISSTM_BENCH_SCALE=4 dune exec bench/main.exe   # longer runs

   Results are simulated-time measurements on the discrete-event
   multiprocessor (see DESIGN.md); the Bechamel "micro" section uses real
   time. *)

let all : (string * (unit -> unit)) list =
  List.map (fun (name, f) -> (name, Bench_common.run_section f)) Paper.figures
  @ [
      ("micro", Micro.run);
      ("ablations", Ablations.run);
      ("crossover", Bench_common.run_section Crossover.section);
      ("fairness", Fairness.run);
      ("service", Bench_common.run_section Service_bench.section);
      ("scale", Bench_common.run_section Scale.section);
    ]

let () =
  (* `bench ablations --list` (or just `bench --list`): enumerate the
     kernel design-point registry instead of running anything. *)
  if Array.exists (( = ) "--list") Sys.argv then begin
    Ablations.list ();
    exit 0
  end;
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst all
  in
  (* every name is checked before anything runs: a typo must not cost a
     long run one of its figures *)
  (match List.filter (fun n -> not (List.mem_assoc n all)) requested with
  | [] -> ()
  | unknown ->
      Printf.eprintf "unknown experiment name(s) %s; known: %s\n"
        (String.concat ", " (List.map (Printf.sprintf "%S") unknown))
        (String.concat ", " (List.map fst all));
      exit 2);
  Printf.printf
    "SwissTM reproduction benchmark harness (scale=%.2g, threads=%s)\n"
    Bench_common.scale
    (String.concat "," (List.map string_of_int Bench_common.threads));
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      let t = Unix.gettimeofday () in
      List.assoc name all ();
      Printf.printf "  [%s done in %.1fs]\n%!" name (Unix.gettimeofday () -. t))
    requested;
  Printf.printf "\nTotal wall time: %.1fs\n" (Unix.gettimeofday () -. t0)

(* Print the deterministic behavioral snapshot of every named engine, in
   OCaml-literal form.  Used to (re)capture the frozen values embedded in
   test/test_kernel.ml: run this tool on a known-good tree and paste its
   output over the frozen table.  The test suite replays the same probes
   and compares, so no separate `--check` mode is needed. *)

(* Composed kernel points are printed too when asked ([--all]), but the
   frozen differential table in test/test_kernel.ml covers the dedicated
   engine names only: composed points have no pre-refactor baseline to
   hold.  norec/tlrw joined the frozen set in PR 7 (captured at their
   introduction, so later refactors are held to bit-identical behavior).
   swisstm-adaptive and swisstm-timid pin the adaptive throttle /
   escalation bridging and the timid manager on SwissTM's locks. *)
let classic_names =
  [
    "swisstm"; "swisstm-priv"; "swisstm-adaptive"; "swisstm-timid"; "tl2";
    "tinystm"; "rstm"; "rstm-lazy"; "rstm-visible"; "mvstm"; "glock";
    "norec"; "tlrw";
  ]

let names =
  if Array.exists (( = ) "--all") Sys.argv then
    classic_names @ Engines.kernel_names
  else classic_names

let () =
  List.iter
    (fun name ->
      let spec =
        match Engines.of_string name with
        | Some s -> Engines.with_table_bits 10 s
        | None -> failwith ("unknown engine " ^ name)
      in
      let s = Check.Snapshot.stats_run spec in
      let t = Check.Snapshot.cycle_trace spec in
      Format.printf "  (\"%s\",@.   %a,@.   %a);@.@." name
        Check.Snapshot.pp_summary s Check.Snapshot.pp_trace t)
    names

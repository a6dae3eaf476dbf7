(* Shared configuration for the figure/table harness.

   [scale] (env SWISSTM_BENCH_SCALE, default 1.0) multiplies the simulated
   duration of every duration-type run; raise it for tighter confidence at
   the cost of wall time.  Anything but a finite number > 0 stops the
   program.  Thread counts follow the paper's 8-core sweep. *)

let scale =
  match Sys.getenv_opt "SWISSTM_BENCH_SCALE" with
  | None -> 1.0
  | Some s -> (
      match float_of_string_opt s with
      | Some f when Float.is_finite f && f > 0. -> f
      | _ ->
          Printf.eprintf
            "SWISSTM_BENCH_SCALE=%S: expected a finite number > 0\n" s;
          exit 2)

let threads = [ 1; 2; 4; 8 ]

let duration base = int_of_float (float_of_int base *. scale)

(* Simulated durations (cycles) per benchmark family. *)
let sb7_duration () = duration 20_000_000
let rbtree_duration () = duration 4_000_000

let ktps (r : Harness.Workload.result) = Harness.Workload.throughput r /. 1e3
let mtps (r : Harness.Workload.result) = Harness.Workload.throughput r /. 1e6
let ms (r : Harness.Workload.result) = Harness.Workload.elapsed_seconds r *. 1e3

(* The evaluation grid.  [sweep rows cell] measures every [(label, config)]
   row at every thread count, rows outer and threads inner (the order the
   runs execute in), and keeps each row's per-cell results. *)
let sweep ?(threads = threads) rows cell =
  List.map (fun (label, c) -> (label, List.map (cell c) threads)) rows

(* A sweep's results as one table per view [(title, unit, value)], so
   several tables can read the same runs. *)
let views ?(threads = threads) measured views =
  let columns = List.map (Printf.sprintf "%dT") threads in
  List.map
    (fun (title, unit_, value) ->
      Obs.Report.table title unit_ columns
        (List.map (fun (label, cells) -> (label, List.map value cells)) measured))
    views

(* [grid rows cell views]: one sweep, rendered as [views]. *)
let grid ?(threads = threads) rows cell vs = views ~threads (sweep ~threads rows cell) vs

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let note fmt = Printf.printf (fmt ^^ "\n%!")

(* A section of `bench`'s output: a title and a body returning, at smoke
   or full size, its tables and its named checks.  Every paper figure is
   one (no checks, one size); perf_gate writes the gate sections' tables
   and checks to its record and diffs the smoke ones against the golden. *)
type section = {
  title : string;
  body : smoke:bool -> Obs.Report.table list * (string * bool) list;
}

let print_checks prefix checks =
  List.iter (fun (n, ok) -> note "  %s %-26s %s" prefix n (if ok then "ok" else "FAIL")) checks

let run_section s () =
  section s.title;
  let tables, checks = s.body ~smoke:false in
  List.iter Obs.Report.print tables;
  print_checks "check" checks

(* The paper's engine line-up (§4): RSTM uses Serializer for STMBench7 and
   Lee-TM (its best-performing large-workload configuration, as the paper
   itself selects) and Polka elsewhere. *)
let swisstm = Engines.swisstm
let tl2 = Engines.tl2
let tinystm = Engines.tinystm
let rstm_polka = Engines.rstm
let rstm_serializer = Engines.rstm_with ~cm:Cm.Cm_intf.Serializer ()

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

(* [grid rows cell views]: one sweep, rendered as one table per view
   [(title, unit, value)], so several tables can read the same runs. *)
let grid ?(threads = threads) rows cell views =
  let measured = sweep ~threads rows cell in
  let columns = List.map (Printf.sprintf "%dT") threads in
  List.map
    (fun (title, unit_, value) ->
      Harness.Report.make ~title ~unit_ ~columns
        (List.map
           (fun (label, cells) ->
             { Harness.Report.label; cells = Array.of_list (List.map value cells) })
           measured))
    views

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let note fmt = Printf.printf (fmt ^^ "\n%!")

(* The paper's engine line-up (§4): RSTM uses Serializer for STMBench7 and
   Lee-TM (its best-performing large-workload configuration, as the paper
   itself selects) and Polka elsewhere. *)
let swisstm = Engines.swisstm
let tl2 = Engines.tl2
let tinystm = Engines.tinystm
let rstm_polka = Engines.rstm
let rstm_serializer = Engines.rstm_with ~cm:Cm.Cm_intf.Serializer ()

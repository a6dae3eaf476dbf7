(* BENCHMARK.json and the [compare] verdicts.

   [compare A B] reads two sets of run records (one JSON record per line,
   as [e2e.exe] prints them; other lines are skipped) and prints one row
   per workload x end-to-end metric.  A side's value is the median over
   its records.  Its spread is the interquartile range of those values
   over their median when the side holds two or more records; with one
   record it is the spread of the samples inside that run, or 0 for a
   deterministic (simulated) metric.  A metric is unresolved when the
   wider spread exceeds the metric's bound, unless every run of B reads
   better than every run of A. *)

module J = Obs.Json

type metric = { name : string; unit_ : string; higher : bool; bound : float }

let load_spec path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  J.of_string text

let float_of = function J.Int i -> Some (float_of_int i) | J.Float f -> Some f | _ -> None

let section spec key =
  match J.member key spec with
  | Some (J.List l) ->
      List.map
        (fun m ->
          let str k = Option.bind (J.member k m) J.to_str in
          match (str "name", str "unit", str "better") with
          | Some name, Some unit_, Some better ->
              {
                name;
                unit_;
                higher = better = "higher";
                bound =
                  Option.value ~default:0. (Option.bind (J.member "bound" m) float_of);
              }
          | _ -> failwith ("BENCHMARK.json: malformed entry in " ^ key))
        l
  | _ -> failwith ("BENCHMARK.json: no list " ^ key)

(* [failed_share] is 0 on a correct run, so BENCHMARK.json (whose metrics
   must never be 0) carries failures in the run's [failed] count instead;
   compare still gates it, with bound 0. *)
let failed_share = { name = "failed_share"; unit_ = "share"; higher = false; bound = 0. }

let read_records path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match J.of_string line with
         | j when J.member "workload" j <> None && J.member "trace" j = Some (J.Bool false) -> Some j
         | _ -> None
         | exception J.Parse_error _ -> None)

type side = { values : float list; spread : float }

let side records name =
  let field r k =
    Option.bind (J.member "metrics" r) (J.member name)
    |> Fun.flip Option.bind (J.member k)
  in
  let values = List.filter_map (fun r -> Option.bind (field r "value") float_of) records in
  let spread =
    match (values, records) with
    | _ :: _ :: _, _ -> Measure.rel_spread (Measure.quartiles values)
    | [ v ], [ r ] -> (
        match (field r "exact", Option.bind (field r "q1") float_of, Option.bind (field r "q3") float_of) with
        | Some (J.Bool true), _, _ -> 0.
        | _, Some q1, Some q3 when v <> 0. -> (q3 -. q1) /. Float.abs v
        | _ -> 0.)
    | _ -> 0.
  in
  { values; spread }

let verdict m a b =
  let ma = Measure.median a.values and mb = Measure.median b.values in
  (* positive = B is worse, as a share of A *)
  let worse_by =
    let d = if m.higher then ma -. mb else mb -. ma in
    if ma = 0. then (if d > 0. then infinity else if d < 0. then neg_infinity else 0.)
    else d /. Float.abs ma
  in
  let spread = Float.max a.spread b.spread in
  let b_beats_all =
    let better x y = if m.higher then x > y else x < y in
    List.for_all (fun vb -> List.for_all (fun va -> better vb va) a.values) b.values
  in
  let v =
    if spread > m.bound then if b_beats_all then "better" else "unresolved"
    else if worse_by > m.bound then "worse"
    else if -.worse_by > m.bound then "better"
    else "same"
  in
  (ma, mb, worse_by, spread, v)

let run ~spec_path a_path b_path =
  let metrics = section (load_spec spec_path) "end_to_end" @ [ failed_share ] in
  let a = read_records a_path and b = read_records b_path in
  let workloads =
    List.sort_uniq compare
      (List.filter_map (fun r -> Option.bind (J.member "workload" r) J.to_str) a)
  in
  let of_w w rs = List.filter (fun r -> J.member "workload" r = Some (J.Str w)) rs in
  Printf.printf "%-13s %-24s %12s %12s %8s %7s %6s  %s\n" "workload" "metric" "A" "B"
    "worse%" "spread%" "bound%" "verdict";
  let worse = ref 0 in
  List.iter
    (fun w ->
      let ra = of_w w a and rb = of_w w b in
      List.iter
        (fun m ->
          let sa = side ra m.name and sb = side rb m.name in
          if sa.values = [] || sb.values = [] then
            Printf.printf "%-13s %-24s %12s %12s %8s %7s %6s  missing\n" w m.name "-" "-" "-" "-" "-"
          else begin
            let ma, mb, worse_by, spread, v = verdict m sa sb in
            if v = "worse" then incr worse;
            Printf.printf "%-13s %-24s %12.6g %12.6g %8.2f %7.2f %6.1f  %s\n" w m.name ma mb
              (100. *. worse_by) (100. *. spread) (100. *. m.bound) v
          end)
        metrics)
    workloads;
  if !worse > 0 then exit 1

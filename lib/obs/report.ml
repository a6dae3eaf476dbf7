(* Result tables: aligned plain text on stdout (one per report of a
   collector, figure or table of the paper), and the JSON record that
   [stm_run --out] writes and the bench gate diffs against its golden. *)

type row = { label : string; cells : float array }

type table = {
  title : string;
  columns : string list;  (* header for each numeric column *)
  rows : row list;
  unit_ : string;
}

let table title unit_ columns rows =
  let row (label, cells) = { label; cells = Array.of_list cells } in
  { title; unit_; columns; rows = List.map row rows }

let cell t label col =
  match List.find_index (( = ) col) t.columns with
  | Some i -> (List.find (fun r -> r.label = label) t.rows).cells.(i)
  | None -> raise Not_found

let fmt_cell v =
  if Float.is_nan v then "-"
  else if Float.is_integer v || Float.abs v >= 1000. then Printf.sprintf "%.0f" v
  else if Float.abs v >= 10. then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.3f" v

let render ppf t =
  let headers = "" :: t.columns in
  let body =
    List.map (fun r -> r.label :: List.map fmt_cell (Array.to_list r.cells)) t.rows
  in
  let all = headers :: body in
  let ncols = List.fold_left (fun m r -> max m (List.length r)) 0 all in
  let width c =
    List.fold_left
      (fun m r -> max m (String.length (List.nth_opt r c |> Option.value ~default:"")))
      0 all
  in
  let widths = List.init ncols width in
  Format.fprintf ppf "## %s  [%s]@." t.title t.unit_;
  let print_row r =
    List.iteri
      (fun c w ->
        let cell = List.nth_opt r c |> Option.value ~default:"" in
        if c = 0 then Format.fprintf ppf "  %-*s" w cell
        else Format.fprintf ppf "  %*s" w cell)
      widths;
    Format.fprintf ppf "@."
  in
  print_row headers;
  Format.fprintf ppf "  %s@."
    (String.make (List.fold_left ( + ) 0 widths + (2 * ncols)) '-');
  List.iter print_row body

let print t = render Format.std_formatter t

(* The record: integer-valued cells exact, NaN as null. *)
let cell_json v =
  if Float.is_nan v then Json.Null
  else if Float.is_integer v && Float.abs v <= 0x1p53 then Json.Int (int_of_float v)
  else Json.Float v

let to_json tables =
  let open Json in
  let row r = List (Str r.label :: List.map cell_json (Array.to_list r.cells)) in
  let table t =
    Obj [ ("title", Str t.title); ("unit", Str t.unit_);
          ("columns", List (List.map (fun c -> Str c) t.columns));
          ("rows", List (List.map row t.rows)) ]
  in
  List (List.map table tables)

let of_json j =
  let open Json in
  let bad () = failwith "Report.of_json: not a table list" in
  let str = function Str s -> s | _ -> bad () in
  let cell = function Int i -> float_of_int i | Float f -> f | Null -> Float.nan | _ -> bad () in
  let row = function
    | List (Str label :: cells) -> { label; cells = Array.of_list (List.map cell cells) }
    | _ -> bad ()
  in
  let table = function
    | Obj [ ("title", Str title); ("unit", Str unit_); ("columns", List cs); ("rows", List rs) ] ->
        { title; unit_; columns = List.map str cs; rows = List.map row rs }
    | _ -> bad ()
  in
  match j with List ts -> List.map table ts | _ -> bad ()

(* Match [g] and [c] by [key]: [f] diffs a pair, a lone item is one entry. *)
let matched path key f g c =
  let find l k = List.find_opt (fun x -> key x = k) l in
  let side = function Some _ -> "present" | None -> "absent" in
  List.map key g @ List.filter (fun k -> find g k = None) (List.map key c)
  |> List.concat_map (fun k ->
         let path = if path = "" then k else path ^ " › " ^ k in
         match (find g k, find c k) with
         | Some g, Some c -> f path g c
         | g, c -> [ (path, side g, side c) ])

let diff golden current =
  let num v = Json.to_string (cell_json v) in
  let cell path (_, g) (_, c) = if Float.equal g c then [] else [ (path, num g, num c) ] in
  let table path g c =
    let cells t r =
      List.mapi (fun i col -> (col, try r.cells.(i) with Invalid_argument _ -> Float.nan)) t.columns
      |> List.filter (fun (col, _) -> List.mem col g.columns && List.mem col c.columns)
    in
    (if g.unit_ = c.unit_ then [] else [ (path ^ " › unit", g.unit_, c.unit_) ])
    @ matched path Fun.id (fun _ _ _ -> []) g.columns c.columns
    @ matched path (fun r -> r.label)
        (fun path gr cr -> matched path fst cell (cells g gr) (cells c cr)) g.rows c.rows
  in
  matched "" (fun t -> t.title) table golden current

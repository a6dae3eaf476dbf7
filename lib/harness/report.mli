(** Benchmark results as tables: aligned plain text, and the JSON record
    the bench gate writes and diffs against its golden. *)

type row = { label : string; cells : float array }

type table = {
  title : string;
  columns : string list;
  rows : row list;
  unit_ : string;
}

val make : title:string -> unit_:string -> columns:string list -> row list -> table
val render : Format.formatter -> table -> unit
val print : table -> unit

val to_json : table list -> Obs.Json.t
val of_json : Obs.Json.t -> table list
(** Integer-valued cells up to 2^53 are JSON integers and NaN is [null],
    so [of_json (to_json ts)] equals [ts]; [of_json] fails on other JSON. *)

val diff : table list -> table list -> (string * string * string) list
(** [diff golden current]: each difference as (path, golden, current),
    tables matched by title, rows by label, columns by name.  A cell's
    path is ["title › label › column"]; a table, row or column on one
    side only is one entry, ["present"] vs ["absent"]. *)

(** Results as tables: aligned plain text, and the JSON record that
    [stm_run --out] and the bench gate write and read back.  Every
    collector of [Obs] and every benchmark reports this way. *)

type row = { label : string; cells : float array }

type table = {
  title : string;
  columns : string list;
  rows : row list;
  unit_ : string;
}

val table : string -> string -> string list -> (string * float list) list -> table
(** [table title unit columns rows]: a table from [(label, cells)] rows. *)

val cell : table -> string -> string -> float
(** [cell t label column]: the cell of [t] at that row and column.
    @raise Not_found if either is missing. *)

val render : Format.formatter -> table -> unit
(** Integer-valued cells print as integers, NaN as ["-"]. *)

val print : table -> unit

val to_json : table list -> Json.t
val of_json : Json.t -> table list
(** Integer-valued cells up to 2^53 are JSON integers and NaN is [null],
    so [of_json (to_json ts)] equals [ts]; [of_json] fails on other JSON. *)

val diff : table list -> table list -> (string * string * string) list
(** [diff golden current]: each difference as (path, golden, current),
    tables matched by title, rows by label, columns by name.  A cell's
    path is ["title › label › column"]; a table, row or column on one
    side only is one entry, ["present"] vs ["absent"]. *)

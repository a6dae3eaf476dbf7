(* The design-point registry: every STM the testbed can run, named and
   located in the axis space of [Axes].

   [Classic] entries are the five hand-tuned engines (plus the global-lock
   control, which sits outside the axis space); [Composed] entries are
   points only the kernel's composed engine ([Compose]) reaches.  The
   [Engines] library resolves either kind to a runnable [Engine.t]; this
   module is the single source of truth for `bench ablations --list`,
   the fuzzer's registry sweep, and the README matrix. *)

type kind =
  | Classic of string  (* resolved to the dedicated engine of that name *)
  | Composed  (* resolved to [Compose.engine] at [point] *)

type entry = {
  name : string;
  kind : kind;
  point : Axes.point option;  (* None: outside the axis space (glock) *)
  summary : string;
}

let classic name point summary =
  { name; kind = Classic name; point = Some point; summary }

let composed point summary =
  { name = Compose.name_of_point point; kind = Composed; point = Some point; summary }

let k acquisition visibility validation : Axes.point =
  { Axes.acquisition; visibility; validation; versioning = Axes.Redo }

let entries =
  [
    (* the five engines of the paper's comparison, located in axis space *)
    classic "swisstm" Axes.swisstm_point
      "the paper's design: mixed acquisition, incremental validation";
    classic "tl2" Axes.tl2_point
      "lazy acquisition, commit-time validation, no extension";
    classic "tinystm" Axes.tinystm_point
      "eager acquisition, incremental (LSA) validation";
    classic "rstm" Axes.rstm_point
      "eager acquisition, commit-counter heuristic validation";
    classic "mvstm" Axes.mvstm_point
      "lazy acquisition, multi-versioned reads (classic engine only)";
    {
      name = "glock";
      kind = Classic "glock";
      point = None;
      summary = "single global lock, no speculation (control)";
    };
    (* PR 7: the metadata-free corner and its blocking dual, both
       dedicated engines (their axis values are Compose-unreachable) *)
    classic "norec" Axes.norec_point
      "metadata-free: one global sequence lock, value-based revalidation";
    classic "tlrw" Axes.tlrw_point
      "read-write bytelocks: blocking visible reads, no clock, no validation";
    (* new combinations only the composed kernel engine reaches *)
    composed
      (k Axes.Eager Axes.Invisible Axes.Commit_time)
      "TinySTM's locking under TL2's validation: eager w/w, no extension";
    composed
      (k Axes.Lazy Axes.Invisible Axes.Incremental)
      "TL2's locking with SwissTM's timestamp extension";
    composed
      (k Axes.Mixed Axes.Invisible Axes.Commit_time)
      "SwissTM's two-lock split without extension";
    composed
      (k Axes.Eager Axes.Visible Axes.Commit_time)
      "eager locking with visible readers: no validation, drain on write";
    composed
      (k Axes.Mixed Axes.Invisible Axes.Counter)
      "SwissTM's locking under RSTM's commit-counter heuristic";
    composed
      (k Axes.Mixed Axes.Invisible Axes.Incremental)
      "SwissTM's own point on the composed kernel engine";
  ]

let find name = List.find_opt (fun e -> e.name = name) entries
let names () = List.map (fun e -> e.name) entries

let composed_entries =
  List.filter (fun e -> match e.kind with Composed -> true | _ -> false) entries

let contract (e : entry) =
  match e.point with
  | Some p -> Axes.contract_of p
  | None -> Axes.Opaque (* glock: trivially serial *)

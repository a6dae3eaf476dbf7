(* The engine catalogue: build any engine from a declarative spec, and
   place it in the design space of [Kernel.Axes].

   Benchmarks and the CLI manipulate [spec] values; [make] instantiates a
   fresh engine over a heap.  Every experiment in the paper is a choice of
   (benchmark, spec list, thread counts).  The paper sweeps the contention
   manager and the stripe granularity across all engines alike (§5), so
   those knobs sit on the spec itself; a family carries only what is its
   own.  A spec's axis point ([point]) is written here once, and its
   contract is derived from it. *)

type family =
  | Swisstm of { privatization_safe : bool; debug_no_validation : bool }
  | Tl2
  | Tinystm
  | Rstm of {
      acquire : Rstm.Rstm_engine.acquire;
      visibility : Rstm.Rstm_engine.visibility;
    }
  | Mvstm of { max_chain : int }
  | Glock
  | Norec
  | Tlrw
  | Kernel of Kernel.Axes.point

type spec = {
  family : family;
  cm : Cm.Cm_intf.spec;
  granularity_words : int;
  table_bits : int;
}

(* The paper's default manager per family (§4): SwissTM's two-phase;
   timid for TL2, TinySTM, MVSTM and NOrec (their managers only own
   rollback back-off, the throttle and the escalation budget — conflict
   resolution stays timid); Polka for RSTM, TLRW and the composed points.
   The global lock's manager is fixed timid whatever the spec says: it
   only owns the back-off after an injected or body-requested abort. *)
let default_cm = function
  | Swisstm _ -> Cm.Cm_intf.default_two_phase
  | Tl2 | Tinystm | Mvstm _ | Norec | Glock -> Cm.Cm_intf.Timid
  | Rstm _ | Tlrw | Kernel _ -> Cm.Cm_intf.Polka

(* 4-word stripes (2^4 bytes on the paper's 32-bit platform) over a
   2^18-entry table.  NOrec and the global lock have no stripes and
   ignore both. *)
let of_family family =
  { family; cm = default_cm family; granularity_words = 4; table_bits = 18 }

let swisstm =
  of_family (Swisstm { privatization_safe = false; debug_no_validation = false })

(* TL2 with lazy detection and GV4; TinySTM with encounter-time locking. *)
let tl2 = of_family Tl2
let tinystm = of_family Tinystm

(* RSTM as configured in the paper (§4): eager conflict detection,
   invisible reads + commit-counter heuristic, Polka. *)
let rstm_with ?(acquire = Rstm.Rstm_engine.Eager)
    ?(visibility = Rstm.Rstm_engine.Invisible) () =
  of_family (Rstm { acquire; visibility })

let rstm = rstm_with ()

(* §6 extensions: multi-version reads; quiescence-based privatization. *)
let mvstm = of_family (Mvstm { max_chain = 8 })
let glock = of_family Glock

(* PR 7: the metadata-free corner (NOrec — global sequence lock,
   value-based revalidation, timid) and its blocking dual (TLRW-style
   read-write bytelocks, Polka arbitration). *)
let norec = of_family Norec
let tlrw = of_family Tlrw

let swisstm_priv_safe =
  of_family (Swisstm { privatization_safe = true; debug_no_validation = false })

(* Deliberately broken debug variant (validation disabled): exists so the
   fuzzer can prove its opacity checker catches a buggy engine.  Hidden
   from [known_names] so no benchmark picks it up by accident. *)
let swisstm_broken =
  of_family (Swisstm { privatization_safe = false; debug_no_validation = true })

(* Adaptive contention control on every engine family.  For TL2, TinySTM
   and MVSTM the manager only owns rollback back-off, the throttle and the
   escalation budget — their conflict resolution stays timid. *)
let with_cm cm spec = { spec with cm }

(* Granularity override across engine families (Figure 13 / Table 2). *)
let with_granularity granularity_words spec = { spec with granularity_words }

(* Smaller lock/version tables for workloads touching few addresses (the
   fuzzer builds a fresh engine per run; 2^18-entry tables dominate its
   runtime otherwise).  Hash collisions only add false conflicts, never
   hide real ones, so correctness checking stays sound. *)
let with_table_bits table_bits spec = { spec with table_bits }

(* A family's label, plus "(cm)" whenever the manager is not the family's
   default.  RSTM's label always names its manager; the global lock's is
   fixed, so never named. *)
let name s =
  let cm =
    if s.cm = default_cm s.family then ""
    else Printf.sprintf "(%s)" (Cm.Cm_intf.spec_name s.cm)
  in
  match s.family with
  | Swisstm { privatization_safe; debug_no_validation } ->
      Swisstm.Swisstm_engine.name ^ cm
      ^ (if debug_no_validation then "!noval" else "")
      ^ if privatization_safe then "+quiescence" else ""
  | Tl2 -> Tl2.Tl2_engine.name ^ cm
  | Tinystm -> Tinystm.Tinystm_engine.name ^ cm
  | Rstm { acquire; visibility } ->
      Rstm.Rstm_engine.name ~acquire ~visibility s.cm
  | Mvstm _ -> Mvstm.Mvstm_engine.name ^ cm
  | Glock -> Glock.Glock_engine.name
  | Norec -> Kernel.Norec.name ^ cm
  | Tlrw -> Kernel.Tlrw.name ^ cm
  | Kernel p -> Kernel.Compose.name_of_point p ^ cm

(* Where the spec sits in axis space (DESIGN.md §10's table).  RSTM's
   own acquisition and visibility map onto the axes and it always
   validates by the commit counter; NOrec is the metadata-free corner
   (one global sequence lock, value-based revalidation); TLRW's readers
   are lock-protected, so no validation runs and its coordinate is the
   vacuous [Commit_time].  The global lock sits outside the space. *)
let point s =
  let open Kernel.Axes in
  let at acquisition visibility validation versioning =
    Some { acquisition; visibility; validation; versioning }
  in
  match s.family with
  | Swisstm _ -> at Mixed Invisible Incremental Redo
  | Tl2 -> at Lazy Invisible Commit_time Redo
  | Tinystm -> at Eager Invisible Incremental Redo
  | Rstm { acquire; visibility } ->
      at
        (match acquire with Rstm.Rstm_engine.Eager -> Eager | Lazy -> Lazy)
        (match visibility with
        | Rstm.Rstm_engine.Visible -> Visible
        | Invisible -> Invisible)
        Counter Redo
  | Mvstm _ -> at Lazy Invisible Commit_time Multi
  | Glock -> None
  | Norec -> at Seqlock Invisible Value Redo
  | Tlrw -> at Bytelock Visible Commit_time Redo
  | Kernel p -> Some p

(* The global lock runs one transaction at a time: trivially opaque. *)
let contract s =
  Option.fold ~none:Kernel.Axes.Opaque ~some:Kernel.Axes.contract_of (point s)

let make s heap : Stm_intf.Engine.t =
  let { cm; granularity_words; table_bits; _ } = s in
  match s.family with
  | Swisstm { privatization_safe; debug_no_validation } ->
      Swisstm.Swisstm_engine.engine ~cm ~granularity_words ~table_bits
        ~privatization_safe ~debug_no_validation heap
  | Tl2 -> Tl2.Tl2_engine.engine ~cm ~granularity_words ~table_bits heap
  | Tinystm ->
      Tinystm.Tinystm_engine.engine ~cm ~granularity_words ~table_bits heap
  | Rstm { acquire; visibility } ->
      Rstm.Rstm_engine.engine ~acquire ~visibility ~cm ~granularity_words
        ~table_bits heap
  | Mvstm { max_chain } ->
      Mvstm.Mvstm_engine.engine ~cm ~granularity_words ~table_bits ~max_chain
        heap
  | Glock -> Glock.Glock_engine.engine heap
  | Norec -> Kernel.Norec.engine ~cm heap
  | Tlrw -> Kernel.Tlrw.engine ~cm ~granularity_words ~table_bits heap
  | Kernel p ->
      Kernel.Compose.engine ~cm ~granularity_words ~table_bits p heap

let adaptive = with_cm Cm.Cm_intf.default_adaptive

(* Every classic engine by name, in listing order ([swisstm_broken]
   resolves by name but is not listed). *)
let named =
  [
    ("swisstm", swisstm);
    ("tl2", tl2);
    ("tinystm", tinystm);
    ("rstm", rstm);
    ("rstm-lazy", rstm_with ~acquire:Rstm.Rstm_engine.Lazy ());
    ("rstm-visible", rstm_with ~visibility:Rstm.Rstm_engine.Visible ());
    ("rstm-serializer", with_cm Cm.Cm_intf.Serializer rstm);
    ("rstm-greedy", with_cm Cm.Cm_intf.Greedy rstm);
    ("rstm-karma", with_cm Cm.Cm_intf.Karma rstm);
    ("rstm-timestamp", with_cm Cm.Cm_intf.Timestamp rstm);
    ("swisstm-timid", with_cm Cm.Cm_intf.Timid swisstm);
    ("swisstm-greedy", with_cm Cm.Cm_intf.Greedy swisstm);
    ("swisstm-priv", swisstm_priv_safe);
    ("mvstm", mvstm);
    ("swisstm-adaptive", adaptive swisstm);
    ("tl2-adaptive", adaptive tl2);
    ("tinystm-adaptive", adaptive tinystm);
    ("rstm-adaptive", adaptive rstm);
    ("mvstm-adaptive", adaptive mvstm);
    ("glock", glock);
    ("norec", norec);
    ("tlrw", tlrw);
    ("norec-adaptive", adaptive norec);
    ("tlrw-adaptive", adaptive tlrw);
  ]

(* The composed design points: axis combinations that none of the
   dedicated engines implements, run by [Kernel.Compose] under their
   ["k-<axes>"] names, each with its summary. *)
let composed =
  let k acquisition visibility validation =
    Kernel.Axes.{ acquisition; visibility; validation; versioning = Redo }
  in
  Kernel.Axes.
    [
      ( k Eager Invisible Commit_time,
        "TinySTM's locking under TL2's validation: eager w/w, no extension" );
      ( k Lazy Invisible Incremental,
        "TL2's locking with SwissTM's timestamp extension" );
      ( k Mixed Invisible Commit_time,
        "SwissTM's two-lock split without extension" );
      ( k Eager Visible Commit_time,
        "eager locking with visible readers: no validation, drain on write" );
      ( k Mixed Invisible Counter,
        "SwissTM's locking under RSTM's commit-counter heuristic" );
      ( k Mixed Invisible Incremental,
        "SwissTM's own point on the composed kernel engine" );
    ]

let composed_named =
  List.map
    (fun (p, _) -> (Kernel.Compose.name_of_point p, of_family (Kernel p)))
    composed

let of_string name =
  List.assoc_opt name
    (("swisstm-broken", swisstm_broken) :: named @ composed_named)

let kernel_names = List.map fst composed_named
let known_names = List.map fst named @ kernel_names

(* The engines of the paper's comparison (§5), the global-lock control,
   the metadata-free corner and its blocking dual, then the composed
   points: `bench ablations --list`'s rows. *)
let catalogue =
  [
    ("swisstm", "the paper's design: mixed acquisition, incremental validation");
    ("tl2", "lazy acquisition, commit-time validation, no extension");
    ("tinystm", "eager acquisition, incremental (LSA) validation");
    ("rstm", "eager acquisition, commit-counter heuristic validation");
    ("mvstm", "lazy acquisition, multi-versioned reads (classic engine only)");
    ("glock", "single global lock, no speculation (control)");
    ( "norec",
      "metadata-free: one global sequence lock, value-based revalidation" );
    ( "tlrw",
      "read-write bytelocks: blocking visible reads, no clock, no validation" );
  ]
  @ List.map (fun (p, summary) -> (Kernel.Compose.name_of_point p, summary))
      composed

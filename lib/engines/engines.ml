(* Registry: build any engine from a declarative spec.

   Benchmarks and the CLI manipulate [spec] values; [make] instantiates a
   fresh engine over a heap.  Every experiment in the paper is a choice of
   (benchmark, spec list, thread counts).  The paper sweeps the contention
   manager and the stripe granularity across all engines alike (§5), so
   those knobs sit on the spec itself; a family carries only what is its
   own. *)

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
    ?(visibility = Rstm.Rstm_engine.Invisible) ?cm () =
  let s = of_family (Rstm { acquire; visibility }) in
  match cm with Some cm -> { s with cm } | None -> s

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

let swisstm_with ?(cm = swisstm.cm)
    ?(granularity_words = swisstm.granularity_words)
    ?(table_bits = swisstm.table_bits) () =
  { swisstm with cm; granularity_words; table_bits }

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

(* What each engine promises about the reads of *aborted* transactions.
   Timestamp-validated engines (SwissTM, TL2, TinySTM), multi-version
   reads, visible readers and the global lock give every attempt a
   consistent snapshot (opacity).  RSTM's invisible-read mode only
   validates lazily — a read of an own eagerly-acquired stripe skips the
   commit-counter heuristic entirely — so doomed transactions can observe
   inconsistent state before commit-time validation aborts them; it
   promises serializability of committed transactions only.  The checker
   holds each engine to exactly its contract. *)
type contract = Opaque | Serializable

let contract s =
  match s.family with
  | Rstm { visibility = Rstm.Rstm_engine.Invisible; _ } -> Serializable
  (* Both PR-7 engines are opaque (the wildcard would already say so;
     spelled out because it is their contract's load-bearing claim):
     norec admits a read only while the whole value journal is proven
     consistent with one snapshot; tlrw reads are lock-protected. *)
  | Norec | Tlrw -> Opaque
  | Kernel p -> (
      match Kernel.Axes.contract_of p with
      | Kernel.Axes.Opaque -> Opaque
      | Kernel.Axes.Serializable -> Serializable)
  | _ -> Opaque

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

(* Composed design points resolve through the kernel registry, so a name
   like "k-eager-visible" is runnable everywhere a classic name is. *)
let of_registry name =
  match Kernel.Registry.find name with
  | Some { Kernel.Registry.kind = Kernel.Registry.Composed; point = Some p; _ }
    ->
      Some (of_family (Kernel p))
  | _ -> None

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
    ("rstm-serializer", rstm_with ~cm:Cm.Cm_intf.Serializer ());
    ("rstm-greedy", rstm_with ~cm:Cm.Cm_intf.Greedy ());
    ("rstm-karma", rstm_with ~cm:Cm.Cm_intf.Karma ());
    ("rstm-timestamp", rstm_with ~cm:Cm.Cm_intf.Timestamp ());
    ("swisstm-timid", swisstm_with ~cm:Cm.Cm_intf.Timid ());
    ("swisstm-greedy", swisstm_with ~cm:Cm.Cm_intf.Greedy ());
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

let of_string name =
  match List.assoc_opt name (("swisstm-broken", swisstm_broken) :: named) with
  | Some _ as s -> s
  | None -> of_registry name

let kernel_names =
  List.filter_map
    (fun (e : Kernel.Registry.entry) ->
      match e.kind with Kernel.Registry.Composed -> Some e.name | _ -> None)
    Kernel.Registry.entries

let known_names = List.map fst named @ kernel_names

(* Registry: build any engine from a declarative spec.

   Benchmarks and the CLI manipulate [spec] values; [make] instantiates a
   fresh engine over a heap.  Every experiment in the paper is a choice of
   (benchmark, spec list, thread counts). *)

type spec =
  | Swisstm of Swisstm.Swisstm_config.t
  | Tl2 of Tl2.Tl2_engine.config
  | Tinystm of Tinystm.Tinystm_engine.config
  | Rstm of Rstm.Rstm_engine.config
  | Mvstm of Mvstm.Mvstm_engine.config
  | Glock
  | Norec of Kernel.Norec.config
  | Tlrw of Kernel.Tlrw.config
  | Kernel of Kernel.Compose.config
      (* a composed design point from [Kernel.Registry] — combinations no
         dedicated engine implements *)

(* The paper's default configurations (§4): RSTM with eager conflict
   detection, invisible reads + commit-counter heuristic, Polka; TL2 with
   lazy detection and GV4; TinySTM with encounter-time locking and timid. *)
let swisstm = Swisstm Swisstm.Swisstm_config.default
let tl2 = Tl2 Tl2.Tl2_engine.default_config
let tinystm = Tinystm Tinystm.Tinystm_engine.default_config
let rstm = Rstm Rstm.Rstm_engine.default_config

(* §6 extensions: multi-version reads; quiescence-based privatization. *)
let mvstm = Mvstm Mvstm.Mvstm_engine.default_config

(* PR 7: the metadata-free corner (NOrec — global sequence lock,
   value-based revalidation, timid) and its blocking dual (TLRW-style
   read-write bytelocks, Polka arbitration). *)
let norec = Norec Kernel.Norec.default_config
let tlrw = Tlrw Kernel.Tlrw.default_config

let swisstm_priv_safe =
  Swisstm { Swisstm.Swisstm_config.default with privatization_safe = true }

(* Deliberately broken debug variant (validation disabled): exists so the
   fuzzer can prove its opacity checker catches a buggy engine.  Hidden
   from [known_names] so no benchmark picks it up by accident. *)
let swisstm_broken =
  Swisstm { Swisstm.Swisstm_config.default with debug_no_validation = true }

let rstm_with ?acquire ?visibility ?cm () =
  let c = Rstm.Rstm_engine.default_config in
  Rstm
    {
      c with
      acquire = Option.value acquire ~default:c.acquire;
      visibility = Option.value visibility ~default:c.visibility;
      cm = Option.value cm ~default:c.cm;
    }

let swisstm_with ?cm ?granularity_words ?table_bits () =
  let c = Swisstm.Swisstm_config.default in
  Swisstm
    {
      c with
      cm = Option.value cm ~default:c.Swisstm.Swisstm_config.cm;
      granularity_words =
        Option.value granularity_words ~default:c.granularity_words;
      table_bits = Option.value table_bits ~default:c.table_bits;
    }

(* Adaptive contention control on every engine family.  For TL2, TinySTM
   and MVSTM the manager only owns rollback back-off, the throttle and the
   escalation budget — their conflict resolution stays timid. *)
let with_cm cm spec =
  match spec with
  | Swisstm c -> Swisstm { c with Swisstm.Swisstm_config.cm }
  | Tl2 c -> Tl2 { c with Tl2.Tl2_engine.cm }
  | Tinystm c -> Tinystm { c with Tinystm.Tinystm_engine.cm }
  | Rstm c -> Rstm { c with Rstm.Rstm_engine.cm }
  | Mvstm c -> Mvstm { c with Mvstm.Mvstm_engine.cm }
  | Glock -> Glock
  | Norec c -> Norec { c with Kernel.Norec.cm }
  | Tlrw c -> Tlrw { c with Kernel.Tlrw.cm }
  | Kernel c -> Kernel { c with Kernel.Compose.cm }

let name = function
  | Swisstm c ->
      let base =
        if c.Swisstm.Swisstm_config.cm = Swisstm.Swisstm_config.default.cm then
          "swisstm"
        else Printf.sprintf "swisstm(%s)" (Cm.Cm_intf.spec_name c.cm)
      in
      let base = if c.debug_no_validation then base ^ "!noval" else base in
      if c.privatization_safe then base ^ "+quiescence" else base
  | Tl2 c ->
      if c.Tl2.Tl2_engine.cm = Tl2.Tl2_engine.default_config.cm then "tl2"
      else Printf.sprintf "tl2(%s)" (Cm.Cm_intf.spec_name c.cm)
  | Tinystm c ->
      if c.Tinystm.Tinystm_engine.cm = Tinystm.Tinystm_engine.default_config.cm
      then "tinystm"
      else Printf.sprintf "tinystm(%s)" (Cm.Cm_intf.spec_name c.cm)
  | Rstm c -> Rstm.Rstm_engine.name_of_config c
  | Mvstm c ->
      if c.Mvstm.Mvstm_engine.cm = Mvstm.Mvstm_engine.default_config.cm then
        "mvstm"
      else Printf.sprintf "mvstm(%s)" (Cm.Cm_intf.spec_name c.cm)
  | Glock -> "glock"
  | Norec c ->
      if c.Kernel.Norec.cm = Kernel.Norec.default_config.cm then "norec"
      else Printf.sprintf "norec(%s)" (Cm.Cm_intf.spec_name c.cm)
  | Tlrw c ->
      if c.Kernel.Tlrw.cm = Kernel.Tlrw.default_config.cm then "tlrw"
      else Printf.sprintf "tlrw(%s)" (Cm.Cm_intf.spec_name c.cm)
  | Kernel c ->
      let base = Kernel.Compose.name_of_point c.Kernel.Compose.point in
      if c.cm = Cm.Cm_intf.Polka then base
      else Printf.sprintf "%s(%s)" base (Cm.Cm_intf.spec_name c.cm)

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

let contract = function
  | Rstm c when c.Rstm.Rstm_engine.visibility = Rstm.Rstm_engine.Invisible ->
      Serializable
  (* Both PR-7 engines are opaque (the wildcard would already say so;
     spelled out because it is their contract's load-bearing claim):
     norec admits a read only while the whole value journal is proven
     consistent with one snapshot; tlrw reads are lock-protected. *)
  | Norec _ | Tlrw _ -> Opaque
  | Kernel c -> (
      match Kernel.Axes.contract_of c.Kernel.Compose.point with
      | Kernel.Axes.Opaque -> Opaque
      | Kernel.Axes.Serializable -> Serializable)
  | _ -> Opaque

let make spec heap : Stm_intf.Engine.t =
  match spec with
  | Swisstm config -> Swisstm.Swisstm_engine.engine ~config heap
  | Tl2 config -> Tl2.Tl2_engine.engine ~config heap
  | Tinystm config -> Tinystm.Tinystm_engine.engine ~config heap
  | Rstm config -> Rstm.Rstm_engine.engine ~config heap
  | Mvstm config -> Mvstm.Mvstm_engine.engine ~config heap
  | Glock -> Glock.Glock_engine.engine heap
  | Norec config -> Kernel.Norec.engine ~config heap
  | Tlrw config -> Kernel.Tlrw.engine ~config heap
  | Kernel config -> Kernel.Compose.engine ~config config.point heap

(* Granularity override across engine families (Figure 13 / Table 2). *)
let with_granularity gran spec =
  match spec with
  | Swisstm c -> Swisstm { c with granularity_words = gran }
  | Tl2 c -> Tl2 { c with granularity_words = gran }
  | Tinystm c -> Tinystm { c with granularity_words = gran }
  | Rstm c -> Rstm { c with granularity_words = gran }
  | Mvstm c -> Mvstm { c with granularity_words = gran }
  | Glock -> Glock
  | Norec c -> Norec c (* no stripes: validation is per-address *)
  | Tlrw c -> Tlrw { c with Kernel.Tlrw.granularity_words = gran }
  | Kernel c -> Kernel { c with granularity_words = gran }

(* Smaller lock/version tables for workloads touching few addresses (the
   fuzzer builds a fresh engine per run; 2^18-entry tables dominate its
   runtime otherwise).  Hash collisions only add false conflicts, never
   hide real ones, so correctness checking stays sound. *)
let with_table_bits bits spec =
  match spec with
  | Swisstm c -> Swisstm { c with table_bits = bits }
  | Tl2 c -> Tl2 { c with table_bits = bits }
  | Tinystm c -> Tinystm { c with table_bits = bits }
  | Rstm c -> Rstm { c with table_bits = bits }
  | Mvstm c -> Mvstm { c with table_bits = bits }
  | Glock -> Glock
  | Norec c -> Norec c (* no lock table at all *)
  | Tlrw c -> Tlrw { c with Kernel.Tlrw.table_bits = bits }
  | Kernel c -> Kernel { c with table_bits = bits }

(* Composed design points resolve through the kernel registry, so a name
   like "k-eager-visible" is runnable everywhere a classic name is. *)
let of_registry name =
  match Kernel.Registry.find name with
  | Some { Kernel.Registry.kind = Kernel.Registry.Composed; point = Some p; _ }
    ->
      Some (Kernel (Kernel.Compose.default_config p))
  | _ -> None

let of_string = function
  | "swisstm" -> Some swisstm
  | "tl2" -> Some tl2
  | "tinystm" -> Some tinystm
  | "rstm" -> Some rstm
  | "rstm-lazy" -> Some (rstm_with ~acquire:Rstm.Rstm_engine.Lazy ())
  | "rstm-visible" -> Some (rstm_with ~visibility:Rstm.Rstm_engine.Visible ())
  | "rstm-serializer" -> Some (rstm_with ~cm:Cm.Cm_intf.Serializer ())
  | "rstm-greedy" -> Some (rstm_with ~cm:Cm.Cm_intf.Greedy ())
  | "swisstm-timid" -> Some (swisstm_with ~cm:Cm.Cm_intf.Timid ())
  | "swisstm-greedy" -> Some (swisstm_with ~cm:Cm.Cm_intf.Greedy ())
  | "swisstm-priv" -> Some swisstm_priv_safe
  | "swisstm-broken" -> Some swisstm_broken
  | "mvstm" -> Some mvstm
  | "rstm-karma" -> Some (rstm_with ~cm:Cm.Cm_intf.Karma ())
  | "rstm-timestamp" -> Some (rstm_with ~cm:Cm.Cm_intf.Timestamp ())
  | "swisstm-adaptive" -> Some (with_cm Cm.Cm_intf.default_adaptive swisstm)
  | "tl2-adaptive" -> Some (with_cm Cm.Cm_intf.default_adaptive tl2)
  | "tinystm-adaptive" -> Some (with_cm Cm.Cm_intf.default_adaptive tinystm)
  | "rstm-adaptive" -> Some (with_cm Cm.Cm_intf.default_adaptive rstm)
  | "mvstm-adaptive" -> Some (with_cm Cm.Cm_intf.default_adaptive mvstm)
  | "glock" -> Some Glock
  | "norec" -> Some norec
  | "tlrw" -> Some tlrw
  | "norec-adaptive" -> Some (with_cm Cm.Cm_intf.default_adaptive norec)
  | "tlrw-adaptive" -> Some (with_cm Cm.Cm_intf.default_adaptive tlrw)
  | name -> of_registry name

let kernel_names =
  List.filter_map
    (fun (e : Kernel.Registry.entry) ->
      match e.kind with Kernel.Registry.Composed -> Some e.name | _ -> None)
    Kernel.Registry.entries

let known_names =
  [
    "swisstm"; "tl2"; "tinystm"; "rstm"; "rstm-lazy"; "rstm-visible";
    "rstm-serializer"; "rstm-greedy"; "rstm-karma"; "rstm-timestamp";
    "swisstm-timid"; "swisstm-greedy"; "swisstm-priv"; "mvstm";
    "swisstm-adaptive"; "tl2-adaptive"; "tinystm-adaptive"; "rstm-adaptive";
    "mvstm-adaptive"; "glock";
    "norec"; "tlrw"; "norec-adaptive"; "tlrw-adaptive";
  ]
  @ kernel_names

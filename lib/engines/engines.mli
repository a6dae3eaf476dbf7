(** Engine registry: build any STM engine from a declarative spec.

    Every experiment in the paper is a choice of
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
      (** A composed design point from {!Kernel.Registry}: an axis
          combination (acquisition × visibility × validation) that none of
          the dedicated engines implements, run by {!Kernel.Compose}. *)

val swisstm : spec
(** The paper's SwissTM: mixed invalidation, two-phase CM, 4-word stripes. *)

val tl2 : spec
(** TL2 defaults: lazy acquisition, GV4 clock, timid. *)

val tinystm : spec
(** TinySTM defaults: encounter-time locking, extension, timid. *)

val rstm : spec
(** RSTM defaults as configured in the paper §4: eager acquisition,
    invisible reads with commit-counter heuristic, Polka. *)

val mvstm : spec
(** Multi-version extension (paper §6): TL2-style updates plus version
    chains serving consistent old snapshots to read-only transactions. *)

val norec : spec
(** NOrec ({!Kernel.Norec}): no per-location metadata — one global
    sequence lock, (address, value) read journal revalidated whenever the
    sequence moves, redo write-back under the lock.  Opaque.  Timid by
    default (there are no lock conflicts to arbitrate). *)

val tlrw : spec
(** TLRW-style bytelocks ({!Kernel.Tlrw}): per-stripe owner word + reader
    bitmap, readers blocking-visible, writers drain readers at encounter
    time.  No clock, no validation; opaque by construction.  Polka. *)

val swisstm_priv_safe : spec
(** SwissTM with the §6 quiescence barrier (privatization-safe commits). *)

val swisstm_broken : spec
(** DEBUG ONLY: SwissTM with read-set validation disabled
    ([debug_no_validation]).  Breaks opacity on purpose; the fuzzer uses it
    to prove the history checker catches a buggy engine.  Accepted by
    {!of_string} as ["swisstm-broken"] but hidden from {!known_names}. *)

val rstm_with :
  ?acquire:Rstm.Rstm_engine.acquire ->
  ?visibility:Rstm.Rstm_engine.visibility ->
  ?cm:Cm.Cm_intf.spec ->
  unit ->
  spec

val swisstm_with :
  ?cm:Cm.Cm_intf.spec ->
  ?granularity_words:int ->
  ?table_bits:int ->
  unit ->
  spec

val with_cm : Cm.Cm_intf.spec -> spec -> spec
(** Swap the contention manager of any spec ([Glock] is unchanged).  For
    TL2/TinySTM/MVSTM the manager governs rollback back-off, the adaptive
    throttle and the escalation budget only — conflict resolution at
    acquisition stays timid. *)

val name : spec -> string
val make : spec -> Memory.Heap.t -> Stm_intf.Engine.t

type contract = Opaque | Serializable

val contract : spec -> contract
(** What the engine guarantees about aborted transactions' reads:
    [Opaque] engines give every attempt a consistent snapshot; RSTM's
    invisible-read mode is [Serializable] — committed transactions
    serialize, but doomed ones may observe inconsistent state before
    validation aborts them (the motivating weakness for timestamp-based
    designs). *)

val with_granularity : int -> spec -> spec
(** Override the stripe size (Figure 13 / Table 2 sweeps). *)

val with_table_bits : int -> spec -> spec
(** Override the lock/version-table size.  The fuzzer uses small tables
    so per-run engine construction stays cheap; collisions only add false
    conflicts. *)

val of_string : string -> spec option
(** Resolves the classic names plus every composed point registered in
    {!Kernel.Registry} (the ["k-..."] names). *)

val kernel_names : string list
(** Names of the composed (kernel-only) design points, in registry order. *)

val known_names : string list

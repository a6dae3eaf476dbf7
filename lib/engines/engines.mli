(** The engine catalogue: build any STM engine from a declarative spec,
    and place it in the design space of {!Kernel.Axes}.

    Every experiment in the paper is a choice of
    (benchmark, spec list, thread counts). *)

type family =
  | Swisstm of { privatization_safe : bool; debug_no_validation : bool }
      (** [privatization_safe]: the §6 quiescence barrier.
          [debug_no_validation]: DEBUG ONLY, validation disabled. *)
  | Tl2
  | Tinystm
  | Rstm of {
      acquire : Rstm.Rstm_engine.acquire;
      visibility : Rstm.Rstm_engine.visibility;
    }
  | Mvstm of { max_chain : int }
      (** version records kept per stripe before truncation *)
  | Glock
  | Norec
  | Tlrw
  | Kernel of Kernel.Axes.point
      (** A composed design point: an axis combination (acquisition ×
          visibility × validation) that none of the dedicated engines
          implements, run by {!Kernel.Compose}. *)

type spec = {
  family : family;
  cm : Cm.Cm_intf.spec;
      (** Contention manager.  For TL2/TinySTM/MVSTM/NOrec it governs
          rollback back-off, the adaptive throttle and the escalation
          budget only — conflict resolution at acquisition stays timid.
          Ignored by [Glock]. *)
  granularity_words : int;  (** stripe size (Figure 13 / Table 2) *)
  table_bits : int;  (** log2 of the lock/version-table size *)
}
(** An engine: its family plus the knobs the paper sweeps across every
    family alike.  NOrec and [Glock] have no stripes and ignore
    [granularity_words]/[table_bits]. *)

val of_family : family -> spec
(** The family with its default manager (paper §4), 4-word stripes and
    a 2^18-entry table. *)

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

val glock : spec
(** Single global lock, no speculation: the serial control. *)

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
  unit ->
  spec

val with_cm : Cm.Cm_intf.spec -> spec -> spec
(** [{ spec with cm }]. *)

val name : spec -> string
(** The family's label, with ["(cm)"] appended when the manager is not
    the family's default; RSTM's label always names its manager,
    [Glock]'s never does.  Keys [Obs.Metrics] and every bench table. *)

val make : spec -> Memory.Heap.t -> Stm_intf.Engine.t

val point : spec -> Kernel.Axes.point option
(** The spec's place in axis space; [None] for [Glock], which sits
    outside it. *)

val contract : spec -> Kernel.Axes.contract
(** {!Kernel.Axes.contract_of} the spec's {!point}; [Opaque] for [Glock].
    RSTM's invisible-read mode is the one [Serializable] classic engine:
    committed transactions serialize, but doomed ones may observe
    inconsistent state before validation aborts them. *)

val with_granularity : int -> spec -> spec
(** [{ spec with granularity_words }] (Figure 13 / Table 2 sweeps). *)

val with_table_bits : int -> spec -> spec
(** [{ spec with table_bits }].  The fuzzer uses small tables so per-run
    engine construction stays cheap; collisions only add false
    conflicts. *)

val of_string : string -> spec option
(** Resolves the classic names plus every composed point (the ["k-..."]
    names). *)

val kernel_names : string list
(** Names of the composed (kernel-only) design points, in listing order. *)

val known_names : string list

val catalogue : (string * string) list
(** Each name [bench ablations --list] prints, with its one-line summary:
    the paper's five engines, the global lock, NOrec, TLRW and the
    composed points. *)

(* SwissTM tunables.

   Defaults follow the paper: two-phase contention manager with
   [wn = 10] and randomized linear back-off, 4-word stripes (2^4 bytes on
   the paper's 32-bit platform).  The granularity and table size are the
   knobs swept by Figure 13 / Table 2; [cm] and the back-off switch drive
   Figures 10–12. *)

type t = {
  cm : Cm.Cm_intf.spec;
  granularity_words : int;
  table_bits : int;
  seed : int;
  quiesce_slots : int;
      (** size of the §6 quiescence table — the engine's thread cap when
          [privatization_safe] is set (a committer scans every slot, so
          the table must stay as small as the run needs; the scan is
          charged).  Tids at or beyond it raise
          [Engine.Unsupported_thread_count].  Irrelevant otherwise. *)
  privatization_safe : bool;
      (** §6 extension: quiescence at commit — every committing update
          transaction waits until all transactions that started before its
          commit have validated, committed or aborted, making the
          privatization idiom safe at a measurable cost *)
  debug_no_validation : bool;
      (** DEBUG ONLY: make read-set validation vacuously succeed, so stale
          reads survive extension and commit.  Deliberately breaks opacity;
          exists so the fuzzer's checker can prove it catches a broken
          engine ([stm_fuzz --self-check]). *)
}

let default =
  {
    cm = Cm.Cm_intf.default_two_phase;
    granularity_words = 4;
    table_bits = 18;
    seed = 0xC0FFEE;
    quiesce_slots = 64;
    privatization_safe = false;
    debug_no_validation = false;
  }

let with_cm cm t = { t with cm }
let with_granularity granularity_words t = { t with granularity_words }
let with_seed seed t = { t with seed }
let with_quiesce_slots quiesce_slots t = { t with quiesce_slots }

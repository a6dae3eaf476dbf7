(* Cycle-level cost model for the simulated multiprocessor.

   Constants approximate a 2009-era 2.4 GHz AMD Opteron (the paper's
   machine): L1-resident accesses cost a few cycles, atomic read-modify-write
   instructions cost tens of cycles, and a cache line bouncing between cores
   costs on the order of a hundred cycles.  Absolute throughput numbers are
   not meant to match the paper; the model only has to preserve the *ratios*
   between cheap local work, synchronisation, and cross-core communication,
   which is what drives every experiment in the evaluation.

   Coherence misses are distance-keyed (DESIGN.md §16): a line refetched
   from the requesting core's own cache hierarchy costs [miss_local], a
   transfer from another core on the same socket costs [miss_socket], and
   a cross-socket transfer costs [miss_cross].  Under the default flat
   (single-socket) topology only [miss_socket] is ever charged, and its
   default equals the old single [cache_miss] constant — the flat model
   is bit-identical to the pre-topology one. *)

type t = {
  mem : int;  (** plain heap word read/write (assumed cache-resident) *)
  atomic_hit : int;  (** atomic load/store, line already local *)
  miss_local : int;
      (** refetch of a line last touched by this very core (L1 victim
          served from the core's own lower levels) *)
  miss_socket : int;
      (** line transferred from another core on the same socket — the old
          flat-model [cache_miss] *)
  miss_cross : int;  (** line transferred from a remote socket *)
  cas : int;  (** extra cost of a CAS / fetch-and-add over a plain access *)
  log_append : int;  (** appending an entry to a read or write log *)
  log_lookup : int;  (** write-log lookup (read-after-write check) *)
  validate_entry : int;  (** re-checking one read-log entry during validation *)
  tx_begin : int;  (** fixed transaction-start overhead *)
  tx_end : int;  (** fixed commit/rollback bookkeeping overhead *)
  pause : int;  (** one iteration of a spin-wait loop *)
  work : int;  (** one unit of application-level compute *)
}

let default =
  {
    mem = 3;
    atomic_hit = 5;
    miss_local = 40;
    miss_socket = 120;
    miss_cross = 300;
    cas = 25;
    log_append = 10;
    log_lookup = 14;
    validate_entry = 7;
    tx_begin = 30;
    tx_end = 30;
    pause = 12;
    work = 1;
  }

(* The model is global and read on every simulated instruction; a plain
   mutable ref keeps the fast path allocation-free.  It is only ever written
   from test/bench setup code, before threads are spawned. *)
let current = ref default
let[@inline] get () = !current
let set c = current := c
let reset () = current := default

(** Cycles per simulated second; used to convert virtual time into
    transactions-per-second figures comparable with the paper's axes. *)
let cycles_per_second = 2_400_000_000.

let seconds_of_cycles cy = float_of_int cy /. cycles_per_second

let pp ppf c =
  Format.fprintf ppf
    "{mem=%d; atomic_hit=%d; miss_local=%d; miss_socket=%d; miss_cross=%d; \
     cas=%d; log_append=%d; log_lookup=%d; validate_entry=%d; tx_begin=%d; \
     tx_end=%d; pause=%d; work=%d}"
    c.mem c.atomic_hit c.miss_local c.miss_socket c.miss_cross c.cas
    c.log_append c.log_lookup c.validate_entry c.tx_begin c.tx_end c.pause
    c.work

(* Environment override: SWISSTM_COSTS="mem=3,miss_socket=200,cas=30".
   The pre-topology key "cache_miss" is kept as an alias for
   [miss_socket].  Unknown keys are reported on stderr and ignored. *)
let apply_env () =
  match Sys.getenv_opt "SWISSTM_COSTS" with
  | None -> ()
  | Some spec ->
      let c = ref default in
      String.split_on_char ',' spec
      |> List.iter (fun kv ->
             match String.split_on_char '=' (String.trim kv) with
             | [ k; v ] -> (
                 match (k, int_of_string_opt v) with
                 | "mem", Some v -> c := { !c with mem = v }
                 | "atomic_hit", Some v -> c := { !c with atomic_hit = v }
                 | "miss_local", Some v -> c := { !c with miss_local = v }
                 | "miss_socket", Some v -> c := { !c with miss_socket = v }
                 | "cache_miss", Some v -> c := { !c with miss_socket = v }
                 | "miss_cross", Some v -> c := { !c with miss_cross = v }
                 | "cas", Some v -> c := { !c with cas = v }
                 | "log_append", Some v -> c := { !c with log_append = v }
                 | "log_lookup", Some v -> c := { !c with log_lookup = v }
                 | "validate_entry", Some v -> c := { !c with validate_entry = v }
                 | "tx_begin", Some v -> c := { !c with tx_begin = v }
                 | "tx_end", Some v -> c := { !c with tx_end = v }
                 | "pause", Some v -> c := { !c with pause = v }
                 | "work", Some v -> c := { !c with work = v }
                 | _ ->
                     Printf.eprintf "SWISSTM_COSTS: ignoring %S\n%!" kv)
             | _ -> Printf.eprintf "SWISSTM_COSTS: ignoring %S\n%!" kv);
      set !c

let () = apply_env ()

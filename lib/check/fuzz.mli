(** Fuzzing driver: run generated programs under perturbed schedules,
    check opacity, shrink failures to replayable triples. *)

type check_result = Pass | Undecided of string | Fail of string

val check_outcome :
  ?level:Kernel.Axes.contract -> Program.outcome -> check_result

val run_once :
  spec:Engines.spec -> policy:Runtime.Sim.policy -> Program.t -> check_result
(** Run and check at the engine's own contract ({!Engines.contract}).  An armed
    [Runtime.Inject] is re-armed from its seed first, so every run of a
    triple faces the same faults. *)

val policy_of_spec : string -> Runtime.Sim.policy option
(** ["earliest"]; ["random:<seed>"] / ["random:<seed>:<window>:<quantum>"];
    ["pct:<seed>"] / ["pct:<seed>:<depth>:<horizon>"].  Short forms take
    Sim's defaults. *)

val spec_of_policy : Runtime.Sim.policy -> string
(** Always the full-parameter form, so a stored spec replays the exact
    schedule. *)

val fuzz_random_policy : int -> Runtime.Sim.policy
val fuzz_pct_policy : int -> Runtime.Sim.policy
(** Policies scaled to the fuzzer's micro-programs (fine quanta, short
    PCT horizon); Sim's benchmark-sized defaults barely perturb them. *)

val shrink_failure :
  spec:Engines.spec -> policy:Runtime.Sim.policy -> Program.t -> Program.t
(** Greedily minimise a failing program, re-running under the same
    (engine, policy) after each step. *)

type failure = {
  engine : string;
  policy_spec : string;
  inject_seed : int option;  (** the armed injector's seed, if any *)
  program : Program.t;
  reason : string;
}

val pp_failure : out_channel -> failure -> unit

type stats = {
  mutable runs : int;
  mutable undecided : int;
  mutable failures : failure list;
}

val fuzz :
  spec:Engines.spec ->
  ?name:string ->
  ?cells:int ->
  make_policy:(int -> Runtime.Sim.policy) ->
  seeds:int ->
  progs:int ->
  threads:int ->
  ?verbose:bool ->
  ?stop_after:int ->
  unit ->
  stats
(** [progs] generated programs x [seeds] scheduler seeds; the first
    failing seed of each program is shrunk and recorded.  [stop_after]
    bounds the number of recorded failures (default unlimited). *)

type corpus_entry = {
  c_engine : string;
  c_policy : string;
  c_program : Program.t;
}

val parse_corpus_lines : string list -> (corpus_entry, string) result
val load_corpus : string -> (corpus_entry, string) result

val replay : corpus_entry -> (unit, string) result
(** Re-run a stored triple and re-check its history. *)

(* Fuzzing driver: generate programs, run them under perturbed schedules,
   check every recorded history for opacity, and shrink failures down to
   replayable (engine, policy, program) triples. *)

type check_result = Pass | Undecided of string | Fail of string

let check_outcome ?(level = Kernel.Axes.Opaque) (o : Program.outcome) : check_result =
  if o.timed_out then Undecided "simulation timeout"
  else
    match
      Opacity.check ~level ~events:o.events ~scope_aborts:o.scope_aborts
        ~init:o.init ~final:o.final ()
    with
    | Opaque -> Pass
    | Gave_up m -> Undecided m
    | Violation m -> Fail m

(* An armed injector restarts its fault streams from its seed at every
   run, so a run, each shrink step and each replay of a triple face the
   same faults whatever ran before them.  Each engine is held to exactly
   what it promises: invisible-read RSTM only guarantees that committed
   transactions serialize. *)
let run_once ~spec ~policy p =
  Option.iter
    (fun (seed, profile) -> Runtime.Inject.arm ~seed profile)
    (Runtime.Inject.armed ());
  check_outcome ~level:(Engines.contract spec) (Program.run ~spec ~policy p)

(* ---------- policy specs (replayable strings) ---------- *)

(* The full-parameter forms print/parse every knob, so a stored spec
   reproduces the exact schedule; the short forms take Sim's defaults. *)
let policy_of_spec (s : string) : Runtime.Sim.policy option =
  let ( let* ) = Option.bind in
  match String.split_on_char ':' s with
  | [ "earliest" ] -> Some Runtime.Sim.Earliest_first
  | [ "random"; n ] ->
      int_of_string_opt n |> Option.map Runtime.Sim.random_policy
  | [ "random"; n; w; q ] ->
      let* seed = int_of_string_opt n in
      let* window = int_of_string_opt w in
      let* quantum = int_of_string_opt q in
      Some (Runtime.Sim.Random { seed; window; quantum })
  | [ "pct"; n ] -> int_of_string_opt n |> Option.map Runtime.Sim.pct_policy
  | [ "pct"; n; d; h ] ->
      let* seed = int_of_string_opt n in
      let* depth = int_of_string_opt d in
      let* horizon = int_of_string_opt h in
      Some (Runtime.Sim.Pct { seed; depth; horizon })
  | _ -> None

let spec_of_policy : Runtime.Sim.policy -> string = function
  | Runtime.Sim.Earliest_first -> "earliest"
  | Runtime.Sim.Random { seed; window; quantum } ->
      Printf.sprintf "random:%d:%d:%d" seed window quantum
  | Runtime.Sim.Pct { seed; depth; horizon } ->
      Printf.sprintf "pct:%d:%d:%d" seed depth horizon

(* Policies scaled to the fuzzer's micro-programs, whose makespans are a
   few thousand cycles: Sim's benchmark-sized defaults (2000-cycle quanta,
   2M-cycle PCT horizon) would barely preempt inside a transaction and
   would place every PCT change point past the end of the run. *)
let fuzz_random_policy seed =
  Runtime.Sim.Random { seed; window = 1_000; quantum = 150 }

let fuzz_pct_policy seed = Runtime.Sim.Pct { seed; depth = 3; horizon = 4_000 }

(* ---------- shrinking ---------- *)

let shrink_failure ~spec ~policy (p : Program.t) : Program.t =
  let fails q =
    match run_once ~spec ~policy q with Fail _ -> true | _ -> false
  in
  let rec go p =
    match List.find_opt fails (Program.shrink p) with
    | Some q -> go q
    | None -> p
  in
  go p

(* ---------- fuzz loop ---------- *)

type failure = {
  engine : string;
  policy_spec : string;
  inject_seed : int option;
  program : Program.t;
  reason : string;
}

let pp_failure oc (f : failure) =
  let inject =
    match f.inject_seed with
    | None -> ""
    | Some s -> Printf.sprintf ", inject seed %d (--inject --inject-seed %d)" s s
  in
  Printf.fprintf oc
    "OPACITY VIOLATION: %s\n  replay: engine %s, policy %s%s\n%s\n" f.reason
    f.engine f.policy_spec inject
    (String.concat "\n"
       (List.map (fun l -> "  " ^ l) (Program.to_lines f.program)))

type stats = {
  mutable runs : int;
  mutable undecided : int;
  mutable failures : failure list;
}

(* Fuzz one engine: [progs] generated programs, each run under [seeds]
   scheduler seeds of [make_policy].  On the first failing seed of a
   program the counterexample is shrunk (replaying under the same
   policy) and recorded; remaining seeds for that program are skipped. *)
let fuzz ~(spec : Engines.spec) ?name ?(cells = 8)
    ~(make_policy : int -> Runtime.Sim.policy) ~(seeds : int) ~(progs : int)
    ~(threads : int) ?(verbose = false) ?(stop_after = max_int) () : stats =
  (* [name] should be the catalogue name ([Engines.of_string]-compatible) so
     recorded failures replay; the display name is only a fallback. *)
  let engine = Option.value name ~default:(Engines.name spec) in
  let st = { runs = 0; undecided = 0; failures = [] } in
  let pi = ref 0 in
  while !pi < progs && List.length st.failures < stop_after do
    let p = Program.generate ~cells ~threads ~seed:!pi () in
    let failed = ref false in
    let si = ref 0 in
    while (not !failed) && !si < seeds do
      let policy = make_policy !si in
      incr si;
      st.runs <- st.runs + 1;
      match run_once ~spec ~policy p with
      | Pass -> ()
      | Undecided m ->
          st.undecided <- st.undecided + 1;
          if verbose then
            Printf.eprintf "  [%s/%s] prog %d undecided: %s\n%!" engine
              (spec_of_policy policy) !pi m
      | Fail _ ->
          failed := true;
          let small = shrink_failure ~spec ~policy p in
          let reason =
            match run_once ~spec ~policy small with
            | Fail m -> m
            | _ -> "violation (reason from unshrunk run lost)"
          in
          st.failures <-
            {
              engine;
              policy_spec = spec_of_policy policy;
              inject_seed = Option.map fst (Runtime.Inject.armed ());
              program = small;
              reason;
            }
            :: st.failures
    done;
    incr pi
  done;
  st.failures <- List.rev st.failures;
  st

(* ---------- corpus ---------- *)

type corpus_entry = {
  c_engine : string;
  c_policy : string;
  c_program : Program.t;
}

let parse_corpus_lines (lines : string list) : (corpus_entry, string) result =
  let engine = ref None and policy = ref None and rest = ref [] in
  List.iter
    (fun line ->
      let l = String.trim line in
      if l = "" || l.[0] = '#' then ()
      else
        match String.index_opt l ' ' with
        | Some sp when String.sub l 0 sp = "engine" ->
            engine :=
              Some (String.trim (String.sub l (sp + 1) (String.length l - sp - 1)))
        | Some sp when String.sub l 0 sp = "policy" ->
            policy :=
              Some (String.trim (String.sub l (sp + 1) (String.length l - sp - 1)))
        | _ -> rest := line :: !rest)
    lines;
  match (!engine, !policy) with
  | None, _ -> Error "corpus entry: missing 'engine' line"
  | _, None -> Error "corpus entry: missing 'policy' line"
  | Some e, Some pol -> (
      match Program.of_lines (List.rev !rest) with
      | Error m -> Error m
      | Ok p -> Ok { c_engine = e; c_policy = pol; c_program = p })

let load_corpus (path : string) : (corpus_entry, string) result =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  parse_corpus_lines (List.rev !lines)

(* Replay one corpus entry; [Ok ()] when the history checks out. *)
let replay (e : corpus_entry) : (unit, string) result =
  match Engines.of_string e.c_engine with
  | None -> Error ("unknown engine: " ^ e.c_engine)
  | Some spec -> (
      match policy_of_spec e.c_policy with
      | None -> Error ("unknown policy: " ^ e.c_policy)
      | Some policy -> (
          match run_once ~spec ~policy e.c_program with
          | Pass -> Ok ()
          | Undecided m -> Error ("undecided: " ^ m)
          | Fail m -> Error ("opacity violation: " ^ m)))

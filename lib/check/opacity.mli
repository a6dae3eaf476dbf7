(** Offline final-state opacity checker for recorded histories. *)

type verdict =
  | Opaque  (** a sequential witness exists and every aborted attempt saw
                a consistent snapshot *)
  | Violation of string  (** proof of non-opacity (or a malformed trace) *)
  | Gave_up of string
      (** the trace is outside the checker's scope (partial rollback,
          unfinished attempts) or the search budget ran out — NOT a
          verdict either way *)

val check :
  ?budget:int ->
  ?level:Kernel.Axes.contract ->
  events:Stm_intf.Trace.event array ->
  scope_aborts:int ->
  init:(int * int) list ->
  final:(int * int) list ->
  unit ->
  verdict
(** [check ~events ~scope_aborts ~init ~final ()] decides final-state
    opacity of one recorded run.  [init] gives the initial value of every
    tracked address (unlisted addresses default to 0); [final] is the heap
    actually observed after the run and must be matched by the witness.
    [budget] caps backtracking nodes in the witness search (default 200k).
    [level] defaults to [Opaque]; at [Serializable] aborted attempts
    are unconstrained (the contract of invisible-read RSTM) and only the
    committed transactions must serialize. *)

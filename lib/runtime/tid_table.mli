(** A table with one slot per logical thread, each built on first use.

    Every slot holds a shared sentinel until [get] first asks for it and
    builds the entry.  A later [get] of a built slot is inlined into the
    caller: it loads the slot array and the sentinel from the table, one
    bounds-checked slot (a generic array read, which also tests the
    array's tag), and compares the slot with the sentinel by [!=].
    Construction allocates the slot array only, so a run pays only for
    the tids it uses.

    Publication: a slot is written by the thread running as its tid, on
    that tid's first [get].  A [get] of another tid's slot must follow a
    read of that tid from shared state the owner published after its own
    first [get] (a lock owner word, a reader bit), so it finds a built
    entry. *)

type 'a t

val create : absent:'a -> (int -> 'a) -> 'a t
(** [create ~absent build] has one slot per tid below
    {!Topology.max_cores}, each [absent] until [get] builds it with
    [build tid].  [absent] must be physically distinct from every entry
    [build] returns. *)

val get : 'a t -> int -> 'a
(** [get t tid] is slot [tid]'s entry, built on the first call.  Raises
    [Invalid_argument] when [tid] is out of range. *)

val iter : ('a -> unit) -> 'a t -> unit
(** [iter f t] applies [f] to every built entry, in slot order. *)

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
(** [fold f acc t] folds [f] over every built entry, in slot order. *)

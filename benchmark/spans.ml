(* Spans at the benchmark's calls into the engine layer.

   [wrap] returns an engine whose [atomic] opens a span and hands the
   body a [tx_ops] record whose read/write/alloc/free each record a child
   span of that atomic.  The clock is a parameter: host nanoseconds on
   native domains, [Runtime.Exec.now] (the calling thread's own virtual
   time) under the simulator, where a host timer would also count every
   other fiber that runs while this one is switched out.

   Counts and times are aggregated per kind for the whole cell; the first
   [max_spans] spans are also kept for the Chrome trace.  An atomic's
   self time is its duration minus the time its children cover, so it
   holds begin, validation, commit and every retry's bookkeeping. *)

open Stm_intf

let kinds = [| "atomic"; "read"; "write"; "alloc"; "free" |]
let k_atomic = 0
let k_read = 1
let k_write = 2
let k_alloc = 3
let k_free = 4
let max_spans = 10_000

type t = {
  clock : unit -> int;
  count : int array;  (** calls per kind *)
  time : int array;  (** clock units per kind *)
  current : int array;  (** per tid: id of the open atomic span *)
  mutable next_id : int;
  mutable n : int;  (** spans kept, at most [max_spans] *)
  s_kind : int array;
  s_tid : int array;
  s_start : int array;
  s_dur : int array;
  s_link : int array;  (** atomic: its own id; child: its parent's id *)
}

let create clock =
  let a () = Array.make max_spans 0 in
  {
    clock;
    count = Array.make (Array.length kinds) 0;
    time = Array.make (Array.length kinds) 0;
    current = Array.make Stats.max_threads (-1);
    next_id = 0;
    n = 0;
    s_kind = a ();
    s_tid = a ();
    s_start = a ();
    s_dur = a ();
    s_link = a ();
  }

let record t kind tid t0 link =
  let d = t.clock () - t0 in
  t.count.(kind) <- t.count.(kind) + 1;
  t.time.(kind) <- t.time.(kind) + d;
  let i = t.n in
  if i < max_spans then begin
    t.s_kind.(i) <- kind;
    t.s_tid.(i) <- tid;
    t.s_start.(i) <- t0;
    t.s_dur.(i) <- d;
    t.s_link.(i) <- link;
    t.n <- i + 1
  end

let wrap_ops t tid (ops : Engine.tx_ops) : Engine.tx_ops =
  let parent = t.current.(tid) in
  {
    read =
      (fun a ->
        let t0 = t.clock () in
        let v = ops.read a in
        record t k_read tid t0 parent;
        v);
    write =
      (fun a v ->
        let t0 = t.clock () in
        ops.write a v;
        record t k_write tid t0 parent);
    alloc =
      (fun n ->
        let t0 = t.clock () in
        let a = ops.alloc n in
        record t k_alloc tid t0 parent;
        a);
    free =
      (fun a n ->
        let t0 = t.clock () in
        ops.free a n;
        record t k_free tid t0 parent);
  }

let wrap t (e : Engine.t) : Engine.t =
  let atomic : 'a. tid:int -> (Engine.tx_ops -> 'a) -> 'a =
   fun ~tid f ->
    let id = t.next_id in
    t.next_id <- id + 1;
    t.current.(tid) <- id;
    let t0 = t.clock () in
    let r = e.atomic ~tid (fun ops -> f (wrap_ops t tid ops)) in
    record t k_atomic tid t0 id;
    r
  in
  { e with atomic }

(* The aggregates below pool several cells (same clock) at once. *)

let sum f ts = List.fold_left (fun acc t -> acc + f t) 0 ts

(** Calls of one kind. *)
let count ts kind = sum (fun t -> t.count.(kind)) ts

let per n d = if d = 0 then 0. else float_of_int n /. float_of_int d

(** Mean clock units per call of one kind (0 when never called). *)
let mean ts kind = per (sum (fun t -> t.time.(kind)) ts) (count ts kind)

(** Mean self time per atomic, in clock units. *)
let atomic_self ts =
  let children = ref 0 in
  for k = 1 to Array.length kinds - 1 do
    children := !children + sum (fun t -> t.time.(k)) ts
  done;
  per (sum (fun t -> t.time.(k_atomic)) ts - !children) (count ts k_atomic)

(** Chrome trace_event JSON of the kept spans of every cell: one process
    per cell, one thread lane per tid, [us_per_unit] converting the
    cell's clock to microseconds. *)
let chrome (cells : (string * float * t) list) =
  let open Obs.Json in
  let events =
    List.concat
      (List.mapi
         (fun pid (label, us_per_unit, t) ->
           let origin = Array.fold_left min max_int (Array.sub t.s_start 0 t.n) in
           let meta =
             Obj
               [
                 ("name", Str "process_name");
                 ("ph", Str "M");
                 ("pid", Int pid);
                 ("args", Obj [ ("name", Str label) ]);
               ]
           in
           meta
           :: List.init t.n (fun i ->
                  let link = if t.s_kind.(i) = k_atomic then "id" else "parent" in
                  Obj
                    [
                      ("name", Str kinds.(t.s_kind.(i)));
                      ("ph", Str "X");
                      ("pid", Int pid);
                      ("tid", Int t.s_tid.(i));
                      ("ts", Float (float_of_int (t.s_start.(i) - origin) *. us_per_unit));
                      ("dur", Float (float_of_int t.s_dur.(i) *. us_per_unit));
                      ("args", Obj [ (link, Int t.s_link.(i)) ]);
                    ]))
         cells)
  in
  Obj [ ("traceEvents", List events); ("displayTimeUnit", Str "ns") ]

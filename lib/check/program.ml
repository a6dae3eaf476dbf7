(* The fuzzer's transactional-program DSL.

   A program is a fixed number of cells (cell i starts at value i) and,
   per thread, a list of transactions; each transaction is a list of
   actions interpreted against the engine's tx_ops.  [Nest] re-enters
   [Engine.atomic] (flat nesting), exercising the nesting depth counters
   without closed-scope partial rollback — so recorded traces stay
   checkable.

   The concrete syntax round-trips through {!to_lines}/{!of_lines} and is
   what the replay corpus under test/corpus stores:

     cells 8
     thread R0,W1=5;A2+=0,[R1,W3=9]
     thread A0+=1

   ('R<i>' read, 'W<i>=<v>' write, 'A<i>+=<j>' cells[i] += cells[j] + 1,
   '[...]' nested block; ',' separates actions, ';' transactions). *)

type action =
  | Rd of int
  | Wr of int * int
  | Acc of int * int
  | Nest of action list

type t = { cells : int; threads : action list list array }

let init_value i = i

(* ---------- printing ---------- *)

let rec action_to_string = function
  | Rd i -> Printf.sprintf "R%d" i
  | Wr (i, v) -> Printf.sprintf "W%d=%d" i v
  | Acc (i, j) -> Printf.sprintf "A%d+=%d" i j
  | Nest l ->
      Printf.sprintf "[%s]"
        (String.concat "," (List.map action_to_string l))

let tx_to_string tx = String.concat "," (List.map action_to_string tx)

let to_lines (p : t) : string list =
  Printf.sprintf "cells %d" p.cells
  :: (Array.to_list p.threads
     |> List.map (fun txs ->
            "thread " ^ String.concat ";" (List.map tx_to_string txs)))

let to_string p = String.concat "\n" (to_lines p)

(* ---------- parsing ---------- *)

exception Parse of string

let parse_actions (s : string) : action list =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg =
    raise (Parse (Printf.sprintf "%s at offset %d in %S" msg !pos s))
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let expect c =
    if peek () = Some c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let int () =
    let start = !pos in
    while
      !pos < n && match s.[!pos] with '0' .. '9' -> true | _ -> false
    do
      incr pos
    done;
    if !pos = start then fail "expected integer";
    int_of_string (String.sub s start (!pos - start))
  in
  let rec actions () =
    let a = action () in
    if peek () = Some ',' then begin
      incr pos;
      a :: actions ()
    end
    else [ a ]
  and action () =
    match peek () with
    | Some 'R' ->
        incr pos;
        Rd (int ())
    | Some 'W' ->
        incr pos;
        let i = int () in
        expect '=';
        Wr (i, int ())
    | Some 'A' ->
        incr pos;
        let i = int () in
        expect '+';
        expect '=';
        Acc (i, int ())
    | Some '[' ->
        incr pos;
        let l = actions () in
        expect ']';
        Nest l
    | _ -> fail "expected action"
  in
  let l = actions () in
  if !pos <> n then fail "trailing input";
  l

let parse_tx_list (s : string) : action list list =
  String.split_on_char ';' s |> List.map String.trim
  |> List.filter (fun x -> x <> "")
  |> List.map parse_actions

let of_lines (lines : string list) : (t, string) result =
  try
    let cells = ref 0 and threads = ref [] in
    List.iter
      (fun line ->
        let line = String.trim line in
        if line = "" || line.[0] = '#' then ()
        else
          match String.index_opt line ' ' with
          (* an empty thread (the shrinker makes them) prints as "thread" *)
          | None when line = "thread" -> threads := [] :: !threads
          | None -> raise (Parse ("bad line: " ^ line))
          | Some sp -> (
              let key = String.sub line 0 sp in
              let rest =
                String.trim
                  (String.sub line (sp + 1) (String.length line - sp - 1))
              in
              match key with
              | "cells" -> cells := int_of_string rest
              | "thread" -> threads := parse_tx_list rest :: !threads
              | _ -> raise (Parse ("unknown key: " ^ key))))
      lines;
    if !cells <= 0 then Error "missing or bad 'cells' line"
    else if !threads = [] then Error "no 'thread' lines"
    else Ok { cells = !cells; threads = Array.of_list (List.rev !threads) }
  with
  | Parse m -> Error m
  | Failure _ -> Error "bad integer"

let of_string s = of_lines (String.split_on_char '\n' s)

(* ---------- execution ---------- *)

type outcome = {
  events : Stm_intf.Trace.event array;
  scope_aborts : int;
  init : (int * int) list;
  final : (int * int) list;
  timed_out : bool;
}

let run ?cap_cycles ~spec ~policy (p : t) : outcome =
  (* A fresh engine per run: shrink the lock tables or their construction
     dominates fuzzing time (collisions only add false conflicts). *)
  let spec = Engines.with_table_bits 10 spec in
  let heap = Memory.Heap.create ~words:(1 lsl 17) in
  let base = Memory.Heap.alloc heap p.cells in
  for i = 0 to p.cells - 1 do
    Memory.Heap.write heap (base + i) (init_value i)
  done;
  let e = Engines.make spec heap in
  let rec interp (ops : Stm_intf.Engine.tx_ops) tid = function
    | Rd i -> ignore (ops.read (base + i) : int)
    | Wr (i, v) -> ops.write (base + i) v
    | Acc (i, j) ->
        ops.write (base + i) (ops.read (base + i) + ops.read (base + j) + 1)
    | Nest l ->
        Stm_intf.Engine.atomic e ~tid (fun ops' ->
            List.iter (interp ops' tid) l)
  in
  let body tid () =
    List.iter
      (fun tx ->
        Stm_intf.Engine.atomic e ~tid (fun ops ->
            List.iter (interp ops tid) tx))
      p.threads.(tid)
  in
  Stm_intf.Trace.start ();
  let timed_out = ref false in
  let events =
    (* Make sure recording is off even if the engine raises. *)
    Fun.protect ~finally:(fun () -> Stm_intf.Trace.enabled := false)
    @@ fun () ->
    (match
       Runtime.Sim.run ?cap_cycles ~policy
         (Array.init (Array.length p.threads) body)
     with
    | (_ : int array) -> ()
    | exception Runtime.Sim.Timeout _ -> timed_out := true);
    Stm_intf.Trace.stop ()
  in
  {
    events;
    scope_aborts = Stm_intf.Trace.scope_aborts ();
    init = List.init p.cells (fun i -> (base + i, init_value i));
    final = List.init p.cells (fun i -> (base + i, Memory.Heap.read heap (base + i)));
    timed_out = !timed_out;
  }

(* ---------- generation ---------- *)

let gen ?(cells = 8) ~threads () : t QCheck.Gen.t =
  let open QCheck.Gen in
  let leaf =
    frequency
      [
        (3, map (fun i -> Rd (i mod cells)) nat);
        (3, map (fun (i, v) -> Wr (i mod cells, v mod 100)) (pair nat nat));
        (4, map (fun (i, j) -> Acc (i mod cells, j mod cells)) (pair nat nat));
      ]
  in
  let action =
    frequency
      [ (9, leaf); (1, map (fun l -> Nest l) (list_size (int_range 1 3) leaf)) ]
  in
  let tx = list_size (int_range 1 6) action in
  let thread = list_size (int_range 1 4) tx in
  map
    (fun ts -> { cells; threads = Array.of_list ts })
    (list_repeat threads thread)

let generate ?cells ~threads ~seed () : t =
  QCheck.Gen.generate1
    ~rand:(Random.State.make [| seed; 0x9e3779b9 |])
    (gen ?cells ~threads ())

(* ---------- shrinking ---------- *)

let removals l =
  List.mapi (fun k _ -> List.filteri (fun k' _ -> k' <> k) l) l

let rec shrink_action = function
  | Rd _ -> []
  | Wr (i, v) -> if v = 0 then [] else [ Wr (i, 0) ]
  | Acc (i, j) -> [ Rd i; Rd j ]
  | Nest l -> List.map (fun l' -> Nest l') (shrink_actions l)

(* Candidates: drop one action, splice a nested block, or simplify one
   action in place. *)
and shrink_actions (l : action list) : action list list =
  removals l
  @ List.concat
      (List.mapi
         (fun k a ->
           let before = List.filteri (fun k' _ -> k' < k) l in
           let after = List.filteri (fun k' _ -> k' > k) l in
           (match a with
           | Nest inner -> [ before @ inner @ after ]
           | _ -> [])
           @ List.map (fun a' -> before @ (a' :: after)) (shrink_action a))
         l)

let shrink (p : t) : t list =
  let cand = ref [] in
  let emit threads = cand := { p with threads } :: !cand in
  Array.iteri
    (fun tid txs ->
      let with_txs txs' =
        let a = Array.copy p.threads in
        a.(tid) <- txs';
        emit a
      in
      if txs <> [] then with_txs [];
      List.iter with_txs (removals txs);
      List.iteri
        (fun k tx ->
          List.iter
            (fun tx' ->
              if tx' <> [] then
                with_txs (List.mapi (fun k' t -> if k' = k then tx' else t) txs))
            (shrink_actions tx))
        txs)
    p.threads;
  List.rev !cand

let size (p : t) : int =
  let rec asize = function
    | Nest l -> 1 + List.fold_left (fun s a -> s + asize a) 0 l
    | _ -> 1
  in
  Array.fold_left
    (fun s txs ->
      List.fold_left
        (fun s tx -> 1 + List.fold_left (fun s a -> s + asize a) s tx)
        s txs)
    0 p.threads

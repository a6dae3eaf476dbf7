(* Offline opacity checker (Guerraoui & Kapałka, PPoPP'08), specialised to
   final-state checking of recorded histories:

   1. every attempt must be locally consistent (read-your-own-writes,
      repeatable reads) — checked by History.view;
   2. the committed attempts must admit a sequential witness: a total
      order, consistent with the recorded real-time precedences, in which
      every external read returns the latest preceding write (or the
      initial value) and whose final state equals the heap actually
      observed after the run;
   3. every aborted attempt must have observed a single consistent
      snapshot: some prefix of the witness must explain all its external
      reads, where committed transactions that finished before the attempt
      began are forced into the prefix and ones that began after it ended
      are forced out.

   (3) is part of the witness search, not a postpass over one witness:
   several orders can serialize the committed transactions (concurrent
   transactions with disjoint read/write conflicts commute), and an
   aborted attempt may be explicable under one such order but not another,
   so probing only a single witness would report false violations.  The
   search tries the recorded commit order first (correct for every
   single-version engine here) and falls back to bounded backtracking —
   needed e.g. for mvstm read-only snapshot transactions, which serialize
   earlier than their commit events. *)

type verdict = Opaque | Violation of string | Gave_up of string

let value_of state addr =
  match Hashtbl.find_opt state addr with Some v -> v | None -> 0

let fits state (view : History.view) =
  List.for_all (fun (addr, v) -> value_of state addr = v) view.ext_reads

let apply state (view : History.view) =
  List.map
    (fun (addr, v) ->
      let old = Hashtbl.find_opt state addr in
      Hashtbl.replace state addr v;
      (addr, old))
    view.final_writes

let undo state saved =
  List.iter
    (fun (addr, old) ->
      match old with
      | Some v -> Hashtbl.replace state addr v
      | None -> Hashtbl.remove state addr)
    (List.rev saved)

exception Search_budget

(* Find a witness order over the committed attempts (arrays sorted by
   commit event), honouring [preds] real-time edges, ending in [final],
   and accepted by [leaf_ok] (the abort probes).  Returns the order. *)
let find_witness ~budget ~init ~final ~leaf_ok (views : History.view array)
    (preds : int list array) =
  let n = Array.length views in
  let state = Hashtbl.create 64 in
  List.iter (fun (a, v) -> Hashtbl.replace state a v) init;
  let final_ok () =
    List.for_all (fun (addr, v) -> value_of state addr = v) final
  in
  (* Greedy pass: recorded commit order. *)
  let commit_order = List.init n Fun.id in
  let greedy () =
    let saved = ref [] in
    let ok = ref true in
    let i = ref 0 in
    while !ok && !i < n do
      if fits state views.(!i) then begin
        saved := apply state views.(!i) :: !saved;
        incr i
      end
      else ok := false
    done;
    let ok = !ok && final_ok () && leaf_ok commit_order in
    List.iter (fun s -> undo state s) !saved;
    ok
  in
  if greedy () then Some commit_order
  else begin
    (* Bounded backtracking.  [placed] marks attempts already in the
       witness; candidates must have all real-time predecessors placed
       and reads satisfied by the current state.  [order_buf.(0..k-1)] is
       the partial order, so leaves can hand the full one to [leaf_ok]. *)
    let placed = Array.make n false in
    let order_buf = Array.make n 0 in
    let nodes = ref 0 in
    let rec go k =
      if k = n then
        final_ok () && leaf_ok (Array.to_list order_buf)
      else begin
        let found = ref false in
        let i = ref 0 in
        while (not !found) && !i < n do
          let c = !i in
          incr i;
          if
            (not placed.(c))
            && List.for_all (fun p -> placed.(p)) preds.(c)
            && fits state views.(c)
          then begin
            incr nodes;
            if !nodes > budget then raise Search_budget;
            placed.(c) <- true;
            order_buf.(k) <- c;
            let saved = apply state views.(c) in
            if go (k + 1) then found := true
            else begin
              undo state saved;
              placed.(c) <- false
            end
          end
        done;
        !found
      end
    in
    if go 0 then Some (Array.to_list order_buf) else None
  end

let check ?(budget = 200_000) ?(level = Kernel.Axes.Opaque)
    ~(events : Stm_intf.Trace.event array) ~(scope_aborts : int)
    ~(init : (int * int) list) ~(final : (int * int) list) () : verdict =
  if scope_aborts > 0 then
    Gave_up "trace contains closed-nested partial rollbacks"
  else
    match History.attempts events with
    | exception History.Malformed m -> Violation ("malformed trace: " ^ m)
    | all -> (
        if List.exists (fun (a : History.attempt) -> a.outcome = Live) all
        then Gave_up "trace contains unfinished attempts"
        else
          (* At the serializability level aborted attempts are entirely
             unconstrained: drop them before any view checking. *)
          let all =
            match level with
            | Kernel.Axes.Opaque -> all
            | Serializable ->
                List.filter
                  (fun (a : History.attempt) -> a.outcome = Committed)
                  all
          in
          let viewed =
            List.map
              (fun (a : History.attempt) -> (a, History.view a))
              all
          in
          match
            List.find_opt (fun (_, v) -> Result.is_error v) viewed
          with
          | Some (_, Error e) -> Violation e
          | Some (_, Ok _) -> assert false
          | None ->
              let viewed =
                List.map (fun (a, v) -> (a, Result.get_ok v)) viewed
              in
              let committed =
                List.filter
                  (fun ((a : History.attempt), _) -> a.outcome = Committed)
                  viewed
                |> List.sort
                     (fun ((a : History.attempt), _) (b, _) ->
                       compare a.end_seq b.end_seq)
                |> Array.of_list
              in
              let atts = Array.map fst committed in
              let views = Array.map snd committed in
              let n = Array.length atts in
              let preds =
                Array.init n (fun j ->
                    List.filter
                      (fun i -> atts.(i).end_seq < atts.(j).begin_seq)
                      (List.init n Fun.id))
              in
              let aborted =
                List.filter
                  (fun ((a : History.attempt), _) -> a.outcome = Aborted)
                  viewed
              in
              (* Addresses whose values the abort probes may consult. *)
              let snapshot_addrs =
                let h = Hashtbl.create 64 in
                List.iter (fun (a, _) -> Hashtbl.replace h a ()) init;
                Array.iter
                  (fun (v : History.view) ->
                    List.iter (fun (a, _) -> Hashtbl.replace h a ())
                      v.final_writes)
                  views;
                List.iter
                  (fun (_, (v : History.view)) ->
                    List.iter (fun (a, _) -> Hashtbl.replace h a ())
                      v.ext_reads)
                  aborted;
                Hashtbl.fold (fun a () acc -> a :: acc) h []
                |> List.sort compare |> Array.of_list
              in
              (* True when a witness order was found whose abort probes
                 then failed — distinguishes the two violation reports. *)
              let committed_witness_seen = ref false in
              let bad_abort = ref None in
              (* Every aborted attempt must match some prefix of [order],
                 within the window its real-time edges allow. *)
              let aborts_ok (order : int list) =
                committed_witness_seen := true;
                if aborted = [] then true
                else begin
                  let state = Hashtbl.create 64 in
                  List.iter (fun (a, v) -> Hashtbl.replace state a v) init;
                  let prefix_states = Array.make (n + 1) [||] in
                  let snap () =
                    Array.map (fun a -> (a, value_of state a)) snapshot_addrs
                  in
                  prefix_states.(0) <- snap ();
                  List.iteri
                    (fun k c ->
                      ignore (apply state views.(c));
                      prefix_states.(k + 1) <- snap ())
                    order;
                  let pos = Array.make n 0 in
                  List.iteri (fun k c -> pos.(c) <- k) order;
                  let probe ((a : History.attempt), (v : History.view)) =
                    let lo = ref 0 and hi = ref n in
                    for i = 0 to n - 1 do
                      if atts.(i).end_seq < a.begin_seq then
                        lo := max !lo (pos.(i) + 1);
                      if atts.(i).begin_seq > a.end_seq then
                        hi := min !hi pos.(i)
                    done;
                    let matches k =
                      let st = prefix_states.(k) in
                      let value addr =
                        match Array.find_opt (fun (x, _) -> x = addr) st with
                        | Some (_, v) -> v
                        | None -> 0
                      in
                      List.for_all (fun (addr, x) -> value addr = x) v.ext_reads
                    in
                    let rec try_k k = k <= !hi && (matches k || try_k (k + 1)) in
                    try_k !lo
                  in
                  match List.find_opt (fun av -> not (probe av)) aborted with
                  | Some (a, _) ->
                      bad_abort := Some a;
                      false
                  | None -> true
                end
              in
              match
                find_witness ~budget ~init ~final ~leaf_ok:aborts_ok views
                  preds
              with
              | exception Search_budget ->
                  Gave_up "witness search budget exhausted"
              | Some _ -> Opaque
              | None -> (
                  match (!committed_witness_seen, !bad_abort) with
                  | true, Some a ->
                      Violation
                        (Printf.sprintf
                           "aborted attempt on tid %d (events %d..%d) \
                            observed an inconsistent snapshot (no witness \
                            order explains its reads)"
                           a.tid a.begin_seq a.end_seq)
                  | _ ->
                      Violation
                        "committed transactions admit no sequential witness \
                         consistent with real-time order and the final heap"))

(* The four benchmark workloads and their correctness oracles.

   Each workload builds an instance: a fresh heap, structure and engine,
   plus [op], which draws one operation from the client's Rng, runs it as
   one transaction through the engine it is given (the plain engine, or
   the span-wrapped one), and returns whether the result agreed with the
   oracle.  [check] runs after the cell on the quiescent heap.

   [clients] is the number of concurrent clients the instance will serve
   (1 native domain, 2 native domains, or 8 simulated threads).  With one
   client every result is replayed exactly against a model kept beside
   the structure; with more, only the checks that hold under any
   interleaving apply (lookups see the value their key was bound to,
   each client's users see only that client's writes, and the final
   heap agrees with the summed effects of the committed operations). *)

open Stm_intf
module Rng = Runtime.Rng

type inst = {
  engine : Engine.t;
  op : Engine.t -> tid:int -> Rng.t -> bool;
  check : unit -> bool;
}

(* --- red-black tree (paper Fig 5) -------------------------------------- *)

(* Same operation mix and draw order as [Rbtree.Rbtree_bench.operation],
   with the results kept for the oracle.  The model is a byte per key, so
   replaying it allocates nothing inside the timed loop. *)
let rbtree ~range ~update_ratio spec ~seed ~clients ~max_ops =
  let module T = Rbtree.Tx_rbtree in
  let heap =
    Memory.Heap.create ~words:((T.node_words * (range + (2 * max_ops))) + 65536)
  in
  let tree = T.create heap in
  let engine = Engines.make spec heap in
  let model = Bytes.make range '\000' in
  let rng = Rng.create seed in
  let initial = range / 2 in
  let filled = ref 0 in
  while !filled < initial do
    let k = Rng.int rng range in
    if Engine.atomic engine ~tid:0 (fun tx -> T.insert tree tx k (k * 2)) then begin
      Bytes.set model k '\001';
      incr filled
    end
  done;
  Engine.reset_stats engine;
  let exact = clients = 1 in
  let inserted = Array.make clients 0 and removed = Array.make clients 0 in
  let member k = Bytes.get model k = '\001' in
  let op eng ~tid rng =
    let k = Rng.int rng range in
    let dice = Rng.float rng 1.0 in
    if dice < update_ratio /. 2. then begin
      let fresh = Engine.atomic eng ~tid (fun tx -> T.insert tree tx k (k * 2)) in
      if fresh then inserted.(tid) <- inserted.(tid) + 1;
      (not exact)
      || begin
           let was = member k in
           Bytes.set model k '\001';
           fresh <> was
         end
    end
    else if dice < update_ratio then begin
      let gone = Engine.atomic eng ~tid (fun tx -> T.remove tree tx k) in
      if gone then removed.(tid) <- removed.(tid) + 1;
      (not exact)
      || begin
           let was = member k in
           Bytes.set model k '\000';
           gone = was
         end
    end
    else
      match Engine.atomic eng ~tid (fun tx -> T.lookup tree tx k) with
      | Some v -> v = k * 2 && ((not exact) || member k)
      | None -> (not exact) || not (member k)
  in
  let check () =
    let sum = Array.fold_left ( + ) 0 in
    match T.check tree heap with
    | Ok size -> size = initial + sum inserted - sum removed
    | Error _ -> false
  in
  { engine; op; check }

(* --- STMBench7 read-write mix (paper Fig 2) ---------------------------- *)

(* The structural check of test/test_stmbench7.ml: every composite holds
   no more parts than its capacity and every part slot points at a part
   with a positive id. *)
let sb7_consistent (m : Stmbench7.Sb7_model.t) =
  let module M = Stmbench7.Sb7_model in
  let rd = Memory.Heap.read m.heap in
  Array.for_all
    (fun c ->
      let nparts = rd (c + M.cp_nparts) in
      nparts <= rd (c + M.cp_cap)
      && Seq.for_all
           (fun i ->
             let p = rd (c + M.cp_part + i) in
             p = 0 || rd (p + M.ap_id) > 0)
           (Seq.init nparts Fun.id))
    m.composites

let sb7 spec ~seed ~clients:_ ~max_ops:_ =
  let m =
    Stmbench7.Sb7_model.build
      ~params:{ Stmbench7.Sb7_params.default with seed }
      ()
  in
  let engine = Engines.make spec m.heap in
  let op eng ~tid rng =
    Stmbench7.Sb7_bench.operation m eng ~tid
      ~workload:Stmbench7.Sb7_bench.Read_write rng;
    true
  in
  { engine; op; check = (fun () -> sb7_consistent m) }

(* --- session/inventory service (Harness.Service's store) --------------- *)

(* The parameters of bench/service_bench.ml's [base_cfg] (full size):
   128 hot stock words at Zipf 0.99, every third request a checkout. *)
let svc_users = 400_000
let svc_keys = 128
let svc_theta = 0.99
let svc_browse_len = 1
let svc_demand = 300
let svc_cycles = 6_000_000

let service_config ~seed ~rate =
  {
    Harness.Service.default with
    threads = 8;
    users = svc_users;
    keys = svc_keys;
    theta = svc_theta;
    browse_len = svc_browse_len;
    demand_cycles = svc_demand;
    duration_cycles = svc_cycles;
    window_cycles = svc_cycles / 6;
    slow_cutoff = 20_000;
    seed;
    arrivals = Harness.Arrival.Poisson { per_mcycle = rate };
  }

(* The same three transactions [Harness.Service] serves (login, browse,
   checkout), issued closed-loop: the native phase and the traced engine
   probe need [tx_ops] the benchmark can time, which the service harness
   keeps to itself.  Each client owns the users congruent to its tid, so
   a user's word is written by one client only and every login/checkout
   can be checked against that client's model even under concurrency. *)
let service spec ~seed ~clients ~max_ops:_ =
  let heap = Memory.Heap.create ~words:(svc_users + svc_keys + 128) in
  let ubase = Memory.Heap.alloc heap (svc_users + svc_keys) in
  let kbase = ubase + svc_users in
  let stock0 = 1_000_000 in
  for k = 0 to svc_keys - 1 do
    Memory.Heap.write heap (kbase + k) stock0
  done;
  let engine = Engines.make spec heap in
  let srng = Rng.for_thread ~seed ~tid:1019 in
  let session = Array.init svc_users (fun _ -> Rng.int srng (svc_browse_len + 2)) in
  let zipf =
    Array.init clients (fun tid ->
        Harness.Zipf.create ~stream:(1100 + tid) ~seed ~n:svc_keys
          ~theta:svc_theta ())
  in
  let exact = clients = 1 in
  let expect = Array.make svc_users 0 in
  let taken = Array.init clients (fun _ -> Array.make svc_keys 0) in
  let stock k =
    Array.fold_left (fun s per_client -> s - per_client.(k)) stock0 taken
  in
  let checkout = svc_browse_len + 1 in
  let tick = Runtime.Exec.tick in
  let op eng ~tid rng =
    let u = tid + (clients * Rng.int rng (svc_users / clients)) in
    let z = zipf.(tid) in
    let state = session.(u) in
    let ok =
      if state = 0 then begin
        let k = Harness.Zipf.next z in
        let v =
          Engine.atomic eng ~tid (fun tx ->
              tick svc_demand;
              let v = Engine.read tx (ubase + u) in
              Engine.write tx (ubase + u) (v + 1);
              ignore (Engine.read tx (kbase + k) : int);
              v)
        in
        let ok = v = expect.(u) in
        expect.(u) <- v + 1;
        ok
      end
      else if state < checkout then begin
        let k0 = Harness.Zipf.next z and k1 = Harness.Zipf.next z in
        let k2 = Harness.Zipf.next z and k3 = Harness.Zipf.next z in
        let s =
          Engine.atomic eng ~tid (fun tx ->
              tick svc_demand;
              Engine.read tx (kbase + k0)
              + Engine.read tx (kbase + k1)
              + Engine.read tx (kbase + k2)
              + Engine.read tx (kbase + k3))
        in
        (not exact) || s = stock k0 + stock k1 + stock k2 + stock k3
      end
      else begin
        let k0 = Harness.Zipf.next z and k1 = Harness.Zipf.next z in
        let s0, s1, v =
          Engine.atomic eng ~tid (fun tx ->
              let s0 = Engine.read tx (kbase + k0) in
              Engine.write tx (kbase + k0) (s0 - 1);
              let s1 =
                if k1 = k0 then s0 - 1
                else begin
                  let s1 = Engine.read tx (kbase + k1) in
                  Engine.write tx (kbase + k1) (s1 - 1);
                  s1
                end
              in
              tick (2 * svc_demand);
              let v = Engine.read tx (ubase + u) in
              Engine.write tx (ubase + u) (v + 100);
              (s0, s1, v))
        in
        let ok =
          v = expect.(u)
          && ((not exact) || (s0 = stock k0 && (k1 = k0 || s1 = stock k1)))
        in
        taken.(tid).(k0) <- taken.(tid).(k0) + 1;
        if k1 <> k0 then taken.(tid).(k1) <- taken.(tid).(k1) + 1;
        expect.(u) <- v + 100;
        ok
      end
    in
    session.(u) <- (if state >= checkout then 0 else state + 1);
    ok
  in
  let check () =
    let rd = Memory.Heap.read heap in
    Seq.for_all (fun k -> rd (kbase + k) = stock k) (Seq.init svc_keys Fun.id)
    && Seq.for_all (fun u -> rd (ubase + u) = expect.(u)) (Seq.init svc_users Fun.id)
  in
  { engine; op; check }

(* --- the workload table ------------------------------------------------ *)

type sim =
  | Closed of { cycles : int }
      (** 8 simulated threads issue back-to-back for [cycles] *)
  | Ladder of { rates : float list; probe : float; limit_cycles : int }
      (** open loop through [Harness.Service]: Poisson arrivals at each
          rate (req/Mcycle); the SLO is p99.9 <= [limit_cycles] *)

type t = {
  name : string;
  build :
    Engines.spec -> seed:int -> clients:int -> max_ops:int -> inst;
  native_ops : int;  (** ops per native cell *)
  sim : sim;
  sim_reps : int;
      (** runs of the simulated seed panel (at least 2): every run must
          reproduce the first, and the simulator speed takes each cell at
          its fastest run *)
}

let all =
  [
    {
      name = "rbtree-read";
      build = rbtree ~range:16384 ~update_ratio:0.2;
      native_ops = 60_000;
      sim = Closed { cycles = 4_000_000 };
      sim_reps = 3;
    };
    {
      name = "rbtree-write";
      build = rbtree ~range:256 ~update_ratio:0.8;
      native_ops = 60_000;
      sim = Closed { cycles = 4_000_000 };
      sim_reps = 6;
    };
    {
      name = "sb7-rw";
      build = sb7;
      native_ops = 6_000;
      sim = Closed { cycles = 10_000_000 };
      sim_reps = 2;
    };
    {
      name = "service-zipf";
      build = service;
      native_ops = 60_000;
      sim =
        Ladder
          {
            rates = [ 300.; 400.; 500.; 600.; 700.; 800.; 900.; 1000. ];
            probe = 600.;
            limit_cycles = 100_000;
          };
      sim_reps = 3;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* Lee-TM: board generators, router correctness, irregular variant. *)

let check = Alcotest.check

let small_memory () = Leetm.Board.memory ~width:32 ~height:32 ~routes:24 ()
let small_main () = Leetm.Board.main ~width:32 ~height:32 ~routes:24 ()

let test_board_endpoints_unique () =
  List.iter
    (fun (b : Leetm.Board.t) ->
      let pts =
        Array.to_list b.routes
        |> List.concat_map (fun (r : Leetm.Board.route) ->
               [ (r.x1, r.y1); (r.x2, r.y2) ])
      in
      let uniq = List.sort_uniq compare pts in
      check Alcotest.int
        (Printf.sprintf "%s endpoints unique" b.name)
        (List.length pts) (List.length uniq))
    [ small_memory (); small_main () ]

let test_board_in_bounds () =
  List.iter
    (fun (b : Leetm.Board.t) ->
      Array.iter
        (fun (r : Leetm.Board.route) ->
          Alcotest.(check bool) "endpoints in bounds" true
            (Leetm.Board.in_bounds b r.x1 r.y1 && Leetm.Board.in_bounds b r.x2 r.y2);
          Alcotest.(check bool) "endpoints distinct" true
            ((r.x1, r.y1) <> (r.x2, r.y2)))
        b.routes)
    [ small_memory (); small_main () ]

let test_board_deterministic () =
  let a = Leetm.Board.main ~width:40 ~height:40 ~routes:30 ~seed:9 () in
  let b = Leetm.Board.main ~width:40 ~height:40 ~routes:30 ~seed:9 () in
  check Alcotest.bool "same routes" true (a.routes = b.routes)

let test_memory_board_is_bus_shaped () =
  let b = small_memory () in
  (* memory boards are horizontal buses: y1 = y2 for every route *)
  Array.iter
    (fun (r : Leetm.Board.route) ->
      check Alcotest.int "horizontal" r.y1 r.y2)
    b.routes

let test_serial_routing_valid () =
  List.iter
    (fun board ->
      let _, t = Leetm.Router.run ~spec:Engines.glock ~threads:1 board in
      Alcotest.(check bool) "connected" true (Leetm.Router.verify t);
      Alcotest.(check bool) "routes most connections" true
        (Leetm.Router.total_routed t * 10 >= Array.length (t.board.routes) * 7))
    [ small_memory (); small_main () ]

let concurrent_routing_valid spec () =
  List.iter
    (fun board ->
      List.iter
        (fun threads ->
          let r, t = Leetm.Router.run ~spec ~threads board in
          Alcotest.(check bool) "connected" true (Leetm.Router.verify t);
          check Alcotest.int "every route dispatched exactly once"
            (Array.length t.board.routes)
            (Leetm.Router.total_routed t + Leetm.Router.total_failed t);
          Alcotest.(check bool) "commits >= routes attempted" true
            (r.stats.s_commits >= Array.length t.board.routes))
        [ 2; 4 ])
    [ small_memory (); small_main () ]

let test_irregular_hot_object () =
  (* The irregular variant must produce strictly more read/write conflicts
     for TinySTM as R grows (the phenomenon behind Figure 8). *)
  let aborts hot_ratio =
    let board = Leetm.Board.memory ~width:48 ~height:48 ~routes:64 () in
    let r, t = Leetm.Router.run ~hot_ratio ~spec:Engines.tinystm ~threads:4 board in
    Alcotest.(check bool) "still connected" true (Leetm.Router.verify t);
    Stm_intf.Stats.total_aborts r.stats
  in
  let a0 = aborts 0.0 and a20 = aborts 0.20 in
  Alcotest.(check bool)
    (Printf.sprintf "hot object inflates aborts (%d -> %d)" a0 a20)
    true (a20 > a0)

let test_router_determinism () =
  let run () =
    let board = Leetm.Board.main ~width:32 ~height:32 ~routes:24 () in
    let r, t = Leetm.Router.run ~spec:Engines.swisstm ~threads:3 board in
    (r.elapsed_cycles, Leetm.Router.total_routed t, r.stats.s_commits)
  in
  check
    Alcotest.(triple int int int)
    "same simulation twice" (run ()) (run ())

let suite =
  [
    ( "leetm",
      [
        Alcotest.test_case "endpoints unique" `Quick test_board_endpoints_unique;
        Alcotest.test_case "in bounds" `Quick test_board_in_bounds;
        Alcotest.test_case "deterministic boards" `Quick test_board_deterministic;
        Alcotest.test_case "memory board shape" `Quick
          test_memory_board_is_bus_shaped;
        Alcotest.test_case "serial routing valid" `Quick test_serial_routing_valid;
        Alcotest.test_case "concurrent swisstm" `Slow
          (concurrent_routing_valid Engines.swisstm);
        Alcotest.test_case "concurrent tinystm" `Slow
          (concurrent_routing_valid Engines.tinystm);
        Alcotest.test_case "concurrent tl2" `Slow
          (concurrent_routing_valid Engines.tl2);
        Alcotest.test_case "irregular hot object" `Slow test_irregular_hot_object;
        Alcotest.test_case "determinism" `Quick test_router_determinism;
      ] );
  ]

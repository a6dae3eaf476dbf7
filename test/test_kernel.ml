(* Differential suite for the kernel refactor.

   The frozen table below was captured by `bin/kernel_snapshot.exe` on the
   tree IMMEDIATELY BEFORE the five engines were re-expressed over
   lib/kernel (commit 2ae6fe9): per-engine stats counters on a fixed
   contended workload, and the exact simulated-cycle timeline of a
   scripted single-thread run.  The suite replays the same probes on the
   current tree and demands equality — the refactor must be behaviorally
   invisible, down to per-op cycle charging.

   If a test here fails, the kernel changed engine semantics.  Do NOT
   refresh the table to make it pass unless the behavioral change is
   itself the point of the PR (then re-run `bin/kernel_snapshot.exe` on
   the parent commit and paste).

   Rows added later were captured on the parent of the change they guard
   (each says which).  The second half holds the composed design points
   of [Kernel.Registry] to their contracts: each must run, commit all its
   work, and survive the schedule fuzzer. *)

let summary ~commits ~ww ~rw ~killed ~waits ~backoffs ~reads ~writes ~wasted
    ~elapsed =
  {
    Check.Snapshot.commits;
    aborts_ww = ww;
    aborts_rw = rw;
    aborts_killed = killed;
    waits;
    backoffs;
    reads;
    writes;
    wasted;
    elapsed;
  }

(* --- frozen pre-refactor snapshot (bin/kernel_snapshot.exe @ 2ae6fe9) --- *)

let frozen =
  [
    ( "swisstm",
      summary ~commits:480 ~ww:252 ~rw:26 ~killed:0 ~waits:4441 ~backoffs:278
        ~reads:3082 ~writes:2000 ~wasted:544778 ~elapsed:722020,
      [| 150; 285; 301; 436; 713; 724; 1120; 1135; 1324; 1387; 1417; 1643;
         1713; 1776; 1806 |] );
    ( "swisstm-priv",
      summary ~commits:480 ~ww:174 ~rw:25 ~killed:0 ~waits:37173 ~backoffs:199
        ~reads:2910 ~writes:1812 ~wasted:406369 ~elapsed:869304,
      [| 270; 405; 421; 556; 833; 844; 1240; 1255; 9005; 9069; 9100; 9327;
         9461; 9525; 9556 |] );
    (* Captured on the tree just before SwissTM moved onto the kernel's
       descriptor, driver and hooks: they hold the throttle/escalation and
       timid-manager paths that move into [Kernel.Driver]/[Kernel.Hooks]. *)
    ( "swisstm-adaptive",
      summary ~commits:480 ~ww:216 ~rw:26 ~killed:0 ~waits:4464 ~backoffs:242
        ~reads:3002 ~writes:1905 ~wasted:438347 ~elapsed:698005,
      [| 150; 285; 301; 436; 713; 724; 1120; 1135; 1324; 1387; 1417; 1643;
         1713; 1776; 1806 |] );
    ( "swisstm-timid",
      summary ~commits:480 ~ww:252 ~rw:26 ~killed:0 ~waits:4441 ~backoffs:278
        ~reads:3082 ~writes:2000 ~wasted:544778 ~elapsed:722020,
      [| 150; 285; 301; 436; 713; 724; 1120; 1135; 1324; 1387; 1417; 1643;
         1713; 1776; 1806 |] );
    ( "tl2",
      summary ~commits:480 ~ww:9 ~rw:41 ~killed:0 ~waits:0 ~backoffs:50
        ~reads:2565 ~writes:1503 ~wasted:55387 ~elapsed:234742,
      [| 150; 284; 299; 433; 443; 453; 463; 477; 1312; 1373; 1403; 1454;
         1692; 1753; 1783 |] );
    (* Captured on the tree just before the flat [Engines.spec] replaced
       the per-engine config records: [with_cm] on the benchmark's TL2. *)
    ( "tl2-adaptive",
      summary ~commits:480 ~ww:13 ~rw:59 ~killed:0 ~waits:0 ~backoffs:72
        ~reads:2629 ~writes:1546 ~wasted:75863 ~elapsed:286969,
      [| 150; 284; 299; 433; 443; 453; 463; 477; 1312; 1373; 1403; 1454;
         1692; 1753; 1783 |] );
    ( "tinystm",
      summary ~commits:480 ~ww:0 ~rw:140 ~killed:0 ~waits:0 ~backoffs:140
        ~reads:2801 ~writes:1552 ~wasted:127844 ~elapsed:358597,
      [| 150; 284; 299; 433; 709; 720; 1115; 1130; 1313; 1374; 1404; 1628;
         1692; 1753; 1783 |] );
    ( "rstm",
      summary ~commits:480 ~ww:0 ~rw:60 ~killed:101 ~waits:6555 ~backoffs:600
        ~reads:2953 ~writes:1720 ~wasted:1056500 ~elapsed:726569,
      [| 150; 287; 305; 442; 731; 742; 1150; 1165; 1380; 1447; 1477; 1727;
         1797; 1864; 1894 |] );
    ( "rstm-lazy",
      summary ~commits:480 ~ww:0 ~rw:137 ~killed:8 ~waits:1879 ~backoffs:565
        ~reads:2980 ~writes:1824 ~wasted:1493755 ~elapsed:795212,
      [| 150; 287; 305; 442; 452; 462; 472; 487; 1379; 1446; 1476; 1527;
         1796; 1863; 1893 |] );
    ( "rstm-visible",
      summary ~commits:480 ~ww:0 ~rw:0 ~killed:274 ~waits:23717 ~backoffs:1024
        ~reads:3097 ~writes:1837 ~wasted:2408051 ~elapsed:1594738,
      [| 150; 542; 549; 941; 992; 1003; 1412; 1427; 1670; 1769; 1853; 1986;
         2056; 2128; 2185 |] );
    ( "mvstm",
      summary ~commits:480 ~ww:43 ~rw:160 ~killed:0 ~waits:442 ~backoffs:203
        ~reads:2995 ~writes:1789 ~wasted:201464 ~elapsed:440025,
      [| 150; 284; 299; 433; 443; 453; 463; 477; 1469; 1530; 1560; 1611;
         1861; 1922; 1952 |] );
    ( "glock",
      summary ~commits:480 ~ww:0 ~rw:0 ~killed:0 ~waits:87 ~backoffs:0
        ~reads:2400 ~writes:1440 ~wasted:0 ~elapsed:1586468,
      [| 415; 418; 421; 424; 427; 430; 433; 436; 467; 530; 561; 624; 655;
         718; 749 |] );
    (* norec/tlrw joined in PR 7 — captured at introduction, so these rows
       freeze the engines' behavior from their first commit onward. *)
    ( "norec",
      summary ~commits:480 ~ww:0 ~rw:50 ~killed:0 ~waits:176 ~backoffs:50
        ~reads:2592 ~writes:1618 ~wasted:900889 ~elapsed:670602,
      [| 150; 164; 178; 192; 202; 212; 222; 236; 538; 597; 627; 678; 741;
         800; 830 |] );
    ( "tlrw",
      summary ~commits:480 ~ww:0 ~rw:0 ~killed:269 ~waits:21987 ~backoffs:890
        ~reads:3132 ~writes:1836 ~wasted:2087261 ~elapsed:1415960,
      [| 30; 420; 425; 815; 854; 865; 1262; 1277; 1369; 1463; 1547; 1655;
         1693; 1760; 1817 |] );
    (* The composed points, captured on the same tree: the shared
       visible-reader set and the flat spec both rewrote [Kernel.Compose]. *)
    ( "k-eager+inv+commit+redo",
      summary ~commits:480 ~ww:0 ~rw:92 ~killed:35 ~waits:1309 ~backoffs:258
        ~reads:2726 ~writes:1610 ~wasted:500175 ~elapsed:700937,
      [| 150; 285; 301; 436; 715; 726; 1124; 1139; 1324; 1387; 1417; 1647;
         1713; 1776; 1806 |] );
    ( "k-lazy+inv+incr+redo",
      summary ~commits:480 ~ww:0 ~rw:184 ~killed:71 ~waits:15519 ~backoffs:274
        ~reads:3408 ~writes:2299 ~wasted:1824078 ~elapsed:1114606,
      [| 150; 285; 301; 436; 446; 456; 466; 481; 1323; 1386; 1416; 1467;
         1712; 1775; 1805 |] );
    ( "k-mixed+inv+commit+redo",
      summary ~commits:480 ~ww:0 ~rw:168 ~killed:40 ~waits:3962 ~backoffs:375
        ~reads:2979 ~writes:1801 ~wasted:825781 ~elapsed:606578,
      [| 150; 285; 301; 436; 714; 725; 1122; 1137; 1326; 1389; 1419; 1647;
         1717; 1780; 1810 |] );
    ( "k-eager+vis+commit+redo",
      summary ~commits:480 ~ww:0 ~rw:0 ~killed:260 ~waits:20490 ~backoffs:900
        ~reads:3072 ~writes:1783 ~wasted:2458323 ~elapsed:1530605,
      [| 150; 542; 549; 941; 982; 993; 1392; 1407; 1646; 1745; 1829; 1942;
         2008; 2080; 2137 |] );
    ( "k-mixed+inv+counter+redo",
      summary ~commits:480 ~ww:0 ~rw:125 ~killed:82 ~waits:6848 ~backoffs:504
        ~reads:2950 ~writes:1844 ~wasted:1113368 ~elapsed:774702,
      [| 150; 286; 303; 439; 717; 728; 1125; 1140; 1329; 1394; 1424; 1652;
         1722; 1787; 1817 |] );
    ( "k-mixed+inv+incr+redo",
      summary ~commits:480 ~ww:0 ~rw:109 ~killed:82 ~waits:7209 ~backoffs:471
        ~reads:2897 ~writes:1799 ~wasted:1098954 ~elapsed:714014,
      [| 150; 285; 301; 436; 714; 725; 1122; 1137; 1326; 1389; 1419; 1647;
         1717; 1780; 1810 |] );
  ]

let spec_of name =
  match Engines.of_string name with
  | Some s -> Engines.with_table_bits 10 s
  | None -> Alcotest.failf "unknown engine %s" name

let str_of pp v = Format.asprintf "%a" pp v

let test_stats name expect () =
  let got = Check.Snapshot.stats_run (spec_of name) in
  Alcotest.(check string)
    (name ^ " stats vs pre-refactor")
    (str_of Check.Snapshot.pp_summary expect)
    (str_of Check.Snapshot.pp_summary got)

let test_trace name expect () =
  let got = Check.Snapshot.cycle_trace (spec_of name) in
  Alcotest.(check (array int))
    (name ^ " per-op cycles vs pre-refactor")
    expect got

(* --- composed design points -------------------------------------------- *)

(* Every composed point must be resolvable by name, complete the snapshot
   workload with all 480 commits, and carry the contract its axes imply. *)
let test_composed_runs name () =
  let spec = spec_of name in
  let s = Check.Snapshot.stats_run spec in
  Alcotest.(check int) (name ^ " commits all its work") 480 s.commits;
  let entry =
    match Kernel.Registry.find name with
    | Some e -> e
    | None -> Alcotest.failf "%s missing from Kernel.Registry" name
  in
  let expect =
    match Kernel.Registry.contract entry with
    | Kernel.Axes.Opaque -> Engines.Opaque
    | Kernel.Axes.Serializable -> Engines.Serializable
  in
  Alcotest.(check bool)
    (name ^ " contract matches its axes")
    true
    (Engines.contract spec = expect)

let test_composed_fuzz name () =
  let spec = spec_of name in
  let st =
    Check.Fuzz.fuzz ~spec ~name ~cells:6
      ~make_policy:Check.Fuzz.fuzz_pct_policy ~seeds:3 ~progs:3 ~threads:3
      ~verbose:false ()
  in
  Alcotest.(check int) (name ^ " fuzz violations") 0 (List.length st.failures)

let test_registry_coverage () =
  (* At least 3 composed points beyond the classic five, every registry
     name resolvable, every composed name advertised to the CLI tools. *)
  let composed = Kernel.Registry.composed_entries in
  Alcotest.(check bool) "at least 3 composed points" true
    (List.length composed >= 3);
  List.iter
    (fun (e : Kernel.Registry.entry) ->
      Alcotest.(check bool)
        (e.name ^ " resolvable via Engines.of_string")
        true
        (Engines.of_string e.name <> None))
    Kernel.Registry.entries;
  List.iter
    (fun (e : Kernel.Registry.entry) ->
      Alcotest.(check bool)
        (e.name ^ " in Engines.known_names")
        true
        (List.mem e.name Engines.known_names))
    composed;
  (* swisstm's own point is listed twice: the dedicated engine (with its
     quiescence slots and closed nesting) and its composed twin. *)
  Alcotest.(check bool)
    "composed twin at swisstm's point" true
    (List.exists
       (fun (e : Kernel.Registry.entry) ->
         e.point = Some Kernel.Axes.swisstm_point)
       composed)

(* Axis combinations [Kernel.Compose] cannot run must fail by NAME —
   a named exception whose message says which point was refused and which
   dedicated engine owns it, not a bare [Invalid_argument]. *)
let test_unreachable_points () =
  let check_refused label point why =
    Alcotest.check_raises label
      (Kernel.Compose.Unreachable_point
         (Printf.sprintf "Kernel.Compose cannot run %s: %s"
            (Kernel.Axes.point_name point)
            why))
      (fun () ->
        ignore
          (Engines.make
             (Engines.of_family (Engines.Kernel point))
             (Memory.Heap.create ~words:1024)))
  in
  check_refused "Multi versioning rejected"
    { Kernel.Axes.tl2_point with Kernel.Axes.versioning = Kernel.Axes.Multi }
    "Multi versioning is the dedicated mvstm engine only";
  check_refused "Seqlock acquisition rejected" Kernel.Axes.norec_point
    "the global sequence lock is the dedicated norec engine only";
  check_refused "Bytelock acquisition rejected" Kernel.Axes.tlrw_point
    "read-write bytelocks are the dedicated tlrw engine only";
  check_refused "Value validation rejected"
    {
      Kernel.Axes.tl2_point with
      Kernel.Axes.validation = Kernel.Axes.Value;
    }
    "value-based validation needs the global sequence lock (norec only)"

let suite =
  [
    ( "kernel-differential",
      List.concat_map
        (fun (name, s, t) ->
          [
            Alcotest.test_case (name ^ " stats") `Quick (test_stats name s);
            Alcotest.test_case (name ^ " cycles") `Quick (test_trace name t);
          ])
        frozen );
    ( "kernel-composed",
      List.concat_map
        (fun name ->
          [
            Alcotest.test_case (name ^ " runs") `Quick
              (test_composed_runs name);
            Alcotest.test_case (name ^ " fuzz") `Slow
              (test_composed_fuzz name);
          ])
        Engines.kernel_names
      @ [
          Alcotest.test_case "registry coverage" `Quick
            test_registry_coverage;
          Alcotest.test_case "unreachable points rejected" `Quick
            test_unreachable_points;
        ] );
  ]

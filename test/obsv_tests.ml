(* Tests for mt_obsv: the JSON codec, snapshot round-trips, the
   CoV-gated diff, and the deep trace lanes the launcher records at
   --trace-detail sampled/full. *)

open Mt_machine
open Mt_launcher
open Mt_obsv

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_round_trip () =
  let doc =
    Json.Obj
      [
        ("s", Json.Str "quote\" back\\slash\nnewline");
        ("n", Json.Num 0.503);
        ("i", Json.Num 510.);
        ("neg", Json.Num (-1.5e-9));
        ("b", Json.Bool true);
        ("z", Json.Null);
        ("l", Json.List [ Json.Num 1.; Json.Str "x"; Json.Obj [] ]);
      ]
  in
  (match Json.of_string (Json.to_string doc) with
  | Ok parsed -> check_bool "compact round-trips" true (parsed = doc)
  | Error msg -> Alcotest.fail msg);
  match Json.of_string (Json.to_string ~indent:true doc) with
  | Ok parsed -> check_bool "indented round-trips" true (parsed = doc)
  | Error msg -> Alcotest.fail msg

let test_json_parse_errors () =
  let bad s =
    match Json.of_string s with
    | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" s)
    | Error _ -> ()
  in
  bad "{";
  bad "[1,]";
  bad "{\"a\":1,}";
  bad "{\"a\" 1}";
  bad "\"unterminated";
  bad "1 2";
  bad "nul"

let test_json_unicode_escape () =
  match Json.of_string "\"caf\\u00e9 \\u2192\"" with
  | Ok (Json.Str s) -> check_str "utf8 decoded" "caf\xc3\xa9 \xe2\x86\x92" s
  | Ok _ -> Alcotest.fail "not a string"
  | Error msg -> Alcotest.fail msg

(* ------------------------------------------------------------------ *)
(* Snapshot                                                            *)
(* ------------------------------------------------------------------ *)

let sample_snapshot () =
  Snapshot.make ~tool:"test" ~created_at:123.5
    ~kernel:("loadstore", "kh") ~machine:("x5650", "mh")
    ~options:[ ("experiments", "5"); ("per", "element") ]
    ~seed:42
    ~counters:[ ("sim.variants", 14) ]
    [
      Snapshot.of_values ~key:"v1" ~unroll:1 ~unit_label:"tsc-cycles"
        ~per_label:"element"
        [| 2.0; 2.1; 1.9; 2.0 |];
      Snapshot.point_stat ~key:"v2" 0.503;
    ]

let test_snapshot_round_trip () =
  let snap = sample_snapshot () in
  let path = Filename.temp_file "mt_obsv" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Snapshot.save snap path;
      match Snapshot.load path with
      | Error msg -> Alcotest.fail msg
      | Ok loaded ->
        check_bool "identical after save/load" true (loaded = snap))

(* Forward compatibility: a document written by a newer schema — a
   bumped version number plus fields this binary has never heard of, at
   the top level and inside each variant — must load with the unknown
   fields ignored, so older binaries can read newer history entries. *)
let test_snapshot_loads_newer_schema () =
  let text =
    Printf.sprintf
      "{\"schema\": %d, \"tool\": \"future\", \"novel_top_level\": {\"x\": 1},\n\
      \ \"variants\": [{\"key\": \"v0\", \"median\": 2.5,\n\
      \                 \"novel_variant_field\": [1, 2, 3]}],\n\
      \ \"another_unknown\": \"ignored\"}"
      (Snapshot.schema_version + 1)
  in
  match Snapshot.of_string text with
  | Error msg -> Alcotest.failf "newer schema failed to load: %s" msg
  | Ok snap ->
    check_int "document schema preserved" (Snapshot.schema_version + 1)
      snap.Snapshot.schema;
    check_str "tool" "future" snap.Snapshot.tool;
    (match snap.Snapshot.variants with
    | [ v ] ->
      check_str "variant key" "v0" v.Snapshot.key;
      Alcotest.(check (float 1e-9)) "variant median" 2.5 v.Snapshot.median
    | vs -> Alcotest.failf "expected 1 variant, got %d" (List.length vs))

let test_identical_snapshots_diff_empty () =
  let snap = sample_snapshot () in
  let diff = Diff.compare ~baseline:snap snap in
  check_bool "no regressions" false (Diff.has_regressions diff);
  check_int "all matched" 2 (List.length diff.Diff.entries);
  List.iter
    (fun e -> check_bool e.Diff.key true (e.Diff.verdict = Diff.Unchanged))
    diff.Diff.entries;
  check_bool "no provenance notes" true (diff.Diff.provenance_notes = [])

(* ------------------------------------------------------------------ *)
(* The noise gate                                                      *)
(* ------------------------------------------------------------------ *)

(* Two runs of the same noisy measurement: median 100 with stddev 5
   over 10 experiments pools to a ~5% CoV, so the 3x gate spans ~15%. *)
let noisy ?(verdict = Mt_quality.Stable) key median =
  {
    Snapshot.key;
    unroll = 1;
    median;
    mean = median;
    stddev = 5.;
    cov = 5. /. median;
    count = 10;
    minimum = median -. 8.;
    maximum = median +. 8.;
    unit_label = "tsc-cycles";
    per_label = "pass";
    rciw = 0.;
    outliers = 0;
    warmup_trend = false;
    verdict;
    profile = [];
  }

let snap_of variants =
  Snapshot.make ~tool:"test" ~created_at:0. ~kernel:("k", "kh")
    ~machine:("m", "mh") variants

let verdict_of diff key =
  match List.find_opt (fun e -> e.Diff.key = key) diff.Diff.entries with
  | Some e -> e.Diff.verdict
  | None -> Alcotest.fail (key ^ " not in diff")

let test_delta_inside_band_is_unchanged () =
  let base = snap_of [ noisy "v" 100. ] in
  let cur = snap_of [ noisy "v" 102. ] in
  let diff = Diff.compare ~baseline:base cur in
  check_bool "2% inside a 15% band" true (verdict_of diff "v" = Diff.Unchanged);
  check_bool "exit would be 0" false (Diff.has_regressions diff)

let test_delta_outside_band_is_flagged () =
  let base = snap_of [ noisy "v" 100. ] in
  let slower = Diff.compare ~baseline:base (snap_of [ noisy "v" 140. ]) in
  check_bool "+40% escapes the band" true
    (verdict_of slower "v" = Diff.Regression);
  check_bool "exit would be 1" true (Diff.has_regressions slower);
  let faster = Diff.compare ~baseline:base (snap_of [ noisy "v" 60. ]) in
  check_bool "-40% is an improvement" true
    (verdict_of faster "v" = Diff.Improvement);
  check_bool "improvements do not gate" false (Diff.has_regressions faster)

let test_threshold_scales_the_band () =
  let base = snap_of [ noisy "v" 100. ] in
  let cur = snap_of [ noisy "v" 120. ] in
  let tight = Diff.compare ~threshold:1.0 ~baseline:base cur in
  check_bool "20% escapes a 1x (~5%) band" true
    (verdict_of tight "v" = Diff.Regression);
  let loose = Diff.compare ~threshold:10.0 ~baseline:base cur in
  check_bool "20% hides in a 10x (~50%) band" true
    (verdict_of loose "v" = Diff.Unchanged)

let test_min_band_floors_zero_variance () =
  (* The deterministic simulator: stddev 0 on both sides would make the
     pooled band 0 and every last-digit wobble a regression. *)
  let base = snap_of [ Snapshot.point_stat ~key:"v" 100. ] in
  let wobble = Diff.compare ~baseline:base (snap_of [ Snapshot.point_stat ~key:"v" 100.05 ]) in
  check_bool "0.05% sits under the 0.1% floor" true
    (verdict_of wobble "v" = Diff.Unchanged);
  let real = Diff.compare ~baseline:base (snap_of [ Snapshot.point_stat ~key:"v" 101. ]) in
  check_bool "1% escapes the floor" true (verdict_of real "v" = Diff.Regression)

let test_added_and_removed () =
  let base = snap_of [ noisy "old" 100.; noisy "both" 100. ] in
  let cur = snap_of [ noisy "both" 100.; noisy "new" 100. ] in
  let diff = Diff.compare ~baseline:base cur in
  check_bool "removed" true (verdict_of diff "old" = Diff.Removed);
  check_bool "added" true (verdict_of diff "new" = Diff.Added);
  check_bool "matched" true (verdict_of diff "both" = Diff.Unchanged);
  check_bool "membership changes do not gate" false (Diff.has_regressions diff)

let test_hash_mismatch_noted () =
  let base = snap_of [ noisy "v" 100. ] in
  let cur =
    Snapshot.make ~tool:"test" ~created_at:0. ~kernel:("k", "other-hash")
      ~machine:("m", "mh") [ noisy "v" 100. ]
  in
  let diff = Diff.compare ~baseline:base cur in
  check_int "one note" 1 (List.length diff.Diff.provenance_notes)

let test_diff_render_and_json () =
  let base = snap_of [ noisy "v" 100. ] in
  let diff = Diff.compare ~baseline:base (snap_of [ noisy "v" 140. ]) in
  let table = Diff.render diff in
  check_bool "verdict in table" true
    (Telemetry_tests.contains table "regression");
  check_bool "summary line" true (Telemetry_tests.contains table "1 regression");
  let json = Json.to_string (Diff.to_json diff) in
  Telemetry_tests.validate_json json;
  check_bool "regressions flag" true
    (Telemetry_tests.contains json "\"regressions\":true")

(* ------------------------------------------------------------------ *)
(* The quality gate                                                    *)
(* ------------------------------------------------------------------ *)

let test_quality_regression_gates_independently () =
  (* Same medians — the perf gate stays quiet — but the current run's
     series went unstable: the quality gate must fire on its own, with
     its own note. *)
  let base = snap_of [ noisy "v" 100. ] in
  let cur =
    snap_of [ noisy ~verdict:(Mt_quality.Unstable "cov 30% >= 10%") "v" 100. ]
  in
  let diff = Diff.compare ~baseline:base cur in
  check_bool "medians held" false (Diff.has_regressions diff);
  check_bool "quality regressed" true (Diff.has_quality_regressions diff);
  let table = Diff.render diff in
  check_bool "distinct note" true
    (Telemetry_tests.contains table "measurement quality regressed for v");
  check_bool "summary counts it" true
    (Telemetry_tests.contains table "1 quality regression");
  let json = Json.to_string (Diff.to_json diff) in
  Telemetry_tests.validate_json json;
  check_bool "json quality flag" true
    (Telemetry_tests.contains json "\"quality_regressions\":true");
  (* The reverse direction is an improvement, not a regression. *)
  let healed = Diff.compare ~baseline:cur base in
  check_bool "recovery does not gate" false (Diff.has_quality_regressions healed)

let test_quality_noisy_step_is_a_regression () =
  (* Stable -> Noisy is already a rank increase: the gate is on verdict
     rank, not just the unstable extreme. *)
  let base = snap_of [ noisy "v" 100. ] in
  let cur = snap_of [ noisy ~verdict:(Mt_quality.Noisy "rciw") "v" 100. ] in
  check_bool "stable->noisy gates" true
    (Diff.has_quality_regressions (Diff.compare ~baseline:base cur));
  let worse =
    snap_of [ noisy ~verdict:(Mt_quality.Unstable "cov") "v" 100. ]
  in
  check_bool "noisy->unstable gates" true
    (Diff.has_quality_regressions (Diff.compare ~baseline:cur worse));
  check_bool "same rank does not gate" false
    (Diff.has_quality_regressions (Diff.compare ~baseline:cur cur))

let test_schema1_snapshot_loads_with_quality_defaults () =
  (* A pre-quality (schema 1) snapshot has no verdict fields: it must
     load as Stable/zeroed, so old baselines never read as regressed. *)
  let text =
    "{\"schema\": 1, \"variants\": [{\"key\": \"v\", \"median\": 2.5}]}"
  in
  match Snapshot.of_string text with
  | Error msg -> Alcotest.fail msg
  | Ok snap -> (
    match snap.Snapshot.variants with
    | [ v ] ->
      check_bool "stable by default" true (v.Snapshot.verdict = Mt_quality.Stable);
      check_bool "zeroed quality metrics" true
        (v.Snapshot.rciw = 0. && v.Snapshot.outliers = 0
        && not v.Snapshot.warmup_trend)
    | _ -> Alcotest.fail "expected one variant")

let test_snapshot_verdict_round_trips () =
  let stats =
    [
      noisy "s" 100.;
      noisy ~verdict:(Mt_quality.Noisy "outliers 3/10 > 20%") "n" 100.;
      noisy ~verdict:(Mt_quality.Unstable "rciw 40.0% >= 25.0%") "u" 100.;
    ]
  in
  let snap = snap_of stats in
  match Snapshot.of_string (Snapshot.to_string snap) with
  | Error msg -> Alcotest.fail msg
  | Ok loaded ->
    check_bool "verdicts (and reasons) survive the codec" true
      (List.map (fun v -> v.Snapshot.verdict) loaded.Snapshot.variants
      = List.map (fun v -> v.Snapshot.verdict) stats)

(* ------------------------------------------------------------------ *)
(* Study.snapshot end-to-end                                           *)
(* ------------------------------------------------------------------ *)

let x5650 = Config.nehalem_x5650_2s

let quick_opts =
  {
    (Options.default x5650) with
    Options.array_bytes = 16 * 1024;
    repetitions = 1;
    experiments = 2;
  }

let small_spec =
  Mt_kernels.Streams.loadstore_spec ~opcode:Mt_isa.Insn.MOVSS ~stride:4
    ~unroll:(1, 2) ()

let test_study_snapshot_round_trip () =
  let study = Microtools.Study.create small_spec quick_opts in
  let outcomes = Microtools.Study.run study in
  let snap = Microtools.Study.snapshot study outcomes in
  check_int "one stat per variant" 6 (List.length snap.Snapshot.variants);
  check_int "variant_count counts outcomes" 6 snap.Snapshot.variant_count;
  check_str "kernel name from spec" "loadstore" snap.Snapshot.kernel_name;
  check_bool "options recorded" true
    (List.assoc_opt "experiments" snap.Snapshot.options = Some "2");
  (* A second identical run diffs empty — the simulator is deterministic
     and the manifest captures everything the measurement depends on.
     It fills a cache dir on the way, which a third run then replays
     from: the cached reports give the same stats. *)
  let dir = Parallel_tests.temp_dir () in
  let run_snapshot cache =
    let config = Microtools.Study.Run_config.make ~cache () in
    Microtools.Study.snapshot study (Microtools.Study.run ~config study)
  in
  let snap' = run_snapshot (Mt_parallel.Cache.create ~dir ()) in
  let diff = Diff.compare ~baseline:snap snap' in
  check_bool "identical re-run has no regressions" false
    (Diff.has_regressions diff);
  List.iter
    (fun e -> check_bool e.Diff.key true (e.Diff.verdict = Diff.Unchanged))
    diff.Diff.entries;
  let warm = Mt_parallel.Cache.create ~dir () in
  let snap'' = run_snapshot warm in
  check_int "the third run replays every variant" 6 (Mt_parallel.Cache.hits warm);
  check_bool "a warm-cache re-run has the same stats" true
    (snap''.Snapshot.variants = snap'.Snapshot.variants);
  (* And the file round-trip preserves it bit-for-bit. *)
  let path = Filename.temp_file "mt_study" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Snapshot.save snap path;
      match Snapshot.load path with
      | Error msg -> Alcotest.fail msg
      | Ok loaded -> check_bool "file round-trip" true (loaded = snap));
  (* The quality block is the launcher report's own, so a run-level
     seed reaches the snapshot as it reaches the CSV verdict.  Eight
     experiments leave seven after drop-first, enough for the bootstrap
     RCIW to depend on the seed (at six, seeds 7 and 42 agree). *)
  let study =
    Microtools.Study.create small_spec { quick_opts with Options.experiments = 8 }
  in
  let config = Microtools.Study.Run_config.make ~seed:7 () in
  let outcomes = Microtools.Study.run ~config study in
  let snap = Microtools.Study.snapshot ~config study outcomes in
  check_bool "options record the run's seed" true
    (List.assoc_opt "quality_seed" snap.Snapshot.options = Some "7");
  let stats = snap.Snapshot.variants in
  check_int "one stat per report" 6 (List.length stats);
  List.iter2
    (fun (_, r) (s : Snapshot.variant_stat) ->
      let q = r.Report.quality in
      let exact = Alcotest.(check (float 0.)) in
      exact (s.key ^ " rciw") q.Mt_quality.rciw s.rciw;
      exact (s.key ^ " cov") q.Mt_quality.cov s.cov;
      check_int (s.key ^ " outliers") q.Mt_quality.outliers s.outliers;
      check_bool (s.key ^ " warmup_trend") q.Mt_quality.warmup_trend
        s.warmup_trend;
      check_str (s.key ^ " verdict")
        (Mt_quality.verdict_to_string q.Mt_quality.verdict)
        (Mt_quality.verdict_to_string s.verdict))
    (Microtools.Study.successes outcomes)
    stats

(* History lineages and plans are keyed by these hashes, so a
   cache-format bump must not move them. *)
let test_provenance_hashes_pinned () =
  let text =
    Profile_tests.read_file (Filename.concat Profile_tests.corpus_dir "movss_u8.xml")
  in
  (match Microtools.Study.of_description text quick_opts with
  | Error msg -> Alcotest.fail msg
  | Ok study ->
    check_str "movss_u8 kernel hash" "52e94b720d0f3ab8e516d3fdb0775765"
      (Microtools.Study.kernel_hash study));
  check_str "simspeed machine hash" "5c9224612ab246472693e0ad016a5edf"
    (Snapshot.content_hash [ "nehalem_x5650_2s" ])

let test_exp_table_stat_entries () =
  let table =
    Microtools.Exp_table.make ~id:"figXX" ~title:"t"
      ~columns:[ "size"; "cycles"; "note" ]
      ~expectation:"e"
      [ [ "100"; "2.5"; "fast" ]; [ "200"; "7.25"; "slow" ] ]
  in
  let entries = Microtools.Exp_table.stat_entries table in
  (* The label column itself and non-numeric cells are skipped. *)
  check_bool "numeric cells only" true
    (entries
    = [ ("figXX/100/cycles", 2.5); ("figXX/200/cycles", 7.25) ])

(* ------------------------------------------------------------------ *)
(* Deep trace lanes                                                    *)
(* ------------------------------------------------------------------ *)

let with_lanes detail f =
  let tel = Mt_telemetry.create () in
  Mt_telemetry.set_global tel;
  Mt_telemetry.set_detail detail;
  Fun.protect
    ~finally:(fun () ->
      Mt_telemetry.set_detail Mt_telemetry.Off;
      Mt_telemetry.set_global Mt_telemetry.disabled)
    (fun () -> f tel)

let launch_small () =
  let variant =
    List.hd
      (Mt_creator.Creator.generate
         (Mt_kernels.Streams.loadstore_spec ~opcode:Mt_isa.Insn.MOVSS ~stride:4
            ~unroll:(2, 2) ~swap_after:false ()))
  in
  match Launcher.launch quick_opts (Source.From_variant variant) with
  | Ok r -> r
  | Error msg -> Alcotest.fail msg

(* What a Perfetto user opens: the exported document itself. *)
let test_sampled_lanes_emit_chrome_trace () =
  with_lanes Mt_telemetry.Sampled (fun tel ->
      ignore (launch_small ());
      let json = Mt_telemetry.chrome_trace tel in
      Telemetry_tests.validate_json json;
      let events =
        match Result.map (Json.member "traceEvents") (Json.of_string json) with
        | Ok (Some (Json.List events)) -> events
        | _ -> Alcotest.fail "no traceEvents array"
      in
      let field key e = Json.member key e in
      let phase ph e = field "ph" e = Some (Json.Str ph) in
      let insn_spans =
        List.filter
          (fun e ->
            phase "X" e && Option.bind (field "args" e) (Json.member "pc") <> None)
          events
      in
      check_bool "instruction spans recorded" true (insn_spans <> []);
      check_bool "on the simulated-time lane" true
        (List.for_all
           (fun e ->
             match Option.bind (field "tid" e) Json.to_int with
             | Some tid -> tid >= 1_000_000
             | None -> false)
           insn_spans);
      let counters = List.filter (phase "C") events in
      List.iter
        (fun lane ->
          check_bool (lane ^ " series") true
            (List.exists (fun e -> field "name" e = Some (Json.Str lane)) counters))
        [ "cache.L1"; "cache.L2"; "cache.L3" ];
      check_bool "integer hit/miss values" true
        (List.for_all
           (fun e ->
             let value key =
               Option.bind (Option.bind (field "args" e) (Json.member key)) Json.to_int
             in
             value "hit" <> None && value "miss" <> None)
           counters))

(* Every L1 miss is one L2 lookup and every L2 miss one L3 lookup, so
   the lanes' counts must chain exactly at each sampled instruction; and
   they count from the start of the call, so they only grow within it.
   64 KiB at one access per line is twice the L1: the cold call reaches
   RAM and the warm call still misses L1 into L2. *)
let test_lane_values_follow_the_hierarchy () =
  let variant =
    List.hd
      (Mt_creator.Creator.generate
         (Mt_kernels.Streams.loadstore_spec ~opcode:Mt_isa.Insn.MOVSS
            ~stride:64 ~unroll:(1, 1) ~swap_after:false ()))
  in
  let p =
    match Source.load (Source.From_variant variant) with
    | Error msg -> Alcotest.fail msg
    | Ok (program, abi) -> (
      match
        Protocol.prepare
          { quick_opts with Options.array_bytes = 64 * 1024 }
          program abi
      with
      | Ok p -> p
      | Error msg -> Alcotest.fail msg)
  in
  with_lanes Mt_telemetry.Full (fun tel ->
      (* One call's lane points, one per instruction (its cache.L1,
         cache.L2 and cache.L3 samples), each as
         [| L1 hit; L1 miss; L2 hit; L2 miss; L3 hit; L3 miss |]. *)
      let call () =
        let before = List.length (Mt_telemetry.samples tel) in
        (match Protocol.run_once p with
        | Ok _ -> ()
        | Error msg -> Alcotest.fail msg);
        let rec points = function
          | [] -> []
          | l1 :: l2 :: l3 :: rest ->
            if
              List.map (fun s -> s.Mt_telemetry.series_name) [ l1; l2; l3 ]
              <> [ "cache.L1"; "cache.L2"; "cache.L3" ]
            then Alcotest.fail "lanes out of order";
            let v s key = int_of_float (List.assoc key s.Mt_telemetry.values) in
            [| v l1 "hit"; v l1 "miss"; v l2 "hit"; v l2 "miss"; v l3 "hit"; v l3 "miss" |]
            :: points rest
          | _ -> Alcotest.fail "incomplete lane triple"
        in
        points (List.filteri (fun i _ -> i >= before) (Mt_telemetry.samples tel))
      in
      (* Checks one call and returns its last point. *)
      let check_call = function
        | [] -> Alcotest.fail "no lane points"
        | first :: _ as points ->
          check_bool "L1 misses = L2 lookups" true
            (List.for_all (fun c -> c.(1) = c.(2) + c.(3)) points);
          check_bool "L2 misses = L3 lookups" true
            (List.for_all (fun c -> c.(3) = c.(4) + c.(5)) points);
          (* The first instruction makes at most one access. *)
          check_bool "counts start with the call" true (first.(0) + first.(1) <= 1);
          let rec grows = function
            | a :: (b :: _ as rest) -> Array.for_all2 ( <= ) a b && grows rest
            | _ -> true
          in
          check_bool "never decreases within a call" true (grows points);
          List.nth points (List.length points - 1)
      in
      let cold = check_call (call ()) in
      check_bool "cold call reaches RAM" true (cold.(5) > 0);
      let warm = check_call (call ()) in
      check_bool "warm call misses L1" true (warm.(1) > 0);
      check_bool "warm call hits L2" true (warm.(2) > 0))

let test_full_detail_records_every_instruction () =
  let sampled =
    with_lanes Mt_telemetry.Sampled (fun tel ->
        ignore (launch_small ());
        List.length
          (List.filter
             (fun e -> List.mem_assoc "pc" e.Mt_telemetry.args)
             (Mt_telemetry.events tel)))
  in
  let full =
    with_lanes Mt_telemetry.Full (fun tel ->
        ignore (launch_small ());
        List.length
          (List.filter
             (fun e -> List.mem_assoc "pc" e.Mt_telemetry.args)
             (Mt_telemetry.events tel)))
  in
  check_bool "full records more than sampled" true (full > sampled);
  check_bool "stride is 64" true (full >= 32 * sampled)

let test_off_detail_records_no_lanes () =
  with_lanes Mt_telemetry.Off (fun tel ->
      ignore (launch_small ());
      check_bool "no samples" true (Mt_telemetry.samples tel = []);
      check_bool "no pc-tagged events" true
        (List.for_all
           (fun e -> not (List.mem_assoc "pc" e.Mt_telemetry.args))
           (Mt_telemetry.events tel)))

let test_lanes_do_not_change_measurement () =
  let plain = launch_small () in
  let traced =
    with_lanes Mt_telemetry.Full (fun _ -> launch_small ())
  in
  Alcotest.(check (float 1e-9))
    "same median with and without lanes" plain.Report.value traced.Report.value

let tests =
  [
    Alcotest.test_case "json round-trips" `Quick test_json_round_trip;
    Alcotest.test_case "json rejects malformed input" `Quick
      test_json_parse_errors;
    Alcotest.test_case "json decodes unicode escapes" `Quick
      test_json_unicode_escape;
    Alcotest.test_case "snapshot save/load round-trips" `Quick
      test_snapshot_round_trip;
    Alcotest.test_case "snapshot loads newer schema ignoring unknown fields"
      `Quick test_snapshot_loads_newer_schema;
    Alcotest.test_case "identical snapshots diff empty" `Quick
      test_identical_snapshots_diff_empty;
    Alcotest.test_case "delta inside noise band is unchanged" `Quick
      test_delta_inside_band_is_unchanged;
    Alcotest.test_case "delta outside noise band is flagged" `Quick
      test_delta_outside_band_is_flagged;
    Alcotest.test_case "threshold scales the band" `Quick
      test_threshold_scales_the_band;
    Alcotest.test_case "min band floors zero variance" `Quick
      test_min_band_floors_zero_variance;
    Alcotest.test_case "added and removed variants" `Quick
      test_added_and_removed;
    Alcotest.test_case "hash mismatch is noted" `Quick test_hash_mismatch_noted;
    Alcotest.test_case "diff renders table and JSON" `Quick
      test_diff_render_and_json;
    Alcotest.test_case "quality regression gates independently" `Quick
      test_quality_regression_gates_independently;
    Alcotest.test_case "any verdict-rank increase is a quality regression"
      `Quick test_quality_noisy_step_is_a_regression;
    Alcotest.test_case "schema-1 snapshots load with quality defaults" `Quick
      test_schema1_snapshot_loads_with_quality_defaults;
    Alcotest.test_case "snapshot verdicts round-trip" `Quick
      test_snapshot_verdict_round_trips;
    Alcotest.test_case "study snapshot round-trips and diffs empty" `Quick
      test_study_snapshot_round_trip;
    Alcotest.test_case "provenance hashes are pinned" `Quick
      test_provenance_hashes_pinned;
    Alcotest.test_case "exp_table stat entries" `Quick
      test_exp_table_stat_entries;
    Alcotest.test_case "sampled lanes emit a valid chrome trace" `Quick
      test_sampled_lanes_emit_chrome_trace;
    Alcotest.test_case "lane values follow the cache hierarchy" `Quick
      test_lane_values_follow_the_hierarchy;
    Alcotest.test_case "full detail records every instruction" `Quick
      test_full_detail_records_every_instruction;
    Alcotest.test_case "off detail records no lanes" `Quick
      test_off_detail_records_no_lanes;
    Alcotest.test_case "lanes do not change the measurement" `Quick
      test_lanes_do_not_change_measurement;
  ]

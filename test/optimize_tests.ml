(* Tests for the suite-time optimizer: scoring a synthetic history
   lineage (two perfectly-correlated stable variants plus one noisy
   one), the plan's JSON round-trip, and the end-to-end safety claim —
   replaying the pruned plan through filter_snapshot/expand_diff flags
   exactly the variants a full-suite diff would have flagged on an
   injected step regression. *)

module History = Mt_obsv.History
module Snapshot = Mt_obsv.Snapshot
module Diff = Mt_obsv.Diff
module Plan = Mt_optimize.Plan
module Optimizer = Mt_optimize.Optimizer

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let check_string = Alcotest.(check string)

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

(* One run of the three-variant suite.  Each variant is (median,
   within-run spread): the five values straddle the median evenly, so
   the stat reports exactly that median and a CoV proportional to
   spread/median. *)
let run_snapshot variants =
  Snapshot.make ~tool:"test" ~created_at:0. ~kernel:("copy", "kh-1")
    ~machine:("laptop", "mh-1") ~seed:7
    (List.map
       (fun (key, median, spread) ->
         let values =
           Array.init 5 (fun i -> median +. (spread *. float_of_int (i - 2)))
         in
         Snapshot.of_assessment ~key (Mt_stats.summarize values)
           (Mt_quality.assess ~seed:7 values))
       variants)

let append_ok dir s =
  match History.append ~dir s with
  | Ok entry -> entry
  | Error msg -> Alcotest.failf "append failed: %s" msg

let load_ok dir =
  match History.load dir with
  | Ok hist -> hist
  | Error msg -> Alcotest.failf "load failed: %s" msg

(* Six archived runs: "a" and "b" are stable and move in lockstep (b is
   2x a run for run, so their median series share a rank order); "c" is
   so noisy within each run that its CoV blows the stability gate. *)
let a_medians = [| 2.0; 2.002; 2.001; 2.003; 2.0; 2.002 |]

let synth_archive () =
  let dir = temp_dir "mtopt" in
  Array.iter
    (fun a ->
      ignore
        (append_ok dir
           (run_snapshot
              [ ("a", a, 0.001); ("b", 2. *. a, 0.001); ("c", 5.0, 0.3) ])))
    a_medians;
  dir

let optimize_ok ?knobs hist =
  match History.latest_lineage hist with
  | None -> Alcotest.fail "latest_lineage on a non-empty archive"
  | Some lineage -> (
    match Optimizer.optimize ?knobs ~created_at:123.5 hist lineage with
    | Ok plan -> plan
    | Error msg -> Alcotest.failf "optimize failed: %s" msg)

let test_optimize_prunes_redundant () =
  let dir = synth_archive () in
  let plan = optimize_ok (load_ok dir) in
  check_int "plan scored the whole lineage" 6 plan.Plan.runs;
  check_string "lineage kernel recorded" "copy" plan.Plan.kernel_name;
  (* Exactly one of the correlated pair is dropped, onto the other. *)
  check_int "one variant dropped" 1 (List.length plan.Plan.drop);
  (match plan.Plan.drop with
  | [ d ] ->
    check_string "b is redundant with a" "b" d.Plan.variant;
    check_string "its canary is a" "a" d.Plan.canary;
    check_bool "correlation clears the threshold" true
      (Float.abs d.Plan.correlation >= 0.95)
  | _ -> Alcotest.fail "expected exactly one drop");
  check_bool "dropped variant is deselected" false (Plan.selects plan "b");
  check_bool "kept variant stays selected" true (Plan.selects plan "a");
  check_bool "unknown variants stay selected" true
    (Plan.selects plan "added-later");
  (* The stable canary is floored; the noisy variant keeps its full
     adaptive budget. *)
  (match Plan.find_keep plan "a" with
  | Some k ->
    check_bool "canary is stable" true k.Plan.stable;
    check_bool "canary floored to min_experiments"
      true
      (k.Plan.experiments = Some Optimizer.default_knobs.Plan.min_experiments)
  | None -> Alcotest.fail "a must be kept");
  match Plan.find_keep plan "c" with
  | Some k ->
    check_bool "noisy variant is not stable" false k.Plan.stable;
    check_bool "noisy variant keeps the full budget" true
      (k.Plan.experiments = None)
  | None -> Alcotest.fail "c must be kept"

let test_optimize_short_lineage_keeps_all () =
  let dir = temp_dir "mtopt" in
  for _ = 1 to 2 do
    ignore
      (append_ok dir
         (run_snapshot [ ("a", 2.0, 0.001); ("b", 4.0, 0.001) ]))
  done;
  let plan = optimize_ok (load_ok dir) in
  check_int "nothing dropped under min_runs" 0 (List.length plan.Plan.drop);
  check_int "everything kept" 2 (List.length plan.Plan.keep);
  List.iter
    (fun (k : Plan.keep) ->
      check_bool "no floor without enough history" true (k.Plan.experiments = None))
    plan.Plan.keep

let test_plan_json_round_trip () =
  let dir = synth_archive () in
  let plan = optimize_ok (load_ok dir) in
  match Plan.of_string (Plan.to_string plan) with
  | Error msg -> Alcotest.failf "plan did not decode: %s" msg
  | Ok plan' ->
    check_bool "plan survives the JSON round-trip" true (plan = plan')

(* The acceptance claim: on an injected step regression of the canary
   (which the dropped twin shares, since they are correlated), the
   pruned report path — filter both snapshots, diff, expand — flags the
   same variants with the same exit verdict as the full-suite diff. *)
let test_pruned_report_matches_full () =
  let dir = synth_archive () in
  let plan = optimize_ok (load_ok dir) in
  let baseline =
    run_snapshot [ ("a", 2.0, 0.001); ("b", 4.0, 0.001); ("c", 5.0, 0.3) ]
  in
  let current_full =
    run_snapshot [ ("a", 2.5, 0.001); ("b", 5.0, 0.001); ("c", 5.0, 0.3) ]
  in
  (* The pruned run never measured b at all. *)
  let current_pruned =
    run_snapshot [ ("a", 2.5, 0.001); ("c", 5.0, 0.3) ]
  in
  let flagged d =
    List.filter_map
      (fun (e : Diff.entry) ->
        match e.Diff.verdict with
        | Diff.Regression -> Some e.Diff.key
        | _ -> None)
      d.Diff.entries
    |> List.sort compare
  in
  let full = Diff.compare ~baseline current_full in
  let pruned =
    Plan.expand_diff plan
      (Diff.compare
         ~baseline:(Plan.filter_snapshot plan baseline)
         (Plan.filter_snapshot plan current_pruned))
  in
  check_bool "full suite sees the regression" true (Diff.has_regressions full);
  check_bool "pruned suite reaches the same exit verdict" true
    (Diff.has_regressions pruned);
  check_bool "flagged sets are identical" true (flagged full = flagged pruned);
  check_bool "the twin's flag is inherited, not measured" true
    (List.exists
       (fun (e : Diff.entry) ->
         e.Diff.key = "b" && e.Diff.current = None && e.Diff.baseline = None)
       pruned.Diff.entries);
  check_bool "inheritance is recorded in the provenance notes" true
    (List.exists
       (fun note ->
         let has_sub sub =
           let n = String.length note and m = String.length sub in
           let rec go i = i + m <= n && (String.sub note i m = sub || go (i + 1)) in
           m = 0 || go 0
         in
         has_sub "b" && has_sub "canary")
       pruned.Diff.provenance_notes)

(* A quiet current run must stay quiet through the pruned path: no
   synthesized entries, no regressions. *)
let test_pruned_report_clean_run () =
  let dir = synth_archive () in
  let plan = optimize_ok (load_ok dir) in
  let baseline =
    run_snapshot [ ("a", 2.0, 0.001); ("b", 4.0, 0.001); ("c", 5.0, 0.3) ]
  in
  let current_pruned = run_snapshot [ ("a", 2.0, 0.001); ("c", 5.0, 0.3) ] in
  let pruned =
    Plan.expand_diff plan
      (Diff.compare
         ~baseline:(Plan.filter_snapshot plan baseline)
         (Plan.filter_snapshot plan current_pruned))
  in
  check_bool "clean pruned run gates clean" false (Diff.has_regressions pruned);
  check_bool "no synthesized entries without a believed move" true
    (not (List.exists (fun (e : Diff.entry) -> e.Diff.key = "b") pruned.Diff.entries))

let tests =
  [
    Alcotest.test_case "optimize: prunes the redundant twin" `Quick
      test_optimize_prunes_redundant;
    Alcotest.test_case "optimize: short lineage keeps all" `Quick
      test_optimize_short_lineage_keeps_all;
    Alcotest.test_case "plan: JSON round-trip" `Quick test_plan_json_round_trip;
    Alcotest.test_case "plan: pruned report matches full suite" `Quick
      test_pruned_report_matches_full;
    Alcotest.test_case "plan: clean pruned run gates clean" `Quick
      test_pruned_report_clean_run;
  ]

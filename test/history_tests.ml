(* Tests for the longitudinal layer: the Trend classifier on synthetic
   step/drift/stationary series (plus a QCheck property that the noise
   model's stationary jitter never trips a changepoint), the history
   archive's append/load round-trip and torn-manifest recovery, the
   windowed baseline, and the sparkline renderer the timeline view
   uses. *)

module Trend = Mt_stats.Trend
module History = Mt_obsv.History
module Snapshot = Mt_obsv.Snapshot

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let check_string = Alcotest.(check string)

let check_class msg expected (r : Trend.result) =
  check_string msg
    (Trend.classification_to_string expected)
    (Trend.classification_to_string r.Trend.classification)

(* ------------------------------------------------------------------ *)
(* Trend classification on synthetic series                            *)
(* ------------------------------------------------------------------ *)

let test_trend_step_regression () =
  (* Five runs at 2.0, three at 3.0: an unambiguous step up (slower). *)
  let xs = [| 2.0; 2.0; 2.0; 2.0; 2.0; 3.0; 3.0; 3.0 |] in
  let r = Trend.analyze xs in
  check_class "step up classifies as regression" Trend.Step_regression r;
  check_int "changepoint is the first slow run" 5
    (Option.value r.Trend.changepoint ~default:(-1));
  check_bool "shift is the +50% move" true (abs_float (r.Trend.shift -. 0.5) < 0.05)

let test_trend_step_improvement () =
  let xs = [| 3.0; 3.0; 3.0; 3.0; 2.4; 2.4; 2.4; 2.4 |] in
  let r = Trend.analyze xs in
  check_class "step down classifies as improvement" Trend.Step_improvement r;
  check_int "changepoint is the first fast run" 4
    (Option.value r.Trend.changepoint ~default:(-1));
  check_bool "shift is negative" true (r.Trend.shift < 0.)

let test_trend_stationary () =
  (* Wobble well inside a generous explicit noise estimate. *)
  let xs = [| 1.000; 1.004; 0.997; 1.002; 0.999; 1.003; 0.998; 1.001 |] in
  let r = Trend.analyze ~noise:0.01 xs in
  check_class "small wobble is stationary" Trend.Stationary r;
  check_bool "no changepoint reported" true (r.Trend.changepoint = None)

let test_trend_drift () =
  (* A shallow monotone ramp: total move beyond the band, but every
     split's median shift inside it — drift, not a step.  The explicit
     noise pins the band at 3 * 0.005 = 1.5%; the ramp climbs 2.4%
     end to end while the best split shifts only ~1.2%. *)
  let n = 9 in
  let xs =
    Array.init n (fun i -> 1.0 +. (0.024 *. float_of_int i /. float_of_int (n - 1)))
  in
  let r = Trend.analyze ~noise:0.005 xs in
  check_class "shallow ramp classifies as drift" Trend.Drifting r;
  check_bool "drift is positive (slower)" true (r.Trend.drift > 0.);
  check_bool "no changepoint for drift" true (r.Trend.changepoint = None)

let test_trend_short_series_stationary () =
  let r = Trend.analyze [| 1.0; 5.0; 1.0 |] in
  check_class "too short to split" Trend.Stationary r

(* The noise model's stationary environments must not trip the
   classifier: a constant workload measured through Noise.perturb is
   run-to-run jitter, never a step.  This is the no-false-changepoint
   guarantee the CI gate's stability rests on. *)
let stationary_noise_no_changepoint =
  QCheck.Test.make ~count:100
    ~name:"stationary noise yields no step changepoints"
    QCheck.(pair (int_bound 10_000) (int_range 6 40))
    (fun (seed, n) ->
      let noise = Mt_machine.Noise.create ~seed Mt_machine.Noise.stable_env in
      let xs =
        Array.init n (fun _ -> Mt_machine.Noise.perturb noise 1_000_000.)
      in
      let r = Trend.analyze xs in
      match r.Trend.classification with
      | Trend.Step_regression | Trend.Step_improvement -> false
      | Trend.Stationary | Trend.Drifting -> true)

(* ------------------------------------------------------------------ *)
(* History archive                                                     *)
(* ------------------------------------------------------------------ *)

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

let snap ?(kernel = ("copy", "kh-1")) ?(machine = ("laptop", "mh-1"))
    ?(key = "v0") median =
  let values = Array.init 5 (fun i -> median +. (0.001 *. float_of_int i)) in
  Snapshot.make ~tool:"test" ~created_at:0. ~kernel ~machine ~seed:7
    [
      Snapshot.of_assessment ~key (Mt_stats.summarize values)
        (Mt_quality.assess ~seed:7 values);
    ]

let append_ok ?label dir s =
  match History.append ?label ~dir s with
  | Ok entry -> entry
  | Error msg -> Alcotest.failf "append failed: %s" msg

let load_ok dir =
  match History.load dir with
  | Ok hist -> hist
  | Error msg -> Alcotest.failf "load failed: %s" msg

let test_history_round_trip () =
  let dir = temp_dir "mthist" in
  let e1 = append_ok ~label:"first" dir (snap 2.0) in
  let e2 = append_ok dir (snap 2.1) in
  check_int "sequence numbers are 1 and 2" 1 e1.History.seq;
  check_int "second append gets seq 2" 2 e2.History.seq;
  check_string "explicit label kept" "first" e1.History.label;
  check_string "default label derives from seq" "run-000002" e2.History.label;
  let hist = load_ok dir in
  check_int "two entries load back" 2 (History.length hist);
  check_string "archive dir recorded" dir (History.dir hist);
  (match History.latest hist with
  | Some e -> check_int "latest is the newest seq" 2 e.History.seq
  | None -> Alcotest.fail "latest on a non-empty archive");
  List.iter
    (fun e ->
      match History.snapshot hist e with
      | Error msg -> Alcotest.failf "snapshot %d unreadable: %s" e.History.seq msg
      | Ok s ->
        check_string "tool round-trips" "test" s.Snapshot.tool;
        check_string "kernel hash round-trips" "kh-1" s.Snapshot.kernel_hash)
    (History.entries hist);
  let series = History.series hist ~variant:"v0" in
  check_int "series has one point per run" 2 (List.length series);
  let medians = List.map (fun (_, v) -> v.Snapshot.median) series in
  check_bool "series is oldest first" true
    (match medians with [ a; b ] -> a < b | _ -> false)

let test_history_matching_lineage () =
  let dir = temp_dir "mthist" in
  ignore (append_ok dir (snap 2.0));
  ignore (append_ok dir (snap ~machine:("server", "mh-2") 5.0));
  ignore (append_ok dir (snap 2.1));
  let hist = load_ok dir in
  let lineage = History.matching ~kernel_hash:"kh-1" ~machine_hash:"mh-1" hist in
  check_int "foreign machine excluded from lineage" 2 (List.length lineage);
  List.iter
    (fun e -> check_string "lineage machine hash" "mh-1" e.History.machine_hash)
    lineage;
  check_int "unfiltered keeps everything" 3
    (List.length (History.matching hist))

let test_history_lineages () =
  let dir = temp_dir "mthist" in
  ignore (append_ok dir (snap 2.0));
  ignore (append_ok dir (snap ~machine:("server", "mh-2") 5.0));
  ignore (append_ok dir (snap 2.1));
  ignore (append_ok dir (snap ~kernel:("triad", "kh-2") 7.0));
  let hist = load_ok dir in
  let lineages = History.lineages hist in
  check_int "three distinct (kernel, machine) lineages" 3
    (List.length lineages);
  (match lineages with
  | first :: _ ->
    (* First-appearance order: the laptop copy lineage leads. *)
    check_string "first lineage kernel" "copy" first.History.l_kernel_name;
    check_string "first lineage machine hash" "mh-1" first.History.l_machine_hash;
    check_int "lineage collects both its runs" 2
      (List.length first.History.l_entries);
    check_bool "lineage entries are oldest first" true
      (match first.History.l_entries with
      | [ a; b ] -> a.History.seq < b.History.seq
      | _ -> false)
  | [] -> Alcotest.fail "lineages on a non-empty archive");
  match History.latest_lineage hist with
  | None -> Alcotest.fail "latest_lineage on a non-empty archive"
  | Some l ->
    check_string "latest lineage follows the newest run" "kh-2"
      l.History.l_kernel_hash;
    check_int "latest lineage has its one run" 1 (List.length l.History.l_entries)

let test_history_torn_manifest_recovery () =
  let dir = temp_dir "mthist" in
  ignore (append_ok dir (snap 2.0));
  ignore (append_ok dir (snap 2.1));
  (* Simulate a crash mid-append: a final manifest line with no
     newline and truncated JSON. *)
  let manifest = Filename.concat dir History.manifest_name in
  let oc = open_out_gen [ Open_append ] 0o644 manifest in
  output_string oc "{\"seq\": 3, \"lab";
  close_out oc;
  let hist = load_ok dir in
  check_int "torn line skipped on load" 2 (History.length hist);
  (* The next append repairs the torn tail and takes the next seq. *)
  let e = append_ok dir (snap 2.2) in
  check_int "append after tear continues the sequence" 3 e.History.seq;
  let hist = load_ok dir in
  check_int "repaired manifest loads all real runs" 3 (History.length hist);
  List.iteri
    (fun i e -> check_int "seqs stay dense" (i + 1) e.History.seq)
    (History.entries hist)

let test_history_trend_on_archive () =
  let dir = temp_dir "mthist" in
  for _ = 1 to 5 do
    ignore (append_ok dir (snap 2.0))
  done;
  for _ = 1 to 3 do
    ignore (append_ok dir (snap 3.0))
  done;
  let hist = load_ok dir in
  let series = History.series hist ~variant:"v0" in
  let r = History.trend series in
  check_class "archived step detected" Trend.Step_regression r;
  check_int "changepoint at the sixth run" 5
    (Option.value r.Trend.changepoint ~default:(-1))

let test_history_baseline_windowing () =
  let dir = temp_dir "mthist" in
  (* An already-landed step: the baseline must come from the new
     regime only, not the stale fast runs before it. *)
  for _ = 1 to 5 do
    ignore (append_ok dir (snap 2.0))
  done;
  for _ = 1 to 3 do
    ignore (append_ok dir (snap 3.0))
  done;
  let hist = load_ok dir in
  match History.baseline hist (History.entries hist) with
  | Error msg -> Alcotest.failf "baseline failed: %s" msg
  | Ok base ->
    check_string "baseline is marked synthetic" "mt_history-baseline"
      base.Snapshot.tool;
    (match base.Snapshot.variants with
    | [ v ] ->
      check_bool "baseline median from the post-step regime" true
        (v.Snapshot.median >= 2.9);
      check_int "counts summed over the window" 15 v.Snapshot.count
    | vs -> Alcotest.failf "one baseline variant expected, got %d"
              (List.length vs))

let test_history_baseline_empty_entries () =
  let dir = temp_dir "mthist" in
  ignore (append_ok dir (snap 2.0));
  let hist = load_ok dir in
  match History.baseline hist [] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "baseline over no entries must error"

let test_history_load_missing_dir () =
  match History.load "/nonexistent/mt-history-dir" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "loading a missing directory must error"

(* ------------------------------------------------------------------ *)
(* Sparkline                                                           *)
(* ------------------------------------------------------------------ *)

let test_sparkline () =
  check_string "extremes map to lowest and highest glyphs"
    "\xe2\x96\x81\xe2\x96\x88"
    (Microtools.Ascii_plot.sparkline [| 1.0; 8.0 |]);
  check_string "flat series renders all-low"
    "\xe2\x96\x81\xe2\x96\x81\xe2\x96\x81"
    (Microtools.Ascii_plot.sparkline [| 5.0; 5.0; 5.0 |]);
  check_string "empty series renders empty" "" (Microtools.Ascii_plot.sparkline [||]);
  let s = Microtools.Ascii_plot.sparkline [| 2.0; 2.0; 2.0; 3.0; 3.0 |] in
  check_int "one glyph (3 bytes) per point" 15 (String.length s)

let test_sparkline_edge_cases () =
  let spark = Microtools.Ascii_plot.sparkline in
  check_string "single sample renders one low glyph" "\xe2\x96\x81"
    (spark [| 42.0 |]);
  (* A stray NaN (a corrupt history cell) must not blank the line: the
     finite neighbours keep their scale and the NaN gets a placeholder. *)
  check_string "nan renders as a placeholder between real glyphs"
    "\xe2\x96\x81?\xe2\x96\x88"
    (spark [| 1.0; Float.nan; 8.0 |]);
  check_string "all-nan series renders all placeholders" "???"
    (spark [| Float.nan; Float.nan; Float.nan |]);
  check_string "infinities clamp to the extreme glyphs"
    "\xe2\x96\x88\xe2\x96\x81\xe2\x96\x81\xe2\x96\x88"
    (spark [| Float.infinity; Float.neg_infinity; 3.0; 9.0 |]);
  (* With no finite samples at all the scale is empty but every sample
     still renders something defined. *)
  check_string "inf-only series still renders"
    "\xe2\x96\x88\xe2\x96\x81"
    (spark [| Float.infinity; Float.neg_infinity |])

let tests =
  [
    Alcotest.test_case "trend: step regression" `Quick test_trend_step_regression;
    Alcotest.test_case "trend: step improvement" `Quick
      test_trend_step_improvement;
    Alcotest.test_case "trend: stationary wobble" `Quick test_trend_stationary;
    Alcotest.test_case "trend: shallow drift" `Quick test_trend_drift;
    Alcotest.test_case "trend: short series" `Quick
      test_trend_short_series_stationary;
    QCheck_alcotest.to_alcotest stationary_noise_no_changepoint;
    Alcotest.test_case "history: append/load round-trip" `Quick
      test_history_round_trip;
    Alcotest.test_case "history: lineage filtering" `Quick
      test_history_matching_lineage;
    Alcotest.test_case "history: lineages" `Quick test_history_lineages;
    Alcotest.test_case "history: torn manifest recovery" `Quick
      test_history_torn_manifest_recovery;
    Alcotest.test_case "history: trend over archive" `Quick
      test_history_trend_on_archive;
    Alcotest.test_case "history: windowed baseline" `Quick
      test_history_baseline_windowing;
    Alcotest.test_case "history: baseline needs entries" `Quick
      test_history_baseline_empty_entries;
    Alcotest.test_case "history: missing dir errors" `Quick
      test_history_load_missing_dir;
    Alcotest.test_case "sparkline rendering" `Quick test_sparkline;
    Alcotest.test_case "sparkline edge cases" `Quick test_sparkline_edge_cases;
  ]

(* Tests for the suite-time optimizer and its plans: scoring a
   synthetic history lineage (two stable variants moving in lockstep
   plus one noisy one) into per-variant budgets, and the plan decoder —
   printer round-trips, totality on truncated and mutated documents,
   rejection of experiment counts below 1, and loading a committed
   schema-1 plan. *)

module History = Mt_obsv.History
module Snapshot = Mt_obsv.Snapshot
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

(* Variants that move in lockstep are each measured: a plan only sets
   budgets.  Both stable variants are floored; the noisy one keeps its
   full adaptive budget. *)
let test_optimize_floors_stable () =
  let dir = synth_archive () in
  let plan = optimize_ok (load_ok dir) in
  check_int "plan scored the whole lineage" 6 plan.Plan.runs;
  check_string "lineage kernel recorded" "copy" plan.Plan.kernel_name;
  check_bool "every variant kept, in key order" true
    (List.map (fun (k : Plan.keep) -> k.Plan.variant) plan.Plan.keep
    = [ "a"; "b"; "c" ]);
  List.iter
    (fun v ->
      check_bool (v ^ " floored to min_experiments") true
        (Plan.experiments_override plan v
        = Some Optimizer.default_knobs.Plan.min_experiments))
    [ "a"; "b" ];
  (match Plan.find_keep plan "c" with
  | Some k ->
    check_bool "noisy variant is not stable" false k.Plan.stable;
    check_bool "noisy variant keeps the full budget" true
      (k.Plan.experiments = None)
  | None -> Alcotest.fail "c must be kept");
  check_bool "unknown variants keep the default budget" true
    (Plan.experiments_override plan "added-later" = None)

let test_optimize_short_lineage_keeps_all () =
  let dir = temp_dir "mtopt" in
  for _ = 1 to 2 do
    ignore
      (append_ok dir
         (run_snapshot [ ("a", 2.0, 0.001); ("b", 4.0, 0.001) ]))
  done;
  let plan = optimize_ok (load_ok dir) in
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

(* Random plans, for the decoder's printer round-trip and totality
   properties.  Strings take any byte (the printer escapes control
   bytes); numbers stay finite, which JSON can carry exactly. *)
let gen_plan =
  let open QCheck.Gen in
  let str = string_size ~gen:char (0 -- 12) in
  let num = float_range (-1e6) 1e6 in
  let count = 1 -- 1000 in
  let keep =
    map
      (fun (variant, experiments, stable, (cov, rciw, trend)) ->
        { Plan.variant; experiments; stable; cov; rciw; trend })
      (quad str (opt count) bool (triple num num str))
  in
  let knobs =
    map
      (fun (min_runs, cov_stable, rciw_stable, min_experiments) ->
        { Plan.min_runs; cov_stable; rciw_stable; min_experiments })
      (quad (0 -- 100) num num count)
  in
  map
    (fun ((schema, created_at, history_dir, runs),
          (kernel_name, kernel_hash, machine_name, machine_hash),
          (knobs, keep)) ->
      {
        Plan.schema;
        created_at;
        history_dir;
        runs;
        kernel_name;
        kernel_hash;
        machine_name;
        machine_hash;
        knobs;
        keep;
      })
    (triple
       (quad (1 -- 5) num str (0 -- 100))
       (quad str str str str)
       (pair knobs (list_size (0 -- 6) keep)))

let arbitrary_plan = QCheck.make ~print:Plan.to_string gen_plan

let prop_plan_round_trip =
  QCheck.Test.make ~count:300 ~name:"plan: of_string (to_string p) = p"
    arbitrary_plan (fun plan -> Plan.of_string (Plan.to_string plan) = Ok plan)

let decodes s =
  match Plan.of_string s with
  | Ok _ -> true
  | Error _ -> false

(* A plan document ends in "}\n", so every prefix that loses the
   closing brace is malformed. *)
let prop_plan_truncated =
  QCheck.Test.make ~count:300 ~name:"plan: truncated documents are errors"
    QCheck.(pair arbitrary_plan (float_bound_exclusive 1.))
    (fun (plan, frac) ->
      let doc = Plan.to_string plan in
      let len = int_of_float (frac *. float_of_int (String.length doc - 1)) in
      not (decodes (String.sub doc 0 len)))

(* A control byte other than tab, newline or CR is invalid everywhere
   in JSON, inside strings too; any other byte may still leave a valid
   plan, but never makes the decoder raise. *)
let prop_plan_mutated =
  let control =
    QCheck.Gen.(oneof [ 0 -- 8; 11 -- 12; 14 -- 31 ] |> map Char.chr)
  in
  QCheck.Test.make ~count:300
    ~name:"plan: byte-mutated documents are errors, never exceptions"
    QCheck.(
      triple arbitrary_plan (float_bound_exclusive 1.)
        (make QCheck.Gen.(pair control char)))
    (fun (plan, frac, (bad, any)) ->
      let doc = Plan.to_string plan in
      let at = int_of_float (frac *. float_of_int (String.length doc)) in
      let mutate c = String.mapi (fun i x -> if i = at then c else x) doc in
      (not (decodes (mutate bad)))
      && match Plan.of_string (mutate any) with Ok _ | Error _ -> true)

(* An experiment count below 1 cannot run; the decoder refuses it
   wherever it appears, so neither a plan file nor a serve submission
   can carry one. *)
let test_plan_rejects_zero_floor () =
  let plan = optimize_ok (load_ok (synth_archive ())) in
  check_bool "the unedited plan decodes" true (decodes (Plan.to_string plan));
  let floor n =
    List.map
      (fun (k : Plan.keep) ->
        { k with experiments = Option.map (Fun.const n) k.Plan.experiments })
      plan.Plan.keep
  in
  List.iter
    (fun (what, bad) ->
      check_bool what false (decodes (Plan.to_string bad)))
    [
      ("experiments 0", { plan with Plan.keep = floor 0 });
      ("experiments -3", { plan with Plan.keep = floor (-3) });
      ( "min_experiments 0",
        {
          plan with
          Plan.knobs = { plan.Plan.knobs with Plan.min_experiments = 0 };
        } );
    ]

(* The optimizer refuses to write such a plan in the first place. *)
let test_optimize_rejects_zero_floor () =
  let hist = load_ok (synth_archive ()) in
  match History.latest_lineage hist with
  | None -> Alcotest.fail "latest_lineage on a non-empty archive"
  | Some lineage ->
    let knobs = { Optimizer.default_knobs with Plan.min_experiments = 0 } in
    check_bool "floor 0 is an error" true
      (Result.is_error (Optimizer.optimize ~knobs hist lineage))

(* A plan written before plans became budgets only: schema 1, a
   "corr_threshold" knob, and a "drop" list.  It still loads; its keep
   entries come through unchanged, and its dropped variants run at the
   default budget like any variant the plan does not list. *)
let test_plan_schema1_loads () =
  match Plan.load "plan-schema1.json" with
  | Error msg -> Alcotest.failf "schema-1 plan did not decode: %s" msg
  | Ok plan ->
    check_int "schema as written" 1 plan.Plan.schema;
    check_int "floor knob kept" 2 plan.Plan.knobs.Plan.min_experiments;
    check_bool "keep entries unchanged" true
      (plan.Plan.keep
      = [
          {
            Plan.variant = "storestream-u_1";
            experiments = Some 2;
            stable = true;
            cov = 0.00056067560062540635;
            rciw = 0.001311718753645192;
            trend = "stationary";
          };
        ]);
    List.iter
      (fun u ->
        let v = Printf.sprintf "storestream-u_%d" u in
        check_bool (v ^ " runs at the default budget") true
          (Plan.experiments_override plan v = None))
      [ 2; 3; 4; 5; 6; 7; 8 ]

let tests =
  [
    Alcotest.test_case "optimize: floors every stable variant" `Quick
      test_optimize_floors_stable;
    Alcotest.test_case "optimize: short lineage keeps all" `Quick
      test_optimize_short_lineage_keeps_all;
    Alcotest.test_case "optimize: floor below 1 is an error" `Quick
      test_optimize_rejects_zero_floor;
    Alcotest.test_case "plan: JSON round-trip" `Quick test_plan_json_round_trip;
    Alcotest.test_case "plan: experiment counts below 1 are rejected" `Quick
      test_plan_rejects_zero_floor;
    Alcotest.test_case "plan: schema-1 document loads" `Quick
      test_plan_schema1_loads;
    QCheck_alcotest.to_alcotest prop_plan_round_trip;
    QCheck_alcotest.to_alcotest prop_plan_truncated;
    QCheck_alcotest.to_alcotest prop_plan_mutated;
  ]

(* Tests for the umbrella Study workflow and the experiment tables. *)

open Mt_machine
open Mt_creator
open Mt_launcher

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

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
    ~unroll:(1, 3) ()

let test_study_generates_once () =
  let study = Microtools.Study.create small_spec quick_opts in
  let a = Microtools.Study.variants study in
  let b = Microtools.Study.variants study in
  check_bool "cached" true (a == b);
  (* Sum of 2^u for u in 1..3. *)
  check_int "variant count" 14 (List.length a)

let test_study_run_all () =
  let study = Microtools.Study.create small_spec quick_opts in
  let outcomes = Microtools.Study.run study in
  check_int "all measured" 14 (List.length outcomes);
  check_int "all succeeded" 14 (List.length (Microtools.Study.successes outcomes))

let test_study_best_and_groups () =
  let study =
    Microtools.Study.create small_spec
      { quick_opts with Options.per = Options.Per_element }
  in
  let outcomes = Microtools.Study.run study in
  (match Microtools.Study.best outcomes with
  | None -> Alcotest.fail "no best"
  | Some (v, r) ->
    check_bool "best is cheapest" true
      (List.for_all
         (fun (_, r') -> r.Report.value <= r'.Report.value)
         (Microtools.Study.successes outcomes));
    check_bool "unrolled wins per element" true (v.Variant.unroll > 1));
  let groups = Microtools.Study.by_unroll outcomes in
  check_int "three groups" 3 (List.length groups);
  List.iter
    (fun (u, members) -> check_int "group size 2^u" (1 lsl u) (List.length members))
    groups

let test_study_min_per_unroll () =
  let study = Microtools.Study.create small_spec quick_opts in
  let outcomes = Microtools.Study.run study in
  let mins = Microtools.Study.min_per_unroll outcomes in
  check_int "three entries" 3 (List.length mins);
  List.iter (fun (_, v) -> check_bool "positive" true (v > 0.)) mins

let test_study_of_description () =
  let xml = Mt_kernels.Streams.description_xml small_spec in
  match Microtools.Study.of_description xml quick_opts with
  | Error msg -> Alcotest.fail msg
  | Ok study -> check_int "variants" 14 (List.length (Microtools.Study.variants study))

let test_study_csv () =
  let study = Microtools.Study.create small_spec quick_opts in
  let outcomes = Microtools.Study.run study in
  let csv = Microtools.Study.csv outcomes in
  check_int "one row per variant" 14 (Mt_stats.Csv.row_count csv)

(* ------------------------------------------------------------------ *)
(* Exp_table                                                           *)
(* ------------------------------------------------------------------ *)

let test_exp_table_width_check () =
  check_bool "mismatched row rejected" true
    (try
       ignore
         (Microtools.Exp_table.make ~id:"x" ~title:"t" ~columns:[ "a"; "b" ]
            ~expectation:"e" [ [ "only" ] ]);
       false
     with Invalid_argument _ -> true)

let test_exp_table_print () =
  let t =
    Microtools.Exp_table.make ~id:"x" ~title:"t" ~columns:[ "a"; "b" ]
      ~expectation:"paper says so" ~observations:[ "we measured it" ]
      [ [ "1"; "2" ] ]
  in
  let buf = Buffer.create 64 in
  let fmt = Format.formatter_of_buffer buf in
  Microtools.Exp_table.print fmt t;
  Format.pp_print_flush fmt ();
  let text = Buffer.contents buf in
  check_bool "has title" true (String.length text > 0);
  let contains needle =
    let rec go i =
      i + String.length needle <= String.length text
      && (String.sub text i (String.length needle) = needle || go (i + 1))
    in
    go 0
  in
  check_bool "expectation" true (contains "paper says so");
  check_bool "observation" true (contains "we measured it")

(* ------------------------------------------------------------------ *)
(* Experiments (quick mode)                                            *)
(* ------------------------------------------------------------------ *)

let test_experiment_registry () =
  check_int "twenty experiments" 20 (List.length Microtools.Experiments.ids);
  check_bool "lookup works" true (Microtools.Experiments.by_id "fig11" <> None);
  check_bool "unknown" true (Microtools.Experiments.by_id "fig99" = None)

let test_gen_counts_experiment () =
  let t = Microtools.Experiments.gen_counts () in
  (* The table carries the measured counts; check the 510 row. *)
  let row =
    List.find (fun r -> List.hd r = "(Load|Store)+ variants") t.Microtools.Exp_table.rows
  in
  Alcotest.(check string) "measured 510" "510" (List.nth row 2)

let test_tab01_static () =
  let t = Microtools.Experiments.tab01 () in
  check_int "three machines" 3 (List.length t.Microtools.Exp_table.rows)

let test_fig13_invariance_quick () =
  let t = Microtools.Experiments.fig13 ~quick:true () in
  (* RAM column constant across frequencies within 2%. *)
  let ram_values =
    List.map
      (fun row -> float_of_string (List.nth row 4))
      t.Microtools.Exp_table.rows
  in
  match ram_values with
  | a :: rest ->
    List.iter
      (fun b -> check_bool "RAM frequency-invariant" true (Float.abs (b -. a) /. a < 0.02))
      rest
  | [] -> Alcotest.fail "no rows"

let test_fig14_knee_quick () =
  let t = Microtools.Experiments.fig14 ~quick:true () in
  let value cores =
    List.find_map
      (fun row ->
        if List.hd row = string_of_int cores then Some (float_of_string (List.nth row 1))
        else None)
      t.Microtools.Exp_table.rows
  in
  match value 1, value 6, value 12 with
  | Some one, Some six, Some twelve ->
    check_bool "flat to 6" true (six < one *. 1.1);
    check_bool "rises past 6" true (twelve > six *. 1.5)
  | _ -> Alcotest.fail "missing rows"

(* ------------------------------------------------------------------ *)
(* Ascii_plot                                                          *)
(* ------------------------------------------------------------------ *)

let test_plot_empty () =
  Alcotest.(check string) "note" "(no data to plot)\n" (Microtools.Ascii_plot.render [])

let test_plot_markers_and_labels () =
  let chart =
    Microtools.Ascii_plot.render ~width:20 ~height:6 ~x_label:"n" ~y_label:"c"
      [
        { Microtools.Ascii_plot.label = "a"; points = [ (1., 1.); (2., 2.) ] };
        { Microtools.Ascii_plot.label = "b"; points = [ (1., 2.); (2., 1.) ] };
      ]
  in
  check_bool "marker a" true (String.contains chart '*');
  check_bool "marker b" true (String.contains chart '+');
  let contains needle =
    let rec go i =
      i + String.length needle <= String.length chart
      && (String.sub chart i (String.length needle) = needle || go (i + 1))
    in
    go 0
  in
  check_bool "legend a" true (contains "* a");
  check_bool "legend b" true (contains "+ b");
  check_bool "x label" true (contains "(n)")

let test_plot_log_scale () =
  let chart =
    Microtools.Ascii_plot.render ~width:20 ~height:6 ~log_y:true
      [ { Microtools.Ascii_plot.label = "s"; points = [ (1., 1.); (2., 100.) ] } ]
  in
  let contains needle =
    let rec go i =
      i + String.length needle <= String.length chart
      && (String.sub chart i (String.length needle) = needle || go (i + 1))
    in
    go 0
  in
  check_bool "log annotation" true (contains "log scale");
  (* The midpoint of a log axis between 1 and 100 is 10. *)
  check_bool "geometric midpoint labelled" true (contains "10")

let test_plot_of_table () =
  let t =
    Microtools.Exp_table.make ~id:"x" ~title:"t" ~columns:[ "n"; "v"; "w" ]
      ~expectation:"e"
      [ [ "1"; "2.0"; "oops" ]; [ "2"; "3.0"; "4.0" ] ]
  in
  match Microtools.Ascii_plot.of_table ~x_column:0 ~y_columns:[ (1, "v"); (2, "w") ] t with
  | [ v; w ] ->
    check_int "v keeps both rows" 2 (List.length v.Microtools.Ascii_plot.points);
    check_int "w skips the bad cell" 1 (List.length w.Microtools.Ascii_plot.points)
  | _ -> Alcotest.fail "two series expected"

(* ------------------------------------------------------------------ *)
(* Cache keys                                                          *)
(* ------------------------------------------------------------------ *)

let corpus_names () =
  Sys.readdir Profile_tests.corpus_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".xml")
  |> List.map Filename.remove_extension
  |> List.sort compare

(* A CI submission's shape: 32 KiB arrays, 2 repetitions, 5 experiments. *)
let key_opts =
  {
    (Options.default x5650) with
    Options.array_bytes = 32 * 1024;
    per = Options.Per_element;
    repetitions = 2;
    experiments = 5;
  }

let corpus_study name =
  match
    Microtools.Study.of_description
      (Profile_tests.read_file
         (Filename.concat Profile_tests.corpus_dir (name ^ ".xml")))
      key_opts
  with
  | Ok study -> study
  | Error msg -> Alcotest.failf "%s: %s" name msg

(* Cache directories and journals outlive the binary that wrote them:
   a key that drifts turns every entry they hold into a miss.  These
   hexes change only with a bump of [Mt_parallel.Cache]'s format
   version. *)
let test_cache_keys_pinned () =
  List.iter
    (fun (name, id, expected) ->
      let study = corpus_study name in
      match
        List.find_opt
          (fun v -> Variant.id v = id)
          (Microtools.Study.variants study)
      with
      | None -> Alcotest.failf "%s has no variant %s" name id
      | Some v ->
        Alcotest.(check string) id expected
          (Microtools.Study.cache_key key_opts v))
    [
      ("storestream", "storestream-u_1", "8aead5f85ac33ad06aef72871326d1d2");
      ( "loadstore", "loadstore-u_8-swB_SLSLLLLL",
        "9e303fb13f7c36ac4261c1cc81dbdc37" );
      ("matmul200", "matmul200-u_8", "4339f3585da28e8480053cf12c117cd7");
    ]

(* Every variant's journal key is its [Study.cache_key] under the
   options it ran with.  An injected raise at every index stops each
   variant before the launcher, so the whole corpus journals in well
   under a second. *)
let test_journal_keys_are_cache_keys () =
  List.iter
    (fun name ->
      let study = corpus_study name in
      let variants = Microtools.Study.variants study in
      let journal = Filename.temp_file "mt-keys" ".journal" in
      let config =
        Microtools.Study.Run_config.make ~journal_out:journal
          ~faults:
            (List.mapi
               (fun index _ ->
                 { Mt_resilience.Fault.index; kind = Mt_resilience.Fault.Raise })
               variants)
          ()
      in
      ignore (Microtools.Study.run ~config study);
      let entries =
        match Mt_resilience.Journal.load journal with
        | Ok entries -> entries
        | Error msg -> Alcotest.failf "%s: %s" name msg
      in
      Sys.remove journal;
      check_int (name ^ ": one record per variant") (List.length variants)
        (List.length entries);
      let options = Microtools.Study.Run_config.apply_options config key_opts in
      List.iter2
        (fun v entry ->
          Alcotest.(check string)
            (Variant.id v ^ " key")
            (Microtools.Study.cache_key options v)
            entry.Mt_resilience.Journal.key)
        variants entries)
    (corpus_names ())

let tests =
  [
    Alcotest.test_case "study generates once" `Quick test_study_generates_once;
    Alcotest.test_case "study run all" `Quick test_study_run_all;
    Alcotest.test_case "study best and groups" `Quick test_study_best_and_groups;
    Alcotest.test_case "study min per unroll" `Quick test_study_min_per_unroll;
    Alcotest.test_case "study from description" `Quick test_study_of_description;
    Alcotest.test_case "study csv" `Quick test_study_csv;
    Alcotest.test_case "cache keys pinned" `Quick test_cache_keys_pinned;
    Alcotest.test_case "journal keys are cache keys" `Quick
      test_journal_keys_are_cache_keys;
    Alcotest.test_case "exp table width check" `Quick test_exp_table_width_check;
    Alcotest.test_case "exp table print" `Quick test_exp_table_print;
    Alcotest.test_case "experiment registry" `Quick test_experiment_registry;
    Alcotest.test_case "gen_counts experiment" `Quick test_gen_counts_experiment;
    Alcotest.test_case "tab01 static" `Quick test_tab01_static;
    Alcotest.test_case "fig13 RAM invariance (quick)" `Slow test_fig13_invariance_quick;
    Alcotest.test_case "fig14 knee (quick)" `Slow test_fig14_knee_quick;
    Alcotest.test_case "plot: empty" `Quick test_plot_empty;
    Alcotest.test_case "plot: markers and labels" `Quick test_plot_markers_and_labels;
    Alcotest.test_case "plot: log scale" `Quick test_plot_log_scale;
    Alcotest.test_case "plot: of_table" `Quick test_plot_of_table;
  ]

(* Tests for the resilience layer: fault-spec parsing, the supervisor's
   one-attempt quarantine matrix, the checkpoint journal (including torn
   final lines, and QCheck totality on cut and byte-mutated files),
   cache decode recovery, and journal resume producing byte-identical
   study output. *)

open Mt_machine
open Mt_launcher
module Fault = Mt_resilience.Fault
module Supervisor = Mt_resilience.Supervisor
module Journal = Mt_resilience.Journal

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Fault specs                                                         *)
(* ------------------------------------------------------------------ *)

let test_fault_spec_parse () =
  (match Fault.of_spec "variant=0:raise" with
  | Ok { Fault.index = 0; kind = Fault.Raise } -> ()
  | _ -> Alcotest.fail "variant=0:raise");
  (match Fault.of_spec "variant=3:timeout" with
  | Ok { Fault.index = 3; kind = Fault.Timeout } -> ()
  | _ -> Alcotest.fail "variant=3:timeout");
  (match Fault.of_spec "variant=2:corrupt-cache-entry" with
  | Ok { Fault.index = 2; kind = Fault.Corrupt_cache_entry } -> ()
  | _ -> Alcotest.fail "variant=2:corrupt-cache-entry");
  List.iter
    (fun bad ->
      match Fault.of_spec bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S should not parse" bad))
    [
      "";
      "variant=:raise";
      "variant=1:explode";
      "variant=x:raise";
      "1:raise";
      (* A unit runs once, so there are no attempts to count. *)
      "variant=3:timeout@1";
    ]

let test_fault_spec_round_trip () =
  List.iter
    (fun spec ->
      match Fault.of_spec spec with
      | Error msg -> Alcotest.fail msg
      | Ok f -> check_string "round trip" spec (Fault.to_spec f))
    [ "variant=0:raise"; "variant=3:timeout"; "variant=2:corrupt-cache-entry" ]

(* ------------------------------------------------------------------ *)
(* Supervisor: one attempt, then a verdict                             *)
(* ------------------------------------------------------------------ *)

let test_supervise_success_first_try () =
  match Supervisor.supervise ~key:"k" (fun () -> 42) with
  | Supervisor.Done 42 -> ()
  | _ -> Alcotest.fail "expected Done 42"

(* A thunk that would succeed on a second call is still called once:
   the simulator is deterministic, so a rerun could only repeat a real
   failure. *)
let test_supervise_runs_once () =
  let calls = ref 0 in
  match
    Supervisor.supervise ~key:"k" (fun () ->
        incr calls;
        if !calls < 2 then failwith "flaky" else "ok")
  with
  | Supervisor.Quarantined q ->
    check_int "called once" 1 !calls;
    check_string "kind" "raise" q.Supervisor.kind;
    check_int "one attempt spent" 1 q.Supervisor.attempts;
    check_bool "detail carries the exception" true
      (String.length q.Supervisor.detail >= 5)
  | Supervisor.Done _ -> Alcotest.fail "expected quarantine"

let test_supervise_error_value_flows_through () =
  (* An Error *value* is a measurement result, not a crash. *)
  let calls = ref 0 in
  match
    Supervisor.supervise ~key:"k" (fun () ->
        incr calls;
        (Error "bad kernel" : (int, string) result))
  with
  | Supervisor.Done (Error "bad kernel") -> check_int "called once" 1 !calls
  | _ -> Alcotest.fail "expected the Error value"

let test_supervise_injected_raise () =
  let calls = ref 0 in
  match
    Supervisor.supervise ~fault:{ Fault.index = 0; kind = Fault.Raise }
      ~key:"k" (fun () ->
        incr calls;
        7)
  with
  | Supervisor.Quarantined q ->
    check_string "kind" "raise" q.Supervisor.kind;
    check_int "attempts" 1 q.Supervisor.attempts;
    check_int "the thunk never ran" 0 !calls
  | Supervisor.Done _ -> Alcotest.fail "expected quarantine"

let test_supervise_injected_timeout () =
  match
    Supervisor.supervise ~fault:{ Fault.index = 0; kind = Fault.Timeout }
      ~wall_budget_s:60. ~key:"k" (fun () -> 7)
  with
  | Supervisor.Quarantined q -> check_string "kind" "timeout" q.Supervisor.kind
  | Supervisor.Done _ -> Alcotest.fail "expected a timeout quarantine"

let test_supervise_wall_budget_post_hoc () =
  (* A real (not injected) over-budget attempt: the budget is checked
     after the attempt returns, so even a successful value is discarded
     as hung. *)
  match
    Supervisor.supervise ~wall_budget_s:1e-9 ~key:"k" (fun () ->
        Unix.sleepf 0.002)
  with
  | Supervisor.Quarantined q -> check_string "kind" "timeout" q.Supervisor.kind
  | Supervisor.Done _ -> Alcotest.fail "expected a timeout quarantine"

let test_quarantine_to_string () =
  let q = { Supervisor.kind = "raise"; detail = "boom"; attempts = 1 } in
  check_string "rendering" "quarantined (raise) after 1 attempt: boom"
    (Supervisor.quarantine_to_string q)

(* ------------------------------------------------------------------ *)
(* Journal                                                             *)
(* ------------------------------------------------------------------ *)

let temp_path () =
  Filename.temp_file "mt-journal-test" ".jsonl"

let test_journal_round_trip () =
  let path = temp_path () in
  let w = Journal.create path in
  Journal.record w ~key:"k1" ~id:"v1" ~data:"\x00binary\xffpayload";
  Journal.record w ~key:"k2" ~id:"v2" ~data:"";
  Journal.close w;
  (match Journal.load path with
  | Error msg -> Alcotest.fail msg
  | Ok entries ->
    check_int "two entries" 2 (List.length entries);
    (match Journal.find entries ~key:"k1" with
    | Some e ->
      check_string "id" "v1" e.Journal.id;
      check_string "binary data survives" "\x00binary\xffpayload" e.Journal.data
    | None -> Alcotest.fail "k1 missing"));
  Sys.remove path

let test_journal_last_record_wins () =
  let path = temp_path () in
  let w = Journal.create path in
  Journal.record w ~key:"k" ~id:"v" ~data:"old";
  Journal.record w ~key:"k" ~id:"v" ~data:"new";
  Journal.close w;
  (match Journal.load path with
  | Error msg -> Alcotest.fail msg
  | Ok entries -> (
    match Journal.find entries ~key:"k" with
    | Some e -> check_string "later record wins" "new" e.Journal.data
    | None -> Alcotest.fail "k missing"));
  Sys.remove path

let test_journal_torn_line_dropped () =
  let path = temp_path () in
  let w = Journal.create path in
  Journal.record w ~key:"k1" ~id:"v1" ~data:"whole";
  Journal.close w;
  (* Simulate a crash mid-write: a final line cut off in the middle. *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"key\": \"k2\", \"id\": \"v2\", \"da";
  close_out oc;
  (match Journal.load path with
  | Error msg -> Alcotest.fail msg
  | Ok entries ->
    check_int "torn line dropped" 1 (List.length entries);
    check_bool "whole line kept" true (Journal.find entries ~key:"k1" <> None));
  Sys.remove path

let test_journal_append_mode () =
  let path = temp_path () in
  let w = Journal.create path in
  Journal.record w ~key:"k1" ~id:"v1" ~data:"a";
  Journal.close w;
  let w = Journal.create ~append:true path in
  Journal.record w ~key:"k2" ~id:"v2" ~data:"b";
  Journal.close w;
  (match Journal.load path with
  | Error msg -> Alcotest.fail msg
  | Ok entries -> check_int "both survive" 2 (List.length entries));
  Sys.remove path

let test_journal_load_missing () =
  match Journal.load "/nonexistent/mt-journal.jsonl" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected an Error for a missing file"

(* Random journals for the loader's totality properties: keys, ids and
   payloads take any byte. *)
let arbitrary_records =
  let str n = QCheck.Gen.(string_size ~gen:char (0 -- n)) in
  QCheck.make
    ~print:QCheck.Print.(list (triple string string string))
    QCheck.Gen.(list_size (0 -- 8) (triple (str 8) (str 8) (str 24)))

let journal_text records =
  let path = temp_path () in
  let w = Journal.create path in
  List.iter (fun (key, id, data) -> Journal.record w ~key ~id ~data) records;
  Journal.close w;
  let text = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  text

let load_text text =
  let path = temp_path () in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> Journal.load path)

(* What a kill at any moment leaves: the records before the cut, and
   never a record that was not written. *)
let prop_journal_cut =
  QCheck.Test.make ~count:200
    ~name:"journal: a file cut at any byte loads a prefix of its records"
    QCheck.(pair arbitrary_records (float_bound_inclusive 1.))
    (fun (records, frac) ->
      let text = journal_text records in
      let cut = int_of_float (frac *. float_of_int (String.length text)) in
      match load_text (String.sub text 0 cut) with
      | Error _ -> false
      | Ok entries ->
        let n = List.length entries in
        List.map (fun e -> Journal.(e.key, e.id, e.data)) entries
        = List.filteri (fun i _ -> i < n) records)

let prop_journal_mutated =
  QCheck.Test.make ~count:200
    ~name:"journal: byte-mutated files load without raising"
    QCheck.(triple arbitrary_records (float_bound_exclusive 1.) char)
    (fun (records, frac, c) ->
      let text = journal_text records in
      let at = int_of_float (frac *. float_of_int (String.length text)) in
      let mutated = String.mapi (fun i x -> if i = at then c else x) text in
      match load_text mutated with Ok _ | Error _ -> true)

(* ------------------------------------------------------------------ *)
(* Study integration                                                   *)
(* ------------------------------------------------------------------ *)

let x5650 = Config.nehalem_x5650_2s

let quick_opts =
  {
    (Options.default x5650) with
    Options.array_bytes = 16 * 1024;
    repetitions = 1;
    experiments = 2;
  }

(* 2 + 4 + 8 = 14 variants: big enough to exercise sharding, small
   enough to stay quick. *)
let small_spec =
  Mt_kernels.Streams.loadstore_spec ~opcode:Mt_isa.Insn.MOVSS ~stride:4
    ~unroll:(1, 3) ()

let config_with ?cache ?(faults = []) ?journal_out ?resume_from () =
  {
    Microtools.Study.Run_config.default with
    Microtools.Study.Run_config.cache;
    faults;
    journal_out;
    resume_from;
  }

let test_study_fault_quarantines_not_aborts () =
  let study = Microtools.Study.create small_spec quick_opts in
  let n = List.length (Microtools.Study.variants study) in
  let config =
    config_with ~faults:[ { Fault.index = 0; kind = Fault.Raise } ] ()
  in
  let outcomes = Microtools.Study.run ~config study in
  check_int "every variant reports" n (List.length outcomes);
  let quarantined = Microtools.Study.quarantined outcomes in
  check_int "exactly one quarantine" 1 (List.length quarantined);
  check_int "siblings all succeed" (n - 1)
    (List.length (Microtools.Study.successes outcomes));
  (* The CSV carries the quarantine flag for exactly that variant. *)
  let csv = Mt_stats.Csv.to_string (Microtools.Study.csv outcomes) in
  check_bool "flag in CSV" true
    (let needle = "quarantined:raise" in
     let rec go i =
       i + String.length needle <= String.length csv
       && (String.sub csv i (String.length needle) = needle || go (i + 1))
     in
     go 0);
  (* ... and the snapshot lists it (schema 3). *)
  let snap = Microtools.Study.snapshot study outcomes in
  check_int "snapshot quarantined list" 1
    (List.length snap.Mt_obsv.Snapshot.quarantined)

let test_study_corrupt_cache_recovers () =
  let cache = Mt_parallel.Cache.create () in
  let study = Microtools.Study.create small_spec quick_opts in
  let n = List.length (Microtools.Study.variants study) in
  let config =
    config_with ~cache
      ~faults:[ { Fault.index = 0; kind = Fault.Corrupt_cache_entry } ]
      ()
  in
  let outcomes = Microtools.Study.run ~config study in
  check_int "all succeed despite the corrupt entry" n
    (List.length (Microtools.Study.successes outcomes));
  check_bool "decode failure was counted" true
    (Mt_parallel.Cache.decode_failures cache >= 1)

let baseline_csv study =
  Mt_stats.Csv.to_string
    (Microtools.Study.csv (Microtools.Study.run ~config:(config_with ()) study))

let test_study_journal_resume_byte_identical () =
  let study = Microtools.Study.create small_spec quick_opts in
  let baseline = baseline_csv study in
  let journal = temp_path () in
  (* First run: journal everything. *)
  let first =
    Microtools.Study.run ~config:(config_with ~journal_out:journal ()) study
  in
  check_int "fresh run resumes nothing" 0
    (Microtools.Study.resumed_count first);
  (* Simulate a crash: keep only the first half of the journal, plus a
     torn final line. *)
  let lines =
    let ic = open_in_bin journal in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    String.split_on_char '\n' text |> List.filter (fun l -> l <> "")
  in
  let keep = List.filteri (fun i _ -> i < List.length lines / 2) lines in
  let oc = open_out_bin journal in
  List.iter (fun l -> output_string oc (l ^ "\n")) keep;
  output_string oc "{\"key\": \"torn";
  close_out oc;
  (* Resume: only the missing variants are re-measured, the journal is
     extended in place, and the CSV is byte-identical. *)
  let resumed =
    Microtools.Study.run
      ~config:(config_with ~journal_out:journal ~resume_from:journal ())
      study
  in
  check_int "resumed exactly the surviving half" (List.length keep)
    (Microtools.Study.resumed_count resumed);
  check_string "resumed CSV is byte-identical" baseline
    (Mt_stats.Csv.to_string (Microtools.Study.csv resumed));
  (* The extended journal now covers the whole study: a second resume
     re-measures nothing. *)
  let again =
    Microtools.Study.run
      ~config:(config_with ~journal_out:journal ~resume_from:journal ())
      study
  in
  check_int "second resume replays everything"
    (List.length (Microtools.Study.variants study))
    (Microtools.Study.resumed_count again);
  check_string "still byte-identical" baseline
    (Mt_stats.Csv.to_string (Microtools.Study.csv again));
  Sys.remove journal

let test_study_quarantine_journals_and_resumes () =
  (* A quarantined variant is checkpointed too: the resumed run replays
     the quarantine verdict instead of re-measuring the poison pill. *)
  let study = Microtools.Study.create small_spec quick_opts in
  let journal = temp_path () in
  let faults = [ { Fault.index = 0; kind = Fault.Raise } ] in
  let first =
    Microtools.Study.run
      ~config:(config_with ~faults ~journal_out:journal ())
      study
  in
  let csv_first = Mt_stats.Csv.to_string (Microtools.Study.csv first) in
  (* Resume with the fault list cleared: index 0 must come back
     quarantined from the journal, not freshly measured. *)
  let resumed =
    Microtools.Study.run ~config:(config_with ~resume_from:journal ()) study
  in
  check_int "everything replayed"
    (List.length (Microtools.Study.variants study))
    (Microtools.Study.resumed_count resumed);
  check_string "quarantine verdict survives the journal" csv_first
    (Mt_stats.Csv.to_string (Microtools.Study.csv resumed));
  check_int "still one quarantine" 1
    (List.length (Microtools.Study.quarantined resumed));
  Sys.remove journal

(* Figure launches go through the stored run config like a study's, so
   a 10-instruction sim budget starves every launch of fig12. *)
let test_experiments_honour_sim_budget () =
  let config =
    {
      Microtools.Study.Run_config.default with
      Microtools.Study.Run_config.sim_budget = Some 10;
    }
  in
  Microtools.Experiments.set_run_config config;
  Fun.protect
    ~finally:(fun () ->
      Microtools.Experiments.set_run_config Microtools.Study.Run_config.default)
    (fun () ->
      match Microtools.Experiments.run_tables ~quick:true ~config [ "fig12" ] with
      | [ (_, Microtools.Experiments.Quarantined _) ] -> ()
      | _ -> Alcotest.fail "fig12 ran past a 10-instruction sim budget")

let tests =
  [
    Alcotest.test_case "fault spec parses" `Quick test_fault_spec_parse;
    Alcotest.test_case "fault spec round-trips" `Quick
      test_fault_spec_round_trip;
    Alcotest.test_case "supervise: first-try success" `Quick
      test_supervise_success_first_try;
    Alcotest.test_case "supervise: a flaky unit runs once" `Quick
      test_supervise_runs_once;
    Alcotest.test_case "supervise: Error value not retried" `Quick
      test_supervise_error_value_flows_through;
    Alcotest.test_case "supervise: injected raise quarantines" `Quick
      test_supervise_injected_raise;
    Alcotest.test_case "supervise: injected timeout" `Quick
      test_supervise_injected_timeout;
    Alcotest.test_case "supervise: wall budget post hoc" `Quick
      test_supervise_wall_budget_post_hoc;
    Alcotest.test_case "quarantine rendering" `Quick test_quarantine_to_string;
    Alcotest.test_case "journal round-trip" `Quick test_journal_round_trip;
    Alcotest.test_case "journal last record wins" `Quick
      test_journal_last_record_wins;
    Alcotest.test_case "journal drops torn final line" `Quick
      test_journal_torn_line_dropped;
    Alcotest.test_case "journal append mode" `Quick test_journal_append_mode;
    Alcotest.test_case "journal load missing file" `Quick
      test_journal_load_missing;
    QCheck_alcotest.to_alcotest prop_journal_cut;
    QCheck_alcotest.to_alcotest prop_journal_mutated;
    Alcotest.test_case "study: fault quarantines, not aborts" `Quick
      test_study_fault_quarantines_not_aborts;
    Alcotest.test_case "study: corrupt cache entry recovers" `Quick
      test_study_corrupt_cache_recovers;
    Alcotest.test_case "study: journal resume byte-identical" `Slow
      test_study_journal_resume_byte_identical;
    Alcotest.test_case "study: quarantine journals and resumes" `Quick
      test_study_quarantine_journals_and_resumes;
    Alcotest.test_case "experiments honour the sim budget" `Quick
      test_experiments_honour_sim_budget;
  ]

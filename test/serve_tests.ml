(* Tests for the mt_serve stack: wire-protocol codecs (with QCheck
   round-trip and totality properties, and a request line from a client
   that still sends retry settings), the bounded job queue's typed
   back-pressure, and an in-process daemon end to end — including the
   byte-identity guarantee between a streamed CSV and the one-shot
   Study.csv document. *)

open Mt_serve

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Protocol round-trips                                                *)
(* ------------------------------------------------------------------ *)

let fault spec =
  match Mt_resilience.Fault.of_spec spec with
  | Ok f -> f
  | Error msg -> Alcotest.failf "bad fault spec %s: %s" spec msg

let full_submission =
  {
    Protocol.kernel_xml = "<kernel name=\"k\">\n  \"quoted\" & <tags>\n</kernel>";
    machine = Protocol.Inline_xml "<machine>\r\n</machine>";
    array_kb = 48;
    per = "element";
    repetitions = 3;
    experiments = 7;
    run =
      {
        Protocol.seed = Some 42;
        adaptive = Some (0.05, 32);
        wall_budget_s = Some 1.5;
        sim_budget = Some 100_000;
        faults = [ fault "variant=2:raise"; fault "variant=5:timeout" ];
        profile = true;
      };
  }

let roundtrip_request req =
  match Protocol.request_of_json (Protocol.request_to_json req) with
  | Ok r -> r
  | Error msg -> Alcotest.failf "request did not decode: %s" msg

let roundtrip_response resp =
  match Protocol.response_of_json (Protocol.response_to_json resp) with
  | Ok r -> r
  | Error msg -> Alcotest.failf "response did not decode: %s" msg

let test_request_roundtrip () =
  List.iter
    (fun req -> check_bool "request survives" true (roundtrip_request req = req))
    [
      Protocol.Submit full_submission;
      Protocol.Submit
        {
          full_submission with
          Protocol.machine = Protocol.Preset "nehalem_x5650_2s";
          run = Protocol.default_run_options;
        };
      Protocol.Ping;
      Protocol.Stats;
      Protocol.Metrics Protocol.Metrics_json;
      Protocol.Metrics Protocol.Metrics_prometheus;
      Protocol.Shutdown;
    ]

let test_response_roundtrip () =
  List.iter
    (fun resp ->
      check_bool "response survives" true (roundtrip_response resp = resp))
    [
      Protocol.Accepted { job = 7; queue_depth = 3 };
      Protocol.Rejected Protocol.Queue_full;
      Protocol.Rejected (Protocol.Bad_request "unknown machine \"zen9\"");
      Protocol.Header [ "variant"; "value"; "unit" ];
      Protocol.Row [ "movss_u2"; "1.125"; "cy/elem" ];
      Protocol.Row [ "has,comma"; "has\"quote"; "has\nnewline" ];
      Protocol.Snapshot
        (Mt_obsv.Json.Obj
           [ ("tool", Mt_obsv.Json.Str "mt_serve"); ("n", Mt_obsv.Json.Num 3.) ]);
      Protocol.Done { job = 7; quarantined = 1; cache_hit_rate = 0.5 };
      Protocol.Failed { job = 8; message = "simulator exploded" };
      Protocol.Pong;
      Protocol.Stats_reply [ ("serve.queue.depth", 2); ("cache.evictions", 0) ];
      Protocol.Metrics_reply
        {
          Protocol.m_counters = [ ("serve.jobs.completed", 5) ];
          m_gauges = [ ("serve.uptime.s", 12.5) ];
          m_summaries =
            [
              ( "serve.job.exec.us",
                {
                  Protocol.m_count = 5;
                  m_sum = 1250.;
                  m_quantiles = [ (0.5, 200.); (0.9, 400.); (0.99, 450.) ];
                } );
            ];
        };
      Protocol.Metrics_text
        "# TYPE serve_jobs_completed counter\nserve_jobs_completed 5\n";
      Protocol.Bye;
    ]

(* The exposition renderer: names sanitised, summaries expanded to
   quantile samples plus _sum/_count — what a scrape sees. *)
let test_prometheus_rendering () =
  let text =
    Protocol.prometheus_of_metrics
      {
        Protocol.m_counters = [ ("serve.jobs.completed", 5) ];
        m_gauges = [ ("serve.uptime.s", 12.5) ];
        m_summaries =
          [
            ( "serve.job.exec.us",
              {
                Protocol.m_count = 5;
                m_sum = 1250.;
                m_quantiles = [ (0.5, 200.) ];
              } );
          ];
      }
  in
  let contains needle =
    let n = String.length needle and h = String.length text in
    let rec go i = i + n <= h && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "counter sample" true (contains "serve_jobs_completed 5\n");
  check_bool "counter type line" true
    (contains "# TYPE serve_jobs_completed counter\n");
  check_bool "gauge sample" true (contains "serve_uptime_s 12.5\n");
  check_bool "summary quantile" true
    (contains "serve_job_exec_us{quantile=\"0.5\"} 200\n");
  check_bool "summary sum" true (contains "serve_job_exec_us_sum 1250\n");
  check_bool "summary count" true (contains "serve_job_exec_us_count 5\n")

(* The serializable slice survives Run_config -> wire -> Run_config:
   projecting the overlaid config again yields the same wire options. *)
let test_run_options_config_fidelity () =
  let config =
    Microtools.Study.Run_config.make ~seed:42 ~adaptive:(0.05, 32)
      ~wall_budget_s:1.5 ~sim_budget:100_000
      ~faults:[ fault "variant=2:raise" ] ()
  in
  let wire = Protocol.run_options_of_config config in
  let rebuilt =
    Protocol.config_into_base wire Microtools.Study.Run_config.default
  in
  check_bool "projection is a fixpoint" true
    (Protocol.run_options_of_config rebuilt = wire);
  (* The daemon-side fields stay the base's, not the client's. *)
  check_int "domains stay base" 1
    rebuilt.Microtools.Study.Run_config.domains;
  check_bool "no journal leaks over the wire" true
    (rebuilt.Microtools.Study.Run_config.journal_out = None)

let test_framing_one_line_per_message () =
  let buf = Buffer.create 256 in
  let text =
    Protocol.request_to_json (Protocol.Submit full_submission)
    |> Mt_obsv.Json.to_string
  in
  Buffer.add_string buf text;
  (* Kernel XML with raw newlines/CRs must not break line framing. *)
  check_bool "encoded message has no raw newline" true
    (not (String.exists (fun c -> c = '\n' || c = '\r') (Buffer.contents buf)))

(* Random requests for the codec's round-trip and totality properties.
   Strings take any byte; numbers stay within what JSON carries exactly,
   and budgets and RCIW targets are positive, as the decoder requires. *)
let gen_request =
  let open QCheck.Gen in
  let str = string_size ~gen:char (0 -- 16) in
  let small = 0 -- 100_000 in
  let fault =
    map2
      (fun index kind -> { Mt_resilience.Fault.index; kind })
      small
      (oneofl Mt_resilience.Fault.[ Raise; Timeout; Corrupt_cache_entry ])
  in
  let run =
    map
      (fun ((seed, adaptive, wall_budget_s, sim_budget), (faults, profile)) ->
        { Protocol.seed; adaptive; wall_budget_s; sim_budget; faults; profile })
      (pair
         (quad
            (opt (int_range (-1_000_000) 1_000_000))
            (opt (pair (float_range 1e-6 1.) small))
            (opt (float_range 1e-6 1e6))
            (opt (1 -- 1_000_000_000)))
         (pair (list_size (0 -- 4) fault) bool))
  in
  let machine =
    oneof
      [
        map (fun s -> Protocol.Preset s) str;
        map (fun s -> Protocol.Inline_xml s) str;
      ]
  in
  let submission =
    map
      (fun ((kernel_xml, machine, array_kb, per), (repetitions, experiments, run)) ->
        {
          Protocol.kernel_xml;
          machine;
          array_kb;
          per;
          repetitions;
          experiments;
          run;
        })
      (pair (quad str machine small str) (triple small small run))
  in
  oneof
    [
      map (fun s -> Protocol.Submit s) submission;
      oneofl
        Protocol.
          [
            Ping;
            Stats;
            Metrics Metrics_json;
            Metrics Metrics_prometheus;
            Shutdown;
          ];
    ]

let request_line r = Mt_obsv.Json.to_string (Protocol.request_to_json r)

let arbitrary_request = QCheck.make ~print:request_line gen_request

let prop_request_round_trip =
  QCheck.Test.make ~count:300 ~name:"request: of_json (to_json r) = r"
    arbitrary_request (fun r ->
      Protocol.request_of_json (Protocol.request_to_json r) = Ok r)

(* [Protocol.read_request] on these bytes, as the daemon reads a peer. *)
let read_request_of text =
  let path = Filename.temp_file "mt-request" ".jsonl" in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () -> In_channel.with_open_bin path Protocol.read_request)

(* A request line is one JSON object, so every prefix that loses the
   closing brace is malformed; a mutated byte may leave a valid
   request, but never makes the reader raise. *)
let prop_request_lines_total =
  QCheck.Test.make ~count:300
    ~name:"request lines: truncated are errors, mutated never raise"
    QCheck.(
      quad arbitrary_request (float_bound_inclusive 1.)
        (float_bound_exclusive 1.) char)
    (fun (r, cut, at, c) ->
      let line = request_line r ^ "\n" in
      let n = String.length line in
      let cut = int_of_float (cut *. float_of_int n) in
      let at = int_of_float (at *. float_of_int n) in
      let mutated = String.mapi (fun i x -> if i = at then c else x) line in
      (match read_request_of (String.sub line 0 cut) with
      | None -> cut = 0
      | Some (Error _) -> 0 < cut && cut < n - 1
      | Some (Ok r') -> cut >= n - 1 && r' = r)
      &&
      match read_request_of mutated with
      | None | Some (Ok _) | Some (Error _) -> true)

(* A request line written by a client from before retries were
   removed: [request_to_json] of [small_submission] below, with
   retries = 1000000, backoff_base_s = backoff_max_s = 1e6 and the fault
   variant=0:raise.  A daemon that retried parked its worker in a
   1e6 s sleep on it. *)
let old_client_line =
  lazy
    (In_channel.with_open_bin "serve-submit-retries.json" In_channel.input_all)

(* ------------------------------------------------------------------ *)
(* Jobq back-pressure                                                  *)
(* ------------------------------------------------------------------ *)

let reject_testable =
  Alcotest.testable
    (fun ppf -> function
      | `Queue_full -> Format.pp_print_string ppf "`Queue_full"
      | `Closed -> Format.pp_print_string ppf "`Closed")
    ( = )

let test_jobq_backpressure () =
  let q = Jobq.create ~capacity:2 in
  check_int "capacity" 2 (Jobq.capacity q);
  Alcotest.(check (result unit reject_testable)) "first" (Ok ()) (Jobq.push q 1);
  Alcotest.(check (result unit reject_testable)) "second" (Ok ()) (Jobq.push q 2);
  Alcotest.(check (result unit reject_testable))
    "full queue is a typed rejection" (Error `Queue_full) (Jobq.push q 3);
  check_int "depth" 2 (Jobq.depth q);
  check_bool "fifo pop" true (Jobq.pop q = Some 1);
  Alcotest.(check (result unit reject_testable))
    "slot freed" (Ok ()) (Jobq.push q 3);
  Jobq.close q;
  Alcotest.(check (result unit reject_testable))
    "closed queue rejects" (Error `Closed) (Jobq.push q 4);
  check_bool "drains after close" true (Jobq.pop q = Some 2);
  check_bool "drains after close" true (Jobq.pop q = Some 3);
  check_bool "empty + closed ends" true (Jobq.pop q = None)

let test_jobq_blocking_pop () =
  let q = Jobq.create ~capacity:1 in
  let got = ref None in
  let consumer = Thread.create (fun () -> got := Jobq.pop q) () in
  Thread.delay 0.05;
  Alcotest.(check (result unit reject_testable))
    "push wakes consumer" (Ok ()) (Jobq.push q 42);
  Thread.join consumer;
  check_bool "consumer got the job" true (!got = Some 42)

(* ------------------------------------------------------------------ *)
(* End-to-end: in-process daemon                                       *)
(* ------------------------------------------------------------------ *)

let small_spec =
  Mt_kernels.Streams.loadstore_spec ~opcode:Mt_isa.Insn.MOVSS ~stride:4
    ~unroll:(1, 3) ()

let small_submission =
  {
    Protocol.kernel_xml = Mt_kernels.Streams.description_xml small_spec;
    machine = Protocol.Preset "nehalem_x5650_2s";
    array_kb = 16;
    per = "element";
    repetitions = 1;
    experiments = 2;
    run = Protocol.default_run_options;
  }

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

(* Unix-domain socket paths are length-limited (~108 bytes), so keep
   them directly under the system temp dir. *)
let temp_socket () =
  let path = Filename.temp_file "mtserve" ".sock" in
  Sys.remove path;
  path

let with_daemon ?(workers = 2) ?(queue = 8) ?state_dir ?history_dir
    ?(log_json = false) f =
  let socket = temp_socket () in
  let cache_dir = temp_dir "mtservecache" in
  let cache = Mt_parallel.Cache.create ~dir:cache_dir () in
  let base = Microtools.Study.Run_config.make ~cache () in
  let config =
    {
      Daemon.socket_path = socket;
      queue_capacity = queue;
      workers;
      state_dir;
      history_dir;
      log_json;
      base;
    }
  in
  let daemon = Daemon.create config in
  let server = Thread.create (fun () -> Daemon.serve daemon) () in
  let stop () =
    (match Client.shutdown ~socket with _ -> ());
    Daemon.stop daemon
  in
  match f ~socket ~daemon with
  | result ->
    stop ();
    Thread.join server;
    if Sys.file_exists socket then Sys.remove socket;
    result
  | exception e ->
    (* A failed test may leave a job running: waiting for the daemon to
       drain would hang the suite instead of failing it. *)
    stop ();
    raise e

(* [small_submission] as a local study. *)
let small_study () =
  let opts =
    {
      (Mt_launcher.Options.default Mt_machine.Config.nehalem_x5650_2s) with
      Mt_launcher.Options.array_bytes = 16 * 1024;
      per = Mt_launcher.Options.Per_element;
      repetitions = 1;
      experiments = 2;
    }
  in
  match
    Microtools.Study.of_description small_submission.Protocol.kernel_xml opts
  with
  | Error msg -> Alcotest.failf "one-shot study: %s" msg
  | Ok study -> study

let one_shot_csv_text ?config () =
  let outcomes = Microtools.Study.run ?config (small_study ()) in
  Mt_stats.Csv.to_string (Microtools.Study.csv outcomes)

let test_daemon_end_to_end () =
  with_daemon (fun ~socket ~daemon:_ ->
      (match Client.ping ~socket with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "ping: %s" msg);
      match Client.submit ~socket small_submission with
      | Error msg -> Alcotest.failf "submit: %s" msg
      | Ok summary ->
        check_int "no quarantine" 0 summary.Client.quarantined;
        check_bool "snapshot streamed" true (summary.Client.snapshot <> None);
        (match summary.Client.csv with
        | None -> Alcotest.fail "no CSV streamed"
        | Some doc ->
          check_int "one row per variant" 14 (Mt_stats.Csv.row_count doc);
          check_string "streamed CSV is byte-identical to one-shot"
            (one_shot_csv_text ())
            (Mt_stats.Csv.to_string doc));
        (* Same study again: every variant must now come from the shared
           cache. *)
        (match Client.submit ~socket small_submission with
        | Error msg -> Alcotest.failf "resubmit: %s" msg
        | Ok again ->
          check_string "repeat run streams identical bytes"
            (one_shot_csv_text ())
            (Mt_stats.Csv.to_string (Option.get again.Client.csv));
          check_bool "repeat run hits the shared cache" true
            (again.Client.cache_hit_rate > 0.));
        match Client.stats ~socket with
        | Error msg -> Alcotest.failf "stats: %s" msg
        | Ok counters ->
          let get k =
            match List.assoc_opt k counters with
            | Some v -> v
            | None -> Alcotest.failf "missing counter %s" k
          in
          check_int "both jobs completed" 2 (get "serve.jobs.completed");
          check_int "no failures" 0 (get "serve.jobs.failed");
          check_bool "cache served repeats" true (get "cache.hits" > 0))

let test_daemon_concurrent_clients () =
  with_daemon ~workers:2 (fun ~socket ~daemon:_ ->
      let expected = one_shot_csv_text () in
      let results = Array.make 4 (Error "never ran") in
      let clients =
        Array.init 4 (fun i ->
            Thread.create
              (fun () -> results.(i) <- Client.submit ~socket small_submission)
              ())
      in
      Array.iter Thread.join clients;
      Array.iteri
        (fun i result ->
          match result with
          | Error msg -> Alcotest.failf "client %d: %s" i msg
          | Ok summary ->
            check_string
              (Printf.sprintf "client %d CSV byte-identical" i)
              expected
              (Mt_stats.Csv.to_string (Option.get summary.Client.csv)))
        results)

(* ------------------------------------------------------------------ *)
(* Kept studies                                                        *)
(* ------------------------------------------------------------------ *)

let stat daemon key =
  match List.assoc_opt key (Daemon.stats daemon) with
  | Some v -> v
  | None -> Alcotest.failf "missing counter %s" key

(* The snapshot members a run's options decide: the options block and
   every variant's statistics (their bootstrap draws from the seed). *)
let measured_members snapshot =
  List.map
    (fun key -> Option.map Mt_obsv.Json.to_string (Mt_obsv.Json.member key snapshot))
    [ "options"; "variants" ]

let local_members config =
  let study = small_study () in
  let outcomes = Microtools.Study.run ~config study in
  measured_members
    (Mt_obsv.Snapshot.to_json (Microtools.Study.snapshot ~config study outcomes))

(* A resubmission runs the study its first submission built, under its
   own run options: the seed still reaches every variant. *)
let test_daemon_reuses_studies () =
  with_daemon (fun ~socket ~daemon ->
      let submit run =
        match Client.submit ~socket { small_submission with Protocol.run } with
        | Error msg -> Alcotest.failf "submit: %s" msg
        | Ok { Client.csv = Some csv; snapshot = Some snapshot; _ } ->
          (Mt_stats.Csv.to_string csv, measured_members snapshot)
        | Ok _ -> Alcotest.fail "no CSV or snapshot streamed"
      in
      let first, first_members = submit Protocol.default_run_options in
      check_string "identical submissions stream identical bytes" first
        (fst (submit Protocol.default_run_options));
      check_int "built once" 1 (stat daemon "serve.studies.built");
      check_int "reused once" 1 (stat daemon "serve.studies.reused");
      let seed = Microtools.Study.Run_config.make ~seed:7 () in
      let seeded, seeded_members =
        submit { Protocol.default_run_options with seed = Some 7 }
      in
      check_string "a reused study under another seed: the local CSV"
        (one_shot_csv_text ~config:seed ()) seeded;
      check_bool "... and the local snapshot" true
        (seeded_members = local_members seed);
      check_bool "the seed reaches the snapshot" true
        (seeded_members <> first_members);
      check_int "still built once" 1 (stat daemon "serve.studies.built");
      check_int "reused twice" 2 (stat daemon "serve.studies.reused");
      check_int "its variants are kept" 14
        (stat daemon "serve.studies.kept_variants");
      match Client.metrics ~socket with
      | Error msg -> Alcotest.failf "metrics: %s" msg
      | Ok m ->
        check_bool "metrics carry the study counters" true
          (List.assoc_opt "serve.studies.built" m.Protocol.m_counters = Some 1
          && List.assoc_opt "serve.studies.reused" m.Protocol.m_counters = Some 2))

(* More distinct studies than the bound holds: each one that would pass
   it empties the table first.  Every variant raises before the
   launcher, so a job costs generation and printing only. *)
let test_daemon_bounds_kept_studies () =
  let kernel_xml =
    Profile_tests.read_file
      (Filename.concat Profile_tests.corpus_dir "loadstore.xml")
  in
  let n =
    match
      Microtools.Study.of_description kernel_xml
        (Mt_launcher.Options.default Mt_machine.Config.nehalem_x5650_2s)
    with
    | Ok study -> List.length (Microtools.Study.variants study)
    | Error msg -> Alcotest.failf "loadstore: %s" msg
  in
  let faults =
    List.init n (fun index ->
        { Mt_resilience.Fault.index; kind = Mt_resilience.Fault.Raise })
  in
  with_daemon ~workers:1 (fun ~socket ~daemon ->
      let kept () = stat daemon "serve.studies.kept_variants" in
      let submit array_kb =
        match
          Client.submit ~socket
            {
              small_submission with
              Protocol.kernel_xml;
              array_kb;
              run = { Protocol.default_run_options with faults };
            }
        with
        | Ok summary ->
          check_int "every variant quarantined" n summary.Client.quarantined
        | Error msg -> Alcotest.failf "submit: %s" msg
      in
      let studies = (Daemon.max_kept_variants / n) + 1 in
      for array_kb = 1 to studies do
        submit array_kb;
        check_bool
          (Printf.sprintf "kept variants within the bound after %d studies" array_kb)
          true
          (kept () <= Daemon.max_kept_variants)
      done;
      check_int "the last study emptied the table" n (kept ());
      submit studies;
      submit 1;
      check_int "built" (studies + 1) (stat daemon "serve.studies.built");
      check_int "reused" 1 (stat daemon "serve.studies.reused"))

(* A job whose run raises (here: its crash journal cannot be created)
   leaves nothing behind, though its study was generated. *)
let test_daemon_drops_failed_studies () =
  let state_dir = temp_dir "mtservestate" in
  with_daemon ~state_dir (fun ~socket ~daemon ->
      Unix.rmdir state_dir;
      let failed () =
        match Client.submit ~socket small_submission with
        | Ok _ -> Alcotest.fail "the job should fail without its state dir"
        | Error _ -> ()
      in
      failed ();
      check_int "failed" 1 (stat daemon "serve.jobs.failed");
      check_int "not kept" 0 (stat daemon "serve.studies.kept_variants");
      failed ();
      check_int "built again" 2 (stat daemon "serve.studies.built");
      check_int "never reused" 0 (stat daemon "serve.studies.reused"))

(* Warm jobs stream within microseconds of being queued: each client
   must still read [Accepted] first and only whole, decodable lines
   ([Client.submit] fails on a line it cannot decode). *)
let test_daemon_accepted_first () =
  with_daemon ~workers:2 (fun ~socket ~daemon:_ ->
      (match Client.submit ~socket small_submission with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "warm-up: %s" msg);
      for round = 1 to 10 do
        let first = Array.make 2 None in
        let results = Array.make 2 (Error "never ran") in
        let clients =
          Array.init 2 (fun i ->
              Thread.create
                (fun () ->
                  results.(i) <-
                    Client.submit ~socket
                      ~on_response:(fun r ->
                        if first.(i) = None then first.(i) <- Some r)
                      small_submission)
                ())
        in
        Array.iter Thread.join clients;
        Array.iteri
          (fun i result ->
            match result, first.(i) with
            | Error msg, _ -> Alcotest.failf "round %d client %d: %s" round i msg
            | Ok _, Some (Protocol.Accepted _) -> ()
            | Ok _, _ ->
              Alcotest.failf "round %d client %d: first response not accepted"
                round i)
          results
      done)

(* A client that hangs up right after submitting: the daemon's writes
   to its socket fail, and must not take the daemon down.  With one
   worker the follow-up job runs only after the abandoned one. *)
let test_daemon_survives_hung_up_client () =
  with_daemon ~workers:1 (fun ~socket ~daemon:_ ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX socket);
      let oc = Unix.out_channel_of_descr fd in
      Protocol.send_request oc (Protocol.Submit small_submission);
      close_out oc;
      (match Client.submit ~socket small_submission with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "next job: %s" msg);
      match Client.ping ~socket with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "ping: %s" msg)

let test_daemon_bad_request () =
  with_daemon (fun ~socket ~daemon:_ ->
      let bad =
        { small_submission with Protocol.machine = Protocol.Preset "zen9" }
      in
      match Client.submit ~socket bad with
      | Ok _ -> Alcotest.fail "unknown machine was accepted"
      | Error msg ->
        let contains needle hay =
          let n = String.length needle and h = String.length hay in
          let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
          go 0
        in
        check_bool "typed bad-request names the machine" true
          (contains "zen9" msg))

let string_contains needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* The metrics endpoint end to end, with a live telemetry handle so
   the job-latency histograms actually record (a daemon always enables
   one; the test runner's default is disabled, so install and restore). *)
let test_daemon_metrics_endpoint () =
  let prev = Mt_telemetry.global () in
  Mt_telemetry.set_global (Mt_telemetry.create ());
  Fun.protect
    ~finally:(fun () -> Mt_telemetry.set_global prev)
    (fun () ->
      with_daemon (fun ~socket ~daemon:_ ->
          (match Client.submit ~socket small_submission with
          | Error msg -> Alcotest.failf "submit: %s" msg
          | Ok _ -> ());
          (match Client.metrics ~socket with
          | Error msg -> Alcotest.failf "metrics: %s" msg
          | Ok m ->
            check_int "completed counter" 1
              (List.assoc "serve.jobs.completed" m.Protocol.m_counters);
            check_bool "uptime gauge present" true
              (List.mem_assoc "serve.uptime.s" m.Protocol.m_gauges);
            (match List.assoc_opt "serve.job.exec.us" m.Protocol.m_summaries with
            | None -> Alcotest.fail "no exec-latency summary"
            | Some s ->
              check_int "one observation" 1 s.Protocol.m_count;
              check_bool "p50 present" true
                (List.mem_assoc 0.5 s.Protocol.m_quantiles)));
          (match Client.stats ~socket with
          | Error msg -> Alcotest.failf "stats: %s" msg
          | Ok counters ->
            check_bool "stats carries p50 exec latency" true
              (List.mem_assoc "serve.job.exec.us.p50" counters);
            check_bool "stats carries uptime" true
              (List.mem_assoc "serve.uptime.s" counters));
          match Client.metrics_text ~socket with
          | Error msg -> Alcotest.failf "metrics text: %s" msg
          | Ok text ->
            check_bool "exposition has jobs-completed counter" true
              (string_contains "serve_jobs_completed 1\n" text);
            check_bool "exposition has exec-latency summary" true
              (string_contains "# TYPE serve_job_exec_us summary" text)))

(* A request line with no newline must not grow the daemon's buffer
   without bound: past [Protocol.max_request_bytes] it is refused, and
   the daemon serves other clients meanwhile.  Refused and undecodable
   lines both count as bad requests. *)
let test_daemon_bounds_request_line () =
  let prev = Mt_telemetry.global () in
  Mt_telemetry.set_global (Mt_telemetry.create ());
  let rejection fd =
    let ic = Unix.in_channel_of_descr fd in
    match Protocol.read_response ic with
    | Some (Ok (Protocol.Rejected (Protocol.Bad_request msg))) -> msg
    | Some (Ok _) -> Alcotest.fail "expected a bad-request rejection"
    | Some (Error msg) -> Alcotest.failf "undecodable reply: %s" msg
    | None -> Alcotest.fail "closed without a reply"
    | exception (Sys_blocked_io | Sys_error _) -> Alcotest.fail "no reply in 10 s"
  in
  let connect socket =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX socket);
    (* A reply that never comes fails the test instead of hanging it. *)
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
    fd
  in
  let send fd text = ignore (Unix.write_substring fd text 0 (String.length text)) in
  Fun.protect
    ~finally:(fun () -> Mt_telemetry.set_global prev)
    (fun () ->
      with_daemon (fun ~socket ~daemon:_ ->
          let fd = connect socket in
          let half = Protocol.max_request_bytes / 2 in
          send fd (String.make half 'x');
          (match Client.submit ~socket small_submission with
          | Ok _ -> ()
          | Error msg -> Alcotest.failf "valid client: %s" msg);
          send fd (String.make (Protocol.max_request_bytes - half + 1) 'x');
          check_bool "the over-long line is refused" true
            (string_contains "exceeds" (rejection fd));
          Unix.close fd;
          let fd = connect socket in
          send fd "not json\n";
          ignore (rejection fd);
          Unix.close fd;
          check_int "both counted as bad requests" 2
            (Mt_telemetry.counter (Mt_telemetry.global ())
               "serve.rejected.bad_request")))

(* A daemon writing no trace file (here [mt_serve --metrics-out FILE])
   must hold a bounded amount of telemetry: as many span events after
   10 warm jobs as after 2. *)
let test_daemon_span_events_bounded () =
  let prev = Mt_telemetry.global () in
  let tel =
    Mt_cli.setup (Microtools.Study.Run_config.make ~metrics_out:"metrics.csv" ())
  in
  Fun.protect
    ~finally:(fun () -> Mt_telemetry.set_global prev)
    (fun () ->
      with_daemon ~workers:1 (fun ~socket ~daemon:_ ->
          let submit () =
            match Client.submit ~socket small_submission with
            | Ok _ -> ()
            | Error msg -> Alcotest.failf "submit: %s" msg
          in
          (* The first job fills the cache; the rest are warm. *)
          submit ();
          submit ();
          submit ();
          let after_two = List.length (Mt_telemetry.events tel) in
          for _ = 1 to 8 do
            submit ()
          done;
          check_int "events after 10 warm jobs" after_two
            (List.length (Mt_telemetry.events tel))))

(* --history-dir: every completed job lands in the archive, in order. *)
let test_daemon_history_archive () =
  let dir = temp_dir "mtservehist" in
  with_daemon ~history_dir:dir (fun ~socket ~daemon:_ ->
      List.iter
        (fun _ ->
          match Client.submit ~socket small_submission with
          | Error msg -> Alcotest.failf "submit: %s" msg
          | Ok _ -> ())
        [ (); () ];
      match Mt_obsv.History.load dir with
      | Error msg -> Alcotest.failf "history load: %s" msg
      | Ok hist ->
        check_int "two archived runs" 2 (Mt_obsv.History.length hist);
        let entries = Mt_obsv.History.entries hist in
        check_bool "sequence numbers ascend from 1" true
          (List.map (fun e -> e.Mt_obsv.History.seq) entries = [ 1; 2 ]);
        List.iter
          (fun e ->
            match Mt_obsv.History.snapshot hist e with
            | Error msg -> Alcotest.failf "archived snapshot: %s" msg
            | Ok snap ->
              check_string "archived by the daemon" "mt_serve"
                snap.Mt_obsv.Snapshot.tool)
          entries)

(* ------------------------------------------------------------------ *)
(* Raw request lines, against a deadline                               *)
(* ------------------------------------------------------------------ *)

let replace_once ~needle ~by hay =
  let n = String.length needle in
  let rec find i =
    if i + n > String.length hay then Alcotest.failf "no %s in %s" needle hay
    else if String.sub hay i n = needle then i
    else find (i + 1)
  in
  let at = find 0 in
  String.sub hay 0 at ^ by
  ^ String.sub hay (at + n) (String.length hay - at - n)

(* One raw request line on a fresh connection.  Every read must end by
   [deadline] (Unix time): a daemon that never answers fails the test
   instead of hanging it. *)
let send_line socket line =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  ignore (Unix.write_substring fd line 0 (String.length line));
  (fd, Unix.in_channel_of_descr fd)

let next_response ~deadline (fd, ic) =
  let left = deadline -. Unix.gettimeofday () in
  if left <= 0. then Alcotest.fail "deadline hit";
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO left;
  match Protocol.read_response ic with
  | Some (Ok r) -> Some r
  | Some (Error msg) -> Alcotest.failf "undecodable reply: %s" msg
  | None -> None
  | exception (Sys_blocked_io | Sys_error _) -> Alcotest.fail "deadline hit"

(* Every remaining reply, until the daemon closes the connection. *)
let responses ~deadline ((_, ic) as conn) =
  let rec go acc =
    match next_response ~deadline conn with
    | Some r -> go (r :: acc)
    | None ->
      close_in_noerr ic;
      List.rev acc
  in
  go []

let bad_request ~socket line =
  let deadline = Unix.gettimeofday () +. 10. in
  match responses ~deadline (send_line socket line) with
  | [ Protocol.Rejected (Protocol.Bad_request msg) ] -> msg
  | _ -> Alcotest.failf "expected a bad-request rejection of %s" line

let streamed_csv rs =
  match
    List.filter_map (function Protocol.Header h -> Some h | _ -> None) rs
  with
  | [ header ] ->
    let doc = Mt_stats.Csv.create ~header in
    List.iter
      (function Protocol.Row r -> Mt_stats.Csv.add_row doc r | _ -> ())
      rs;
    Mt_stats.Csv.to_string doc
  | _ -> Alcotest.fail "expected one CSV header"

(* A client from before retries were removed still sends [retries] and
   [backoff_*]: its request decodes with those members ignored, and an
   attempt-limited fault spec (@N) is a bad request, not an exception. *)
let test_old_client_request () =
  let line = Lazy.force old_client_line in
  (match Result.bind (Mt_obsv.Json.of_string line) Protocol.request_of_json with
  | Error msg -> Alcotest.failf "old client's request: %s" msg
  | Ok r ->
    check_bool "decodes with the retry members ignored" true
      (r
      = Protocol.Submit
          {
            small_submission with
            Protocol.run =
              {
                Protocol.default_run_options with
                faults = [ fault "variant=0:raise" ];
              };
          }));
  with_daemon (fun ~socket ~daemon:_ ->
      let line =
        replace_once ~needle:"variant=0:raise" ~by:"variant=2:raise@1" line
      in
      check_bool "the @N spec is refused" true
        (string_contains "raise@1" (bad_request ~socket line)))

(* The daemon must survive any input.  The old client's request asks
   for a million retries 1e6 s apart on a variant that always raises;
   its job runs each variant once and ends with that one quarantined,
   and the job queued behind it on the one worker completes. *)
let test_daemon_runs_faulted_job_once () =
  let deadline = Unix.gettimeofday () +. 20. in
  with_daemon ~workers:1 (fun ~socket ~daemon:_ ->
      let faulted = send_line socket (Lazy.force old_client_line) in
      (match next_response ~deadline faulted with
      | Some (Protocol.Accepted _) -> ()
      | _ -> Alcotest.fail "the old client's request was not accepted");
      let queued =
        send_line socket
          (request_line (Protocol.Submit small_submission) ^ "\n")
      in
      let streamed = responses ~deadline faulted in
      (match List.rev streamed with
      | Protocol.Done { quarantined; _ } :: _ ->
        check_int "one variant quarantined" 1 quarantined
      | _ -> Alcotest.fail "the faulted job did not end done");
      let config =
        Microtools.Study.Run_config.make ~faults:[ fault "variant=0:raise" ] ()
      in
      check_string "streamed CSV equals the local run's"
        (one_shot_csv_text ~config ()) (streamed_csv streamed);
      match List.rev (responses ~deadline queued) with
      | Protocol.Done { quarantined = 0; _ } :: _ -> ()
      | _ -> Alcotest.fail "the job queued behind it did not complete")

(* A budget no run can meet is refused before it takes a queue slot;
   1e999 reads as infinity. *)
let test_daemon_refuses_budget member values () =
  with_daemon (fun ~socket ~daemon:_ ->
      let line = request_line (Protocol.Submit small_submission) ^ "\n" in
      let null = Printf.sprintf "\"%s\":null" member in
      List.iter
        (fun value ->
          let by = Printf.sprintf "\"%s\":%s" member value in
          let bad = replace_once ~needle:null ~by line in
          check_bool
            (Printf.sprintf "%s = %s is refused by name" member value)
            true
            (string_contains member (bad_request ~socket bad)))
        values)

(* An RCIW target that is not positive and finite would fail every
   variant or never stop early; the decoder refuses it by name.  NaN
   travels as null, which is no number either. *)
let test_rciw_target_refused () =
  List.iter
    (fun target ->
      let run =
        { Protocol.default_run_options with adaptive = Some (target, 8) }
      in
      match
        Protocol.request_of_json
          (Protocol.request_to_json
             (Protocol.Submit { small_submission with Protocol.run }))
      with
      | Ok _ -> Alcotest.failf "rciw_target %g was accepted" target
      | Error msg ->
        check_bool
          (Printf.sprintf "rciw_target %g is refused by name" target)
          true
          (string_contains "rciw_target" msg))
    [ 0.; -1.; Float.infinity; Float.nan ]

(* A client from before study plans were retired may still send one.
   Ignored, it would change the client's results without telling it,
   so it is refused before it takes the one worker, naming the flags
   that replace it; the job sent next completes. *)
let test_daemon_refuses_plan () =
  let deadline = Unix.gettimeofday () +. 20. in
  with_daemon ~workers:1 (fun ~socket ~daemon ->
      let line =
        replace_once ~needle:"\"plan\":null"
          ~by:
            "\"plan\":{\"schema\":2,\"keep\":[{\"variant\":\"loadstore-u_1\",\
             \"experiments\":2,\"stable\":true}]}"
          (Lazy.force old_client_line)
      in
      check_bool "the plan is refused, naming the adaptive flags" true
        (string_contains "--experiments N --adaptive-experiments"
           (bad_request ~socket line));
      (match
         List.rev
           (responses ~deadline
              (send_line socket
                 (request_line (Protocol.Submit small_submission) ^ "\n")))
       with
      | Protocol.Done { quarantined = 0; _ } :: _ -> ()
      | _ -> Alcotest.fail "the job sent after the plan did not complete");
      check_int "only that job ran" 1 (stat daemon "serve.jobs.completed");
      check_int "only its study was built" 1 (stat daemon "serve.studies.built"))

let test_daemon_rejects_live_socket_reuse () =
  with_daemon (fun ~socket ~daemon:_ ->
      check_bool "second daemon on a live socket refuses" true
        (try
           ignore
             (Daemon.create
                {
                  (Daemon.default_config socket) with
                  Daemon.base = Microtools.Study.Run_config.default;
                });
           false
         with Failure _ -> true))

let suite =
  [
    Alcotest.test_case "request round-trip" `Quick test_request_roundtrip;
    Alcotest.test_case "response round-trip" `Quick test_response_roundtrip;
    Alcotest.test_case "run_options/config fidelity" `Quick
      test_run_options_config_fidelity;
    Alcotest.test_case "one line per message" `Quick
      test_framing_one_line_per_message;
    Alcotest.test_case "jobq back-pressure" `Quick test_jobq_backpressure;
    Alcotest.test_case "jobq blocking pop" `Quick test_jobq_blocking_pop;
    Alcotest.test_case "daemon end to end" `Quick test_daemon_end_to_end;
    Alcotest.test_case "daemon concurrent clients" `Quick
      test_daemon_concurrent_clients;
    Alcotest.test_case "daemon writes accepted first" `Quick
      test_daemon_accepted_first;
    Alcotest.test_case "daemon reuses studies" `Quick test_daemon_reuses_studies;
    Alcotest.test_case "daemon bounds kept studies" `Quick
      test_daemon_bounds_kept_studies;
    Alcotest.test_case "daemon drops failed studies" `Quick
      test_daemon_drops_failed_studies;
    Alcotest.test_case "daemon survives a hung-up client" `Quick
      test_daemon_survives_hung_up_client;
    Alcotest.test_case "daemon bad request" `Quick test_daemon_bad_request;
    Alcotest.test_case "prometheus rendering" `Quick test_prometheus_rendering;
    Alcotest.test_case "daemon metrics endpoint" `Quick
      test_daemon_metrics_endpoint;
    Alcotest.test_case "daemon bounds a request line" `Quick
      test_daemon_bounds_request_line;
    Alcotest.test_case "daemon span events stay bounded" `Quick
      test_daemon_span_events_bounded;
    Alcotest.test_case "daemon history archive" `Quick
      test_daemon_history_archive;
    Alcotest.test_case "daemon refuses live socket" `Quick
      test_daemon_rejects_live_socket_reuse;
    QCheck_alcotest.to_alcotest prop_request_round_trip;
    QCheck_alcotest.to_alcotest prop_request_lines_total;
    Alcotest.test_case "old client request" `Quick test_old_client_request;
    Alcotest.test_case "daemon runs a faulted job once" `Quick
      test_daemon_runs_faulted_job_once;
    Alcotest.test_case "daemon refuses a bad wall budget" `Quick
      (test_daemon_refuses_budget "wall_budget_s" [ "0"; "-1"; "1e999" ]);
    Alcotest.test_case "daemon refuses a bad sim budget" `Quick
      (test_daemon_refuses_budget "sim_budget" [ "0"; "-5" ]);
    Alcotest.test_case "rciw target refused" `Quick test_rciw_target_refused;
    Alcotest.test_case "daemon refuses a study plan" `Quick
      test_daemon_refuses_plan;
  ]

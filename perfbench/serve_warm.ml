(* serve_warm: the CI-resubmission use of mt_serve.  A daemon whose
   cache was prewarmed by submitting each job kind once serves two
   closed-loop clients, 200 jobs a round in a seeded order: each of the
   nine small corpus studies 20 times and loadstore (510 variants) 20
   times, shaped like the repository's CI submissions (32 KiB arrays,
   otherwise mt_study's defaults).  Nothing is simulated, so generation,
   cache keys, cache reads and the wire protocol are the whole cost.  The
   seed only orders the jobs.

   The daemon runs through Mt_serve.Daemon in a child process started
   before any thread starts, with SIGPIPE ignored: a fast cache-hit job
   can stream "done" before its connection handler writes "accepted",
   and that late write to a closed socket would otherwise kill the
   daemon.  Such jobs are counted as serve.late_accepted. *)

open Microtools
module P = Mt_serve.Protocol
module Client = Mt_serve.Client
module Options = Mt_launcher.Options
module Cache = Mt_parallel.Cache
module Csv = Mt_stats.Csv

let name = "serve_warm"

let small =
  [ "matmul200"; "movss_u8"; "multiarray4"; "multiarray8"; "ntstream"; "prefetched";
    "stencil"; "storestream"; "strided" ]

let copies = 20 (* of each kind per round: 180 small jobs + 20 loadstore *)

let clients = 2

let setups = 3

let job_timeout_s = 30.

type kind = { id : string; submission : P.submission; mutable expected : string }

let kinds () =
  Array.of_list
    (List.map
       (fun id ->
         {
           id;
           submission =
             {
               P.kernel_xml = Host.read_file (Filename.concat "descriptions" (id ^ ".xml"));
               machine = P.Preset "nehalem_x5650_2s";
               array_kb = 32;
               per = "element";
               repetitions = 2;
               experiments = 5;
               run = P.default_run_options;
             };
           expected = "";
         })
       (small @ [ "loadstore" ]))

(* ------------------------------------------------------------------ *)
(* The daemon child                                                    *)
(* ------------------------------------------------------------------ *)

type daemon = {
  pid : int;
  socket : string;
  cache_dir : string;
  ctl : out_channel;  (* asks the child for its GC counters or loop times *)
  reply : in_channel;
}

(* The child's control thread.  "cal" returns the reference-loop times
   the child's sampler took since the last "cal", plus three fresh ones:
   the loop runs where the daemon runs.  Anything else reads the child's
   GC counters. *)
let control meter ic oc () =
  try
    while true do
      (match input_line ic with
      | "cal" ->
        Host.sample meter;
        let times = meter.Host.samples in
        meter.Host.samples <- [];
        output_string oc (String.concat " " (List.map (Printf.sprintf "%.9f") times))
      | _ ->
        let g = Host.gc () in
        Printf.fprintf oc "%d %d %d" g.Host.minor g.Host.major g.Host.top_heap_words);
      output_char oc '\n';
      flush oc
    done
  with End_of_file | Sys_error _ -> ()

(* The child: [bench.exe --serve-daemon SOCKET CACHE_DIR TELEMETRY],
   started before the parent starts any thread, taking control requests
   on stdin and answering on stdout.  A fresh process rather than a
   bare fork, so its memory does not depend on the parent's heap. *)
let daemon_main ~socket ~cache_dir ~telemetry =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if telemetry then Mt_telemetry.set_global (Mt_telemetry.create ());
  let base = Study.Run_config.make ~domains:1 ~cache:(Cache.create ~dir:cache_dir ()) () in
  (* One worker: on one domain a second worker adds no throughput, only
     thread interleaving that moved the p95 by 40% and the daemon's peak
     RSS by 25% between otherwise identical runs. *)
  let config = { (Mt_serve.Daemon.default_config ~base socket) with workers = 1 } in
  let daemon = Mt_serve.Daemon.create config in
  let meter = Host.meter () in
  let stop_sampler = Host.sampler meter in
  ignore (Thread.create (control meter stdin stdout) ());
  Mt_serve.Daemon.serve daemon;
  stop_sampler ()

let spawn ~telemetry ~socket ~cache_dir =
  let ctl_r, ctl_w = Unix.pipe ~cloexec:true () in
  let reply_r, reply_w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe
      [| exe; "--serve-daemon"; socket; cache_dir; (if telemetry then "1" else "0") |]
      ctl_r reply_w Unix.stderr
  in
  Unix.close ctl_r;
  Unix.close reply_w;
  { pid; socket; cache_dir; ctl = Unix.out_channel_of_descr ctl_w;
    reply = Unix.in_channel_of_descr reply_r }

let alive d = match Unix.waitpid [ Unix.WNOHANG ] d.pid with 0, _ -> true | _ -> false

let ask d request =
  output_string d.ctl (request ^ "\n");
  flush d.ctl;
  input_line d.reply

let daemon_gc d =
  Scanf.sscanf (ask d "gc") "%d %d %d" (fun minor major top_heap_words ->
      { Host.minor; major; top_heap_words })

let daemon_calibrate d = List.map float_of_string (String.split_on_char ' ' (ask d "cal"))

let rec wait_ready d deadline =
  match Client.ping ~socket:d.socket with
  | Ok () -> Ok ()
  | Error msg ->
    if Host.now () > deadline || not (alive d) then Error ("daemon did not start: " ^ msg)
    else begin
      Unix.sleepf 0.002;
      wait_ready d deadline
    end

(* Ask for a clean shutdown; kill the child if it has not exited after
   ten seconds.  Always reaps it. *)
let stop d =
  ignore (Client.shutdown ~socket:d.socket);
  let deadline = Host.now () +. 10. in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Host.now () < deadline ->
      Unix.sleepf 0.01;
      reap ()
    | 0, _ ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap ();
  close_out_noerr d.ctl;
  close_in_noerr d.reply

(* ------------------------------------------------------------------ *)
(* Jobs                                                                *)
(* ------------------------------------------------------------------ *)

type job = {
  latency : float;  (* submit to "done", seconds *)
  accept : float;  (* connect to "accepted" *)
  run : float;  (* "accepted" to "header" *)
  stream : float;  (* "header" to "done" *)
  late : bool;  (* "accepted" lost the race: see [submit_retrying] *)
  resubmitted : bool;
  csv : Csv.t option;
}

(* A failed submission is [Error (message, garbled)]: [garbled] when a
   line failed to decode because two messages shared it before
   "accepted" had arrived, i.e. the late "accepted" was one of them. *)
let submit ~t0 socket kind =
  let accepted = ref nan and header = ref nan and finished = ref nan and late = ref false in
  let on_response = function
    | P.Accepted _ -> if Float.is_nan !accepted then accepted := Host.now ()
    | P.Header _ -> header := Host.now ()
    | P.Done _ ->
      finished := Host.now ();
      late := Float.is_nan !accepted
    | _ -> ()
  in
  match Client.submit ~socket ~on_response kind.submission with
  | Error msg ->
    Error
      (msg, Float.is_nan !accepted && String.starts_with ~prefix:"protocol error: trailing bytes" msg)
  | Ok _ when Float.is_nan !header -> Error ("no header streamed", false)
  | Ok summary ->
    (* An "accepted" that lands after the header starts the run stage at
       the header, so the three stages still add up to the latency. *)
    let acc = if Float.is_nan !accepted || !accepted > !header then !header else !accepted in
    Ok
      {
        latency = !finished -. t0;
        accept = acc -. t0;
        run = !header -. acc;
        stream = !finished -. !header;
        late = !late;
        resubmitted = false;
        csv = summary.Client.csv;
      }

(* The same race can land the late "accepted" inside the stream, where
   the daemon's unsynchronised writes put two messages on one line and
   the client sees a decode error.  Only such a job is resubmitted, up
   to [attempts] submissions in all, timed from the first and counted as
   late; every other error fails the job.  The race hits about one warm
   job in a thousand, so a real wire-format break still fails every
   attempt. *)
let attempts = 3

let submit_retrying socket kind =
  let t0 = Host.now () in
  let rec go n =
    match submit ~t0 socket kind with
    | Error (_, true) when n < attempts ->
      Result.map (fun job -> { job with late = true; resubmitted = true }) (go (n + 1))
    | Error (msg, _) -> Error msg
    | Ok job -> Ok job
  in
  go 1

(* One round: [clients] closed-loop clients drain [order].  A watchdog
   kills a daemon that makes no progress for [job_timeout_s], so the
   remaining jobs fail fast instead of hanging. *)
let round d kinds order =
  let n = Array.length order in
  let results = Array.make n (Error "not run") in
  let next = Atomic.make 0 in
  let progress = Atomic.make (Host.now ()) in
  let lost = Atomic.make false in
  let finished = Atomic.make false in
  let rec client () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      results.(i) <-
        (if Atomic.get lost then Error "daemon lost"
         else submit_retrying d.socket kinds.(order.(i)));
      Atomic.set progress (Host.now ());
      client ()
    end
  in
  let watchdog () =
    while not (Atomic.get finished) do
      Thread.delay 0.05;
      if (not (Atomic.get lost)) && Host.now () -. Atomic.get progress > job_timeout_s then begin
        Atomic.set lost true;
        try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ()
      end
    done
  in
  let t0 = Host.now () in
  let threads = List.init clients (fun _ -> Thread.create client ()) in
  let dog = Thread.create watchdog () in
  List.iter Thread.join threads;
  let wall = Host.now () -. t0 in
  Atomic.set finished true;
  Thread.join dog;
  (wall, results)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let order rng kinds =
  shuffle rng (Array.concat (List.init copies (fun _ -> Array.init (Array.length kinds) Fun.id)))

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

let cache_dir ctx rep = Filename.concat ctx.Outcome.work (Printf.sprintf "cache-%d" rep)

(* Starts a daemon over [cache_dir] and submits each job kind once: the
   prewarm, cold when the dir is fresh. *)
let setup_daemon ctx kinds ~telemetry ~cache_dir name =
  let socket = Filename.concat ctx.Outcome.work (name ^ ".sock") in
  if String.length socket >= 100 then failwith ("socket path too long for sun_path: " ^ socket);
  let d = spawn ~telemetry ~socket ~cache_dir in
  let problems =
    match wait_ready d (Host.now () +. 30.) with
    | Error msg -> [ msg ]
    | Ok () ->
      List.filter_map
        (fun kind ->
          match submit_retrying socket kind with
          | Ok _ -> None
          | Error msg -> Some (Printf.sprintf "prewarm %s: %s" kind.id msg))
        (Array.to_list kinds)
  in
  (d, problems)

(* The daemon's job path run locally: the same options and run config
   the daemon derives from a submission, over the daemon's cache. *)
let opts_of (s : P.submission) =
  let machine = Option.get (Mt_machine.Config.find_preset "nehalem_x5650_2s") in
  {
    (Options.default machine) with
    Options.array_bytes = s.P.array_kb * 1024;
    per = Options.Per_element;
    repetitions = s.P.repetitions;
    experiments = s.P.experiments;
  }

let local_csv cache kind =
  let s = kind.submission in
  match Study.of_description s.P.kernel_xml (opts_of s) with
  | Error msg -> Error msg
  | Ok study ->
    let config = P.config_into_base s.P.run (Study.Run_config.make ~domains:1 ~cache ()) in
    Ok (Csv.to_string (Study.csv (Study.run ~config study)))

let set_expected ctx out kinds d =
  let cache = Cache.create ~dir:d.cache_dir () in
  Array.to_list kinds
  |> List.concat_map (fun kind ->
         match local_csv cache kind with
         | Error msg -> [ kind.id ^ ": local run: " ^ msg ]
         | Ok text ->
           kind.expected <- text;
           Outcome.digest out ctx ~workload:name ~name:kind.id text)

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

let stat d key =
  match Client.stats ~socket:d.socket with
  | Ok kv -> List.assoc_opt key kv
  | Error _ -> None

(* Rounds until [ctx.seconds] have passed; checks every streamed CSV
   against the local one.  Each round is scaled by the reference loop
   timed inside the daemon during it, and its peak RSS is the daemon's
   VmHWM restarted just before it.  Returns the rounds, the variants one
   round streams, and the good jobs. *)
let measure ctx out d kinds =
  let rng = Random.State.make [| ctx.Outcome.seed |] in
  let misses0 = stat d "cache.misses" in
  let units = ref [] and jobs = ref [] and variants = ref 0 in
  let t0 = Host.now () in
  let n = ref 0 in
  while !n = 0 || Host.now () -. t0 < ctx.Outcome.seconds do
    incr n;
    ignore (daemon_calibrate d);
    let order = order rng kinds in
    Host.reset_peak_rss d.pid;
    let wall, results = round d kinds order in
    let rss = Host.peak_rss_mb d.pid in
    let since = Host.mark ctx.Outcome.meter in
    Host.add ctx.Outcome.meter (daemon_calibrate d);
    let good = ref [] in
    Array.iteri
      (fun i result ->
        let kind = kinds.(order.(i)) in
        let problems =
          match result with
          | Error msg -> [ kind.id ^ ": " ^ msg ]
          | Ok job -> (
            let text = Option.fold ~none:"" ~some:Csv.to_string job.csv in
            match Checks.csv_mismatch ~expected:kind.expected ~actual:text with
            | Some m -> [ kind.id ^ ": streamed CSV " ^ m ]
            | None ->
              good := job :: !good;
              if !n = 1 then variants := !variants + Csv.row_count (Option.get job.csv);
              [])
        in
        Outcome.record out ~attempted:1 ~failed:(if problems = [] then 0 else 1) problems)
      results;
    jobs := !good @ !jobs;
    units :=
      { Outcome.wall; jobs = List.map (fun j -> j.latency) !good;
        scale = Host.scale ~since ctx.Outcome.meter; rss }
      :: !units
  done;
  Outcome.record out ~attempted:0 ~failed:0
    (match (misses0, stat d "cache.misses") with
    | Some m0, Some m1 when m1 = m0 -> []
    | Some m0, Some m1 ->
      [ Printf.sprintf "daemon cache missed %d times in the measured phase" (m1 - m0) ]
    | _ -> [ "daemon stats unavailable" ]);
  let count f = List.length (List.filter f !jobs) in
  Outcome.note out "rounds: %d of %d jobs (%d variants), %d late accepted (%d resubmitted)" !n
    (Array.length kinds * copies) !variants (count (fun j -> j.late)) (count (fun j -> j.resubmitted));
  (!units, !variants, !jobs)

(* Runs [f] on a started and prewarmed daemon, and stops it. *)
let with_daemon ctx out kinds ~telemetry ~cache_dir name f =
  let d, problems = setup_daemon ctx kinds ~telemetry ~cache_dir name in
  Fun.protect ~finally:(fun () -> stop d) (fun () ->
      Outcome.record out ~attempted:0 ~failed:0 problems;
      f d)

(* The daemon that serves the rounds is started afresh over a cache
   that a set-up prewarmed, and submits each job kind once more (warm)
   before the rounds.  Its memory then holds what warm serving needs and
   none of the set-up's simulation garbage, which the runtime hands back
   to the system in some runs and not in others. *)
let serve ctx out kinds ~telemetry ~cache_dir f =
  with_daemon ctx out kinds ~telemetry ~cache_dir "serve" (fun d ->
      Outcome.record out ~attempted:0 ~failed:0 (set_expected ctx out kinds d);
      f d)

let run ctx out =
  let kinds = kinds () in
  (* Each set-up is scaled by the loop times the daemon's sampler took
     during it. *)
  for rep = 0 to setups - 1 do
    let t0 = Host.now () in
    with_daemon ctx out kinds ~telemetry:false ~cache_dir:(cache_dir ctx rep) (Printf.sprintf "d%d" rep)
      (fun d ->
        let dt = Host.now () -. t0 in
        let times = daemon_calibrate d in
        Host.add ctx.Outcome.meter times;
        out.Outcome.setups <- (dt, Host.scale_of times) :: out.Outcome.setups)
  done;
  serve ctx out kinds ~telemetry:false ~cache_dir:(cache_dir ctx (setups - 1)) (fun d ->
      let units, variants, _ = measure ctx out d kinds in
      Outcome.end_to_end out ctx ~results:variants units)

(* The warm job path replicated in-process over the daemon's cache, one
   span per public call, for the layer split the daemon cannot give. *)
let warm_job tr cache kind =
  let span name f = match tr with Some tr -> Tracer.span tr name f | None -> f () in
  let s = kind.submission in
  let opts = opts_of s in
  match span "creator.parse" (fun () -> Study.of_description s.P.kernel_xml opts) with
  | Error msg -> Error msg
  | Ok study ->
    let config = P.config_into_base s.P.run (Study.Run_config.make ~domains:1 ~cache ()) in
    let options = Study.Run_config.apply_options config opts in
    let variants = span "creator.generate" (fun () -> Study.variants study) in
    let outcomes =
      List.map
        (fun v ->
          (* Study.run digests each variant twice, as in study_cold. *)
          ignore (span "core.cache_key" (fun () -> Study.cache_key options v));
          let key = span "core.cache_key" (fun () -> Study.cache_key options v) in
          let result =
            span "cache.find" (fun () ->
                match Cache.find cache key with
                | Some data -> (Marshal.from_string data 0 : (Mt_launcher.Report.t, string) result)
                | None -> Error "cache miss")
          in
          { Study.variant = v; result; exec = { Study.attempts = 1; quarantined = None; resumed = false } })
        variants
    in
    let text = span "report.csv" (fun () -> Csv.to_string (Study.csv outcomes)) in
    span "report.snapshot" (fun () ->
        ignore (Mt_obsv.Json.to_string (Mt_obsv.Snapshot.to_json (Study.snapshot ~tool:"mt_serve" study outcomes))));
    Ok text

let traced ctx out =
  let kinds = kinds () in
  let cache_dir = cache_dir ctx 0 in
  with_daemon ctx out kinds ~telemetry:false ~cache_dir "d0" ignore;
  serve ctx out kinds ~telemetry:true ~cache_dir (fun d ->
      let gc0 = daemon_gc d in
      let _, _, jobs = measure ctx out d kinds in
      Outcome.gc_metrics out gc0 (daemon_gc d);
      let ms f = List.map (fun j -> f j *. 1e3) jobs in
      let stage base f = Outcome.latency out ~p50:(base ^ ".p50") ~tail:(base ^ ".p95") ~unit:"ms" (ms f) in
      stage "serve.accept_ms" (fun j -> j.accept);
      stage "serve.run_ms" (fun j -> j.run);
      stage "serve.stream_ms" (fun j -> j.stream);
      (match Client.stats ~socket:d.socket with
      | Ok kv ->
        List.iter
          (fun (key, metric) ->
            match List.assoc_opt key kv with
            | Some v -> Outcome.metric out metric "us" (float_of_int v)
            | None -> Outcome.record out ~attempted:0 ~failed:0 [ "daemon stats lack " ^ key ])
          [ ("serve.job.queue_wait.us.p50", "serve.queue_wait_us.p50");
            ("serve.job.queue_wait.us.p90", "serve.queue_wait_us.p90");
            ("serve.job.exec.us.p50", "serve.exec_us.p50");
            ("serve.job.exec.us.p90", "serve.exec_us.p90") ]
      | Error msg -> Outcome.record out ~attempted:0 ~failed:0 [ "daemon stats: " ^ msg ]);
      Outcome.metric out "serve.rows" "count"
        (float_of_int (List.fold_left (fun acc j -> acc + Option.fold ~none:0 ~some:Csv.row_count j.csv) 0 jobs));
      Outcome.metric out "serve.late_accepted" "count"
        (float_of_int (List.length (List.filter (fun j -> j.late) jobs)));
      (* The replica: warm this process's cache table, then one round
         untraced and the same round traced. *)
      let cache = Cache.create ~dir:d.cache_dir () in
      Array.iter (fun kind -> ignore (warm_job None cache kind)) kinds;
      let order = order (Random.State.make [| ctx.Outcome.seed |]) kinds in
      let (), wall_u = Host.time (fun () -> Array.iter (fun k -> ignore (warm_job None cache kinds.(k))) order) in
      let tr = Tracer.create Host.now in
      let hits0 = Cache.hits cache and misses0 = Cache.misses cache in
      let problems =
        Array.to_list order
        |> List.filter_map (fun k ->
               let kind = kinds.(k) in
               match warm_job (Some tr) cache kind with
               | Error msg -> Some (kind.id ^ " (traced): " ^ msg)
               | Ok text ->
                 Tracer.untimed tr (fun () ->
                     Option.map (fun m -> kind.id ^ " (traced): " ^ m)
                       (Checks.csv_mismatch ~expected:kind.expected ~actual:text)))
      in
      let total, unattributed = Tracer.totals tr in
      Outcome.record out ~attempted:(Array.length order) ~failed:(List.length problems) problems;
      List.iter
        (fun layer -> Outcome.metric out (layer ^ "_s") "s" (Tracer.self tr layer))
        [ "creator.parse"; "creator.generate"; "core.cache_key"; "cache.find"; "report.csv";
          "report.snapshot" ];
      Outcome.metric out "cache.hits" "count" (float_of_int (Cache.hits cache - hits0));
      Outcome.metric out "cache.misses" "count" (float_of_int (Cache.misses cache - misses0));
      Outcome.metric out "unattributed_frac" "fraction" (unattributed /. total);
      Outcome.metric out "trace_overhead_frac" "fraction" ((total -. wall_u) /. wall_u))

(* The mt_serve daemon: accept study submissions over a Unix-domain
   socket, hold them in a bounded job queue, and execute them through
   the existing Run_config/Supervisor/Journal engine.

   Thread layout: the caller's thread runs the accept loop; each
   connection gets a short-lived handler thread (it parses the request,
   builds and validates its study, enqueues it, and waits); a fixed
   pool of worker threads pulls jobs off the shared queue as they free
   up and runs each job's study as the handler built it — idle workers
   steal whatever is next, so one slow study never convoys the queue
   behind a busy worker.  Each job's simulation work still fans out
   across [Mt_parallel.Pool] domains per the base run config. *)

(* NB: no [open Mt_launcher] — its [Protocol] (the measurement
   protocol) would shadow this library's wire [Protocol]. *)
module Options = Mt_launcher.Options
module Run_config = Microtools.Study.Run_config

type config = {
  socket_path : string;
  queue_capacity : int;
  workers : int;
  state_dir : string option;
  history_dir : string option;
  log_json : bool;
  base : Run_config.t;
}

let default_config ?(base = Run_config.default) socket_path =
  {
    socket_path;
    queue_capacity = 64;
    workers = 2;
    state_dir = None;
    history_dir = None;
    log_json = false;
    base;
  }

type job = {
  id : int;
  study : Microtools.Study.t;  (* built and validated by the handler *)
  run : Protocol.run_options;  (* the submission's wire run options *)
  oc : out_channel;
  lock : Mutex.t;
  finished : Condition.t;
  mutable done_ : bool;
  submitted_at : float;  (* wall clock at enqueue, for queue-wait *)
}

type t = {
  config : config;
  queue : job Jobq.t;
  listener : Unix.file_descr;
  stopping : bool Atomic.t;
  next_id : int Atomic.t;
  inflight : int Atomic.t;
  completed : int Atomic.t;
  failed : int Atomic.t;
  started_at : float;
}

let tel () = Mt_telemetry.global ()

(* The two live latency histograms a scraper reads quantiles from. *)
let queue_wait_metric = "serve.job.queue_wait.us"

let exec_metric = "serve.job.exec.us"

(* Structured per-job log lines (--log-json): one JSON object per
   event on stdout, flushed per line so `mt_serve | jq` tails live.
   Guarded by config so the default human banner stays byte-identical.
   stdout is shared with job execution output; the single print is
   atomic enough (one write of one line) for line-oriented consumers.
   Best-effort: a reader that went away (EPIPE, SIGPIPE being ignored)
   must not stop jobs. *)
let log_json d event fields =
  if d.config.log_json then begin
    let doc =
      Mt_obsv.Json.Obj
        (("ts", Mt_obsv.Json.Num (Unix.gettimeofday ()))
        :: ("event", Mt_obsv.Json.Str event)
        :: fields)
    in
    try
      print_string (Mt_obsv.Json.to_string doc);
      print_newline ();
      flush stdout
    with Sys_error _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* Submission -> study                                                 *)
(* ------------------------------------------------------------------ *)

let options_of_submission (s : Protocol.submission) =
  let ( let* ) = Result.bind in
  let* machine =
    match s.Protocol.machine with
    | Protocol.Preset name -> (
      match Mt_machine.Config.find_preset name with
      | Some cfg -> Ok cfg
      | None ->
        Error
          (Printf.sprintf "unknown machine %s (known: %s)" name
             (String.concat ", " (List.map fst Mt_machine.Config.presets))))
    | Protocol.Inline_xml text -> Mt_machine.Config_io.of_string text
  in
  let* per =
    match s.Protocol.per with
    | "pass" -> Ok Options.Per_pass
    | "instruction" -> Ok Options.Per_instruction
    | "element" -> Ok Options.Per_element
    | "call" -> Ok Options.Per_call
    | p -> Error (Printf.sprintf "unknown per unit %S" p)
  in
  if s.Protocol.array_kb < 1 then Error "array_kb must be >= 1"
  else if s.Protocol.repetitions < 1 then Error "repetitions must be >= 1"
  else if s.Protocol.experiments < 1 then Error "experiments must be >= 1"
  else
    Ok
      {
        (Options.default machine) with
        Options.array_bytes = s.Protocol.array_kb * 1024;
        per;
        repetitions = s.Protocol.repetitions;
        experiments = s.Protocol.experiments;
      }

(* Validate as much as possible on the connection thread, before the
   job takes a queue slot: a submission that can never run is a
   [Bad_request], not a wasted worker dispatch.  The study built here
   is the one the worker runs, so each submission is parsed once. *)
let study_of_submission (s : Protocol.submission) =
  match options_of_submission s with
  | Error _ as e -> e
  | Ok opts -> Microtools.Study.of_description s.Protocol.kernel_xml opts

(* ------------------------------------------------------------------ *)
(* Job execution                                                       *)
(* ------------------------------------------------------------------ *)

let job_run_config d job =
  let config = Protocol.config_into_base job.run d.config.base in
  match d.config.state_dir with
  | None -> config
  | Some dir ->
    (* Per-job crash journal: a daemon killed mid-job leaves a resumable
       checkpoint behind; the file is removed once the job completes. *)
    {
      config with
      Run_config.journal_out =
        Some (Filename.concat dir (Printf.sprintf "job-%d.journal" job.id));
    }

let stream_outcomes d job outcomes =
  let doc = Microtools.Study.csv outcomes in
  Protocol.send_response job.oc (Protocol.Header (Mt_stats.Csv.header doc));
  List.iter
    (fun row -> Protocol.send_response job.oc (Protocol.Row row))
    (Mt_stats.Csv.rows doc);
  let quarantined = List.length (Microtools.Study.quarantined outcomes) in
  let cache_hit_rate =
    match d.config.base.Run_config.cache with
    | Some c -> Mt_parallel.Cache.hit_rate c
    | None -> 0.
  in
  (quarantined, cache_hit_rate)

(* Runs the study and streams everything EXCEPT the terminal
   Done/Failed message, which the worker sends only after all
   bookkeeping (counters, latency histograms, the history archive) has
   landed — so a client that reads stats, metrics or the archive the
   moment its submission returns is guaranteed to see its own job. *)
let execute d job =
  let config = job_run_config d job in
  match Microtools.Study.run ~config job.study with
  | exception e ->
    Atomic.incr d.failed;
    Mt_telemetry.incr (tel ()) "serve.jobs.failed";
    `Failed (Printexc.to_string e)
  | outcomes ->
    let quarantined, cache_hit_rate = stream_outcomes d job outcomes in
    let snap =
      Microtools.Study.snapshot ~tool:"mt_serve" ~config job.study outcomes
    in
    Protocol.send_response job.oc
      (Protocol.Snapshot (Mt_obsv.Snapshot.to_json snap));
    Option.iter
      (fun path -> try Sys.remove path with Sys_error _ -> ())
      config.Run_config.journal_out;
    (* Continuous benchmarking: every completed job lands in the
       shared archive, so a long-lived daemon accumulates the
       timeline mt_report --history analyses.  Best-effort — an
       unwritable archive must not fail the job that just streamed
       its results. *)
    Option.iter
      (fun dir ->
        match
          Mt_obsv.History.append
            ~label:(Printf.sprintf "job-%d" job.id)
            ~dir snap
        with
        | Ok _ -> ()
        | Error msg -> Printf.eprintf "mt_serve: %s\n%!" msg)
      d.config.history_dir;
    Atomic.incr d.completed;
    Mt_telemetry.incr (tel ()) "serve.jobs.completed";
    `Completed (quarantined, cache_hit_rate)

let worker d () =
  let rec loop () =
    match Jobq.pop d.queue with
    | None -> ()
    | Some job ->
      Atomic.incr d.inflight;
      Mt_telemetry.incr (tel ()) "serve.jobs.started";
      let popped_at = Unix.gettimeofday () in
      (* Wait for the handler to finish writing [Accepted]. *)
      Mutex.protect job.lock ignore;
      let queue_wait_us = 1e6 *. (popped_at -. job.submitted_at) in
      Mt_telemetry.observe (tel ()) queue_wait_metric queue_wait_us;
      let status =
        try execute d job
        with _ ->
          (* The socket died mid-stream (client hung up): the job is
             finished either way; never take the worker down. *)
          `Failed "connection lost"
      in
      let exec_us = 1e6 *. (Unix.gettimeofday () -. popped_at) in
      Mt_telemetry.observe (tel ()) exec_metric exec_us;
      log_json d
        (match status with
        | `Completed _ -> "job.done"
        | `Failed _ -> "job.failed")
        ([
           ("job", Mt_obsv.Json.Num (float_of_int job.id));
           ("queue_wait_us", Mt_obsv.Json.Num queue_wait_us);
           ("exec_us", Mt_obsv.Json.Num exec_us);
         ]
        @
        match status with
        | `Completed (quarantined, _) ->
          [ ("quarantined", Mt_obsv.Json.Num (float_of_int quarantined)) ]
        | `Failed msg -> [ ("message", Mt_obsv.Json.Str msg) ]);
      (* The terminal message, last: it unblocks the waiting client. *)
      (try
         match status with
         | `Completed (quarantined, cache_hit_rate) ->
           Protocol.send_response job.oc
             (Protocol.Done { job = job.id; quarantined; cache_hit_rate })
         | `Failed message ->
           Protocol.send_response job.oc
             (Protocol.Failed { job = job.id; message })
       with _ -> () (* client hung up: the job is finished either way *));
      Atomic.decr d.inflight;
      Mutex.lock job.lock;
      job.done_ <- true;
      Condition.signal job.finished;
      Mutex.unlock job.lock;
      loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)
(* ------------------------------------------------------------------ *)

let uptime_s d = Unix.gettimeofday () -. d.started_at

(* Live latency quantiles, as integer microseconds so they slot into
   the (string * int) stats counters unchanged.  Empty histograms (no
   jobs yet, or telemetry disabled) simply omit the keys, so older
   clients and the codec round-trip are unaffected. *)
let latency_quantiles () =
  List.concat_map
    (fun metric ->
      List.filter_map
        (fun (label, p) ->
          Option.map
            (fun v -> (Printf.sprintf "%s.%s" metric label, int_of_float v))
            (Mt_telemetry.quantile (tel ()) metric p))
        [ ("p50", 50.); ("p90", 90.); ("p99", 99.) ])
    [ queue_wait_metric; exec_metric ]

let stats d =
  let cache_counters =
    match d.config.base.Run_config.cache with
    | None -> []
    | Some c ->
      [
        ("cache.hits", Mt_parallel.Cache.hits c);
        ("cache.misses", Mt_parallel.Cache.misses c);
        ("cache.decode_failures", Mt_parallel.Cache.decode_failures c);
        ("cache.evictions", Mt_parallel.Cache.evictions c);
      ]
  in
  [
    ("serve.uptime.s", int_of_float (uptime_s d));
    ("serve.queue.capacity", Jobq.capacity d.queue);
    ("serve.queue.depth", Jobq.depth d.queue);
    ("serve.jobs.inflight", Atomic.get d.inflight);
    ("serve.jobs.completed", Atomic.get d.completed);
    ("serve.jobs.failed", Atomic.get d.failed);
  ]
  @ latency_quantiles () @ cache_counters

(* The scrape endpoint's payload: the stats counters plus every
   telemetry counter, uptime as a proper float gauge, and the latency
   histograms as quantile summaries. *)
let metrics d =
  let summaries =
    List.filter_map
      (fun (name, h) ->
        if h.Mt_telemetry.count = 0 then None
        else
          Some
            ( name,
              {
                Protocol.m_count = h.Mt_telemetry.count;
                m_sum = h.Mt_telemetry.sum;
                m_quantiles =
                  List.filter_map
                    (fun q ->
                      Option.map
                        (fun v -> (q /. 100., v))
                        (Mt_telemetry.quantile (tel ()) name q))
                    [ 50.; 90.; 99. ];
              } ))
      (Mt_telemetry.histograms (tel ()))
  in
  let stat_counters =
    List.filter (fun (k, _) -> k <> "serve.uptime.s") (stats d)
  in
  let tel_counters =
    (* Telemetry counters the stats list doesn't already carry
       (pool/sim/resilience internals recorded during jobs). *)
    List.filter
      (fun (k, _) -> not (List.mem_assoc k stat_counters))
      (Mt_telemetry.counters (tel ()))
  in
  {
    Protocol.m_counters = stat_counters @ tel_counters;
    m_gauges = [ ("serve.uptime.s", uptime_s d) ];
    m_summaries = summaries;
  }

let trigger_stop d =
  if not (Atomic.exchange d.stopping true) then begin
    (* Closing the fd would NOT wake a thread blocked in accept(2);
       shutting the listener down does (accept fails with EINVAL), and
       a throwaway connection covers any platform where shutdown on a
       listening socket is a no-op.  In-queue and in-flight jobs still
       run to completion. *)
    (try Unix.shutdown d.listener Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    try
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> Unix.connect fd (Unix.ADDR_UNIX d.config.socket_path))
    with Unix.Unix_error _ -> ()
  end

let handle_submit d oc s =
  Mt_telemetry.incr (tel ()) "serve.submissions";
  match study_of_submission s with
  | Error msg ->
    Mt_telemetry.incr (tel ()) "serve.rejected.bad_request";
    Protocol.send_response oc (Protocol.Rejected (Protocol.Bad_request msg))
  | Ok study -> (
    let job =
      {
        id = Atomic.fetch_and_add d.next_id 1;
        study;
        run = s.Protocol.run;
        oc;
        lock = Mutex.create ();
        finished = Condition.create ();
        done_ = false;
        submitted_at = Unix.gettimeofday ();
      }
    in
    (* The job's lock is held from the push until [Accepted] is
       written, and the worker takes it before its first write: so
       [Accepted] is always the first line a client reads and never
       shares a line with a row. *)
    Mutex.lock job.lock;
    match Jobq.push d.queue job with
    | Error (`Queue_full | `Closed) ->
      Mutex.unlock job.lock;
      (* A closing daemon has no capacity either: same typed error. *)
      Mt_telemetry.incr (tel ()) "serve.rejected.queue_full";
      Protocol.send_response oc (Protocol.Rejected Protocol.Queue_full)
    | Ok () ->
      Mt_telemetry.incr (tel ()) "serve.accepted";
      log_json d "job.accepted"
        [
          ("job", Mt_obsv.Json.Num (float_of_int job.id));
          ("queue_depth", Mt_obsv.Json.Num (float_of_int (Jobq.depth d.queue)));
        ];
      (* A client that already hung up still owns its queued job: wait
         for it all the same, so the socket stays open until the worker
         is done with it and its writes cannot land on a reused
         descriptor. *)
      (try
         Protocol.send_response oc
           (Protocol.Accepted { job = job.id; queue_depth = Jobq.depth d.queue })
       with Sys_error _ -> ());
      while not job.done_ do
        Condition.wait job.finished job.lock
      done;
      Mutex.unlock job.lock)

let handle_connection d fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  (try
     match Protocol.read_request ic with
     | None -> ()
     | Some (Error msg) ->
       Protocol.send_response oc (Protocol.Rejected (Protocol.Bad_request msg))
     | Some (Ok Protocol.Ping) -> Protocol.send_response oc Protocol.Pong
     | Some (Ok Protocol.Stats) ->
       Protocol.send_response oc (Protocol.Stats_reply (stats d))
     | Some (Ok (Protocol.Metrics Protocol.Metrics_json)) ->
       Protocol.send_response oc (Protocol.Metrics_reply (metrics d))
     | Some (Ok (Protocol.Metrics Protocol.Metrics_prometheus)) ->
       Protocol.send_response oc
         (Protocol.Metrics_text (Protocol.prometheus_of_metrics (metrics d)))
     | Some (Ok Protocol.Shutdown) ->
       Protocol.send_response oc Protocol.Bye;
       trigger_stop d
     | Some (Ok (Protocol.Submit s)) -> handle_submit d oc s
   with _ -> () (* peer hung up mid-exchange *));
  (try flush oc with Sys_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error _ -> ()
  end

let create config =
  Option.iter mkdir_p config.state_dir;
  mkdir_p (Filename.dirname config.socket_path);
  (* A stale socket file from a dead daemon blocks bind; a live daemon
     on the same path is a configuration error we surface via bind. *)
  (match Unix.lstat config.socket_path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> (
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect probe (Unix.ADDR_UNIX config.socket_path) with
    | () ->
      Unix.close probe;
      failwith
        (Printf.sprintf "mt_serve: %s already has a live daemon"
           config.socket_path)
    | exception Unix.Unix_error _ ->
      Unix.close probe;
      (try Unix.unlink config.socket_path with Unix.Unix_error _ -> ()))
  | _ -> ()
  | exception Unix.Unix_error _ -> ());
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX config.socket_path);
  Unix.listen listener 64;
  {
    config;
    queue = Jobq.create ~capacity:config.queue_capacity;
    listener;
    stopping = Atomic.make false;
    next_id = Atomic.make 1;
    inflight = Atomic.make 0;
    completed = Atomic.make 0;
    failed = Atomic.make 0;
    started_at = Unix.gettimeofday ();
  }

let serve d =
  (* A client that hangs up must cost only its own job: a write to its
     socket then fails with EPIPE, which the handlers catch, instead of
     the signal killing the daemon. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workers =
    List.init
      (max 1 d.config.workers)
      (fun _ -> Thread.create (worker d) ())
  in
  let rec accept_loop () =
    match Unix.accept d.listener with
    | fd, _ ->
      if Atomic.get d.stopping then
        (* The wake-up connection from trigger_stop, or a client racing
           the shutdown: either way, no new work. *)
        (try Unix.close fd with Unix.Unix_error _ -> ())
      else begin
        ignore (Thread.create (handle_connection d) fd);
        accept_loop ()
      end
    | exception
        Unix.Unix_error
          ((Unix.EBADF | Unix.EINVAL | Unix.ECONNABORTED), _, _)
      when Atomic.get d.stopping ->
      ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
  in
  accept_loop ();
  (try Unix.close d.listener with Unix.Unix_error _ -> ());
  (* Drain: pending jobs still execute, their connection handlers are
     still waiting on them; then the workers see the close and exit. *)
  Jobq.close d.queue;
  List.iter Thread.join workers;
  try Unix.unlink d.config.socket_path with Unix.Unix_error _ -> ()

let stop = trigger_stop

let run config = serve (create config)

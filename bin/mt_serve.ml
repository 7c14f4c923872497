(* mt_serve: the benchmark-as-a-service daemon — a long-lived process
   accepting study submissions from many concurrent clients over a
   Unix-domain socket and executing them through the same
   Run_config/Supervisor/Journal engine as one-shot mt_study, with one
   shared result cache in front of all of them.

     mt_serve /tmp/mt.sock --workers 2 --jobs 2 --cache-dir /var/cache/mt

   Clients: mt_study DESC --submit /tmp/mt.sock, or any program
   speaking the line-delimited JSON protocol (docs/SERVING.md).

   Exit codes: 0 clean shutdown, 2 cannot bind. *)

open Cmdliner

let run socket queue_capacity workers state_dir history_dir log_json config =
  (* A daemon always keeps telemetry on, even without --trace-out /
     --metrics-out: the metrics endpoint and the job-latency quantiles
     in the stats reply and exit banner are its whole observability
     surface, and a handle that only exists when a trace file was
     requested would leave a live daemon blind. *)
  let tel = Mt_cli.setup ~always:true config in
  let daemon_config =
    {
      Mt_serve.Daemon.socket_path = socket;
      queue_capacity;
      workers;
      state_dir;
      history_dir;
      log_json;
      base = config;
    }
  in
  match Mt_serve.Daemon.create daemon_config with
  | exception Failure msg ->
    Printf.eprintf "mt_serve: %s\n" msg;
    2
  | exception Unix.Unix_error (err, _, _) ->
    Printf.eprintf "mt_serve: cannot bind %s: %s\n" socket
      (Unix.error_message err);
    2
  | daemon ->
    Printf.printf "mt_serve: listening on %s (%s; queue %d, %d worker%s)\n%!"
      socket (Mt_cli.run_summary config) queue_capacity workers
      (if workers = 1 then "" else "s");
    let stop _ = Mt_serve.Daemon.stop daemon in
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
    Mt_serve.Daemon.serve daemon;
    List.iter
      (fun (k, v) -> Printf.printf "%s: %d\n" k v)
      (Mt_serve.Daemon.stats daemon);
    Mt_cli.print_cache_stats config;
    Mt_cli.finish tel config;
    0

let socket_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"SOCKET"
        ~doc:"Unix-domain socket path to listen on (created; removed on \
              clean shutdown).")

let queue_arg =
  Arg.(
    value
    & opt int 64
    & info [ "queue" ] ~docv:"N"
        ~doc:
          "Submissions held waiting beyond the running ones; further \
           submissions are rejected with a typed queue-full error \
           (back-pressure, never a silent drop).")

let workers_arg =
  Arg.(
    value
    & opt int 2
    & info [ "workers" ] ~docv:"N"
        ~doc:
          "Worker threads executing jobs concurrently; each job \
           additionally parallelises its variants across $(b,--jobs) \
           domains.")

let state_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "state-dir" ] ~docv:"DIR"
        ~doc:
          "Keep a crash journal per running job under $(docv) \
           (job-N.journal, removed on completion), so a killed daemon \
           leaves resumable checkpoints.")

let history_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "history-dir" ] ~docv:"DIR"
        ~doc:
          "Archive every completed job's run snapshot into the history \
           directory $(docv) (append-only, safe to share with \
           $(b,--history-append) CLI runs); analyse the accumulated \
           timeline with $(b,mt_report --history).")

let log_json_arg =
  Arg.(
    value
    & flag
    & info [ "log-json" ]
        ~doc:
          "Emit one structured JSON log line per job event on stdout \
           (job.accepted, job.done, job.failed, with queue-wait and \
           execution latency in microseconds) instead of relying on the \
           human banner alone.")

let cmd =
  let doc = "serve study submissions from a persistent daemon" in
  Cmd.v
    (Cmd.info "mt_serve" ~doc
       ~exits:(Cmd.Exit.info 2 ~doc:"cannot bind the socket." :: Cmd.Exit.defaults))
    Term.(
      const run $ socket_arg $ queue_arg $ workers_arg $ state_dir_arg
      $ history_dir_arg $ log_json_arg $ Mt_cli.serve_term)

let () = exit (Cmd.eval' cmd)

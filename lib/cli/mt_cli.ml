(* The run-shaping command line every MicroTools binary shares:
   parallelism, caching, adaptive measurement, the resilience policy,
   fault injection, checkpoint/resume and the observability outputs all
   parse here, into one Study.Run_config.t.  Binaries keep only their
   kernel-specific flags (input file, machine, array sizes, ...). *)

open Cmdliner

type t = Microtools.Study.Run_config.t

let default_policy = Mt_resilience.Policy.default

(* ------------------------------------------------------------------ *)
(* Flag definitions                                                    *)
(* ------------------------------------------------------------------ *)

let docs_run = "RUN OPTIONS"

let docs_resilience = "RESILIENCE OPTIONS"

let docs_obsv = "OBSERVABILITY OPTIONS"

let jobs_arg =
  Arg.(
    value
    & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N" ~docs:docs_run
        ~doc:
          "Run independent units of work on $(docv) domains (0 = one per \
           available core).  Results merge back in request order, so the \
           output is identical to a sequential run.")

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR" ~docs:docs_run
        ~doc:
          "On-disk result cache location (default: \\$XDG_CACHE_HOME/microtools \
           or ~/.cache/microtools).")

let cache_max_mb_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "cache-max-mb" ] ~docv:"MiB" ~docs:docs_run
        ~doc:
          "Bound the on-disk result cache to $(docv); once a store pushes \
           the directory over budget the least-recently-used entries are \
           evicted (safe across concurrent processes sharing the \
           directory).  Unbounded by default.")

let no_cache_arg =
  Arg.(
    value
    & flag
    & info [ "no-cache" ] ~docs:docs_run
        ~doc:"Disable the result cache; re-simulate everything.")

let adaptive_arg =
  Arg.(
    value
    & flag
    & info [ "adaptive-experiments" ] ~docs:docs_run
        ~doc:
          "Treat each configured experiment count as a minimum and keep \
           measuring until the median's bootstrap confidence interval \
           reaches $(b,--rciw-target) or $(b,--max-experiments) is spent.")

let rciw_target_arg =
  Arg.(
    value
    & opt float 0.02
    & info [ "rciw-target" ] ~docv:"FRAC" ~docs:docs_run
        ~doc:
          "Adaptive stop rule: relative confidence-interval width of the \
           median to reach before stopping early.")

let max_exps_arg =
  Arg.(
    value
    & opt int 64
    & info [ "max-experiments" ] ~docv:"N" ~docs:docs_run
        ~doc:"Adaptive budget ceiling per measurement.")

let retries_arg =
  Arg.(
    value
    & opt int default_policy.Mt_resilience.Policy.retries
    & info [ "retries" ] ~docv:"N" ~docs:docs_resilience
        ~doc:
          "Retry a crashing or over-budget unit of work $(docv) times \
           (with deterministic exponential backoff) before quarantining \
           it.")

let backoff_ms_arg =
  Arg.(
    value
    & opt float (default_policy.Mt_resilience.Policy.backoff_base_s *. 1000.)
    & info [ "retry-backoff-ms" ] ~docv:"MS" ~docs:docs_resilience
        ~doc:
          "Base backoff delay before the first retry, in milliseconds; \
           doubles per retry, with deterministic seeded jitter.")

let resilience_seed_arg =
  Arg.(
    value
    & opt int default_policy.Mt_resilience.Policy.backoff_seed
    & info [ "resilience-seed" ] ~docv:"SEED" ~docs:docs_resilience
        ~doc:"Seed of the deterministic backoff-jitter stream.")

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SECONDS" ~docs:docs_resilience
        ~doc:
          "Wall-clock budget per attempt; an attempt that runs longer is \
           treated as hung and retried/quarantined.")

let sim_budget_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "sim-budget" ] ~docv:"INSNS" ~docs:docs_resilience
        ~doc:
          "Simulated-instruction budget per attempt, clamped onto the \
           launcher's max_instructions fuel.")

let fault_conv =
  let parse s =
    match Mt_resilience.Fault.of_spec s with
    | Ok f -> Ok f
    | Error msg -> Error (`Msg msg)
  in
  let print ppf f =
    Format.pp_print_string ppf (Mt_resilience.Fault.to_spec f)
  in
  Arg.conv ~docv:"SPEC" (parse, print)

let faults_arg =
  Arg.(
    value
    & opt_all fault_conv []
    & info [ "inject-fault" ] ~docv:"SPEC" ~docs:docs_resilience
        ~doc:
          "Deterministically break the K-th unit of work (repeatable): \
           $(i,variant=K:kind) with kind one of $(b,raise), $(b,timeout) \
           or $(b,corrupt-cache-entry), optionally $(i,@N) to fault only \
           the first N attempts (so a retry succeeds).  Used by the \
           resilience tests and test/cram/chaos.t.")

let journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE" ~docs:docs_resilience
        ~doc:
          "Append every completed unit of work to a crash-safe checkpoint \
           journal at $(docv), resumable with $(b,--resume).")

let resume_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume" ] ~docv:"FILE" ~docs:docs_resilience
        ~doc:
          "Replay work already recorded in this checkpoint journal and \
           measure only the rest.  Pass the same file to $(b,--journal) \
           to keep extending it across interruptions.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE" ~docs:docs_obsv
        ~doc:
          "Write a Chrome trace_event JSON of the run (per-pass, \
           per-variant, per-attempt and per-phase spans) to $(docv); open \
           it in chrome://tracing or Perfetto.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE" ~docs:docs_obsv
        ~doc:
          "Write a key,value metrics CSV (pool, cache, resilience, \
           simulator and memory counters) to $(docv).")

let snapshot_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "snapshot-out" ] ~docv:"FILE" ~docs:docs_obsv
        ~doc:
          "Write a run-provenance snapshot (kernel/machine hashes, options, \
           per-variant statistics, quarantined variants) as JSON to \
           $(docv); two snapshots are compared with mt_report.")

let history_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "history-append" ] ~docv:"DIR" ~docs:docs_obsv
        ~doc:
          "Also archive the run snapshot into the history directory \
           $(docv) (an append-only, digest-indexed snapshot archive; \
           safe to share between concurrent runs and an mt_serve \
           daemon).  Analyse the archive with $(b,mt_report --history).")

let profile_arg =
  Arg.(
    value
    & flag
    & info [ "profile" ] ~docs:docs_obsv
        ~doc:
          "Record per-instruction bottleneck attribution during the \
           measured calls and print a top-down cycle-accounting \
           breakdown (frontend / ports / dependency / window / memory \
           level) plus the critical dependency path per variant.  The \
           measured numbers are unchanged; profiles also travel in \
           $(b,--snapshot-out) documents, where mt_report uses them to \
           explain regressions.")

let profile_folded_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile-folded" ] ~docv:"FILE" ~docs:docs_obsv
        ~doc:
          "Also write the attribution as collapsed-stack lines to \
           $(docv) (one stack per category plus the critical path), \
           ready for flamegraph.pl or speedscope.  Implies \
           $(b,--profile).")

let trace_detail_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("off", Mt_telemetry.Off);
             ("sampled", Mt_telemetry.Sampled);
             ("full", Mt_telemetry.Full);
           ])
        Mt_telemetry.Off
    & info [ "trace-detail" ] ~docs:docs_obsv
        ~doc:
          "Instruction/cache lane detail in the Chrome trace: off (no lane \
           bookkeeping on the simulate path), sampled (every 64th dynamic \
           instruction), or full.  Takes effect when $(b,--trace-out) is \
           given.")

(* Loading happens inside the conv so a bad --plan is a cmdliner usage
   error before anything runs, in every binary, with one definition. *)
let plan_conv =
  let parse path =
    match Mt_optimize.Plan.load path with
    | Ok plan -> Ok plan
    | Error msg -> Error (`Msg msg)
  in
  let print ppf (plan : Mt_optimize.Plan.t) =
    Format.pp_print_string ppf (Mt_optimize.Plan.summary plan)
  in
  Arg.conv ~docv:"FILE" (parse, print)

let plan_arg =
  Arg.(
    value
    & opt (some plan_conv) None
    & info [ "plan" ] ~docv:"FILE" ~docs:docs_run
        ~doc:
          "Shape the run by a study plan written by $(b,mt_optimize): \
           only the variants the plan keeps are measured, and variants \
           the optimizer judged stable run at the plan's floored \
           experiment count.  Variants the plan has never seen still \
           run at the default budget.")

(* Not part of {!term}: client-mode routing, composed only by binaries
   that can submit to an mt_serve daemon (currently mt_study). *)
let submit_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "submit" ] ~docv:"SOCKET" ~docs:docs_run
        ~doc:
          "Instead of measuring locally, submit the study to the mt_serve \
           daemon listening on this Unix-domain socket and stream the \
           results back.  The run-shaping flags (seed, adaptive knobs, \
           resilience policy, fault injection) travel with the \
           submission; $(b,--jobs), $(b,--cache-dir) and the output \
           flags stay local to the daemon/client respectively.")

(* ------------------------------------------------------------------ *)
(* Assembly                                                            *)
(* ------------------------------------------------------------------ *)

let build jobs cache_dir cache_max_mb no_cache adaptive rciw_target
    max_experiments retries backoff_ms resilience_seed timeout sim_budget
    faults journal resume trace_out metrics_out snapshot_out history_append
    trace_detail profile profile_folded plan =
  let cache =
    if no_cache then None
    else
      Some
        (Mt_parallel.Cache.create
           ~dir:
             (Option.value ~default:(Mt_parallel.Cache.default_dir ())
                cache_dir)
           ?max_bytes:(Option.map (fun mb -> mb * 1024 * 1024) cache_max_mb)
           ())
  in
  let policy =
    Mt_resilience.Policy.make ~retries
      ~backoff_base_s:(backoff_ms /. 1000.)
      ~backoff_seed:resilience_seed ?wall_budget_s:timeout ?sim_budget ()
  in
  Microtools.Study.Run_config.make ~domains:jobs ?cache
    ?adaptive:(if adaptive then Some (rciw_target, max_experiments) else None)
    ~policy ~faults ?journal_out:journal ?resume_from:resume ?trace_out
    ?metrics_out ?snapshot_out ?history_append ~trace_detail
    ~profile:(profile || profile_folded <> None)
    ?profile_folded ?plan ()

let term =
  Term.(
    const build $ jobs_arg $ cache_dir_arg $ cache_max_mb_arg $ no_cache_arg
    $ adaptive_arg
    $ rciw_target_arg $ max_exps_arg $ retries_arg $ backoff_ms_arg
    $ resilience_seed_arg $ timeout_arg $ sim_budget_arg $ faults_arg
    $ journal_arg $ resume_arg $ trace_arg $ metrics_arg $ snapshot_arg
    $ history_arg $ trace_detail_arg $ profile_arg $ profile_folded_arg
    $ plan_arg)

(* ------------------------------------------------------------------ *)
(* Shared runtime plumbing                                             *)
(* ------------------------------------------------------------------ *)

module Run_config = Microtools.Study.Run_config

let setup (config : t) =
  Mt_telemetry.set_detail config.Run_config.trace_detail;
  if
    config.Run_config.trace_out <> None
    || config.Run_config.metrics_out <> None
  then begin
    let tel = Mt_telemetry.create () in
    Mt_telemetry.set_global tel;
    tel
  end
  else Mt_telemetry.disabled

let finish tel (config : t) =
  Option.iter
    (fun path ->
      Mt_telemetry.write_chrome_trace tel path;
      Printf.printf
        "trace written to %s (open in chrome://tracing or Perfetto)\n" path)
    config.Run_config.trace_out;
  (* The output format follows the extension: FILE.prom gets Prometheus
     text exposition (same encoder as the mt_serve metrics endpoint),
     anything else the key,value CSV. *)
  Option.iter
    (fun path ->
      if Filename.check_suffix path ".prom" then begin
        Mt_telemetry.write_metrics_prometheus tel path;
        Printf.printf "metrics written to %s (Prometheus text format)\n" path
      end
      else begin
        Mt_telemetry.write_metrics_csv tel path;
        Printf.printf "metrics written to %s\n" path
      end)
    config.Run_config.metrics_out

(* The profile outputs every profiling binary shares: a breakdown
   table per profiled report on stdout and, with --profile-folded, one
   collapsed-stack file covering all of them (each variant a separate
   root frame).  A no-op unless the run was profiled. *)
let report_profiles (config : t) profiled =
  if profiled <> [] then begin
    List.iter
      (fun (key, b) -> print_string (Mt_profile.render ~label:key b))
      profiled;
    Option.iter
      (fun path ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            List.iter
              (fun (key, b) -> output_string oc (Mt_profile.folded ~root:key b))
              profiled);
        Printf.printf
          "folded profile written to %s (feed to flamegraph.pl or speedscope)\n"
          path)
      config.Run_config.profile_folded
  end

(* Archiving is best-effort by design: a full disk or unwritable
   archive must not fail the measurement that just completed — the
   numbers still print and any --snapshot-out file is already saved. *)
let append_history ?label (config : t) snap =
  Option.iter
    (fun dir ->
      match Mt_obsv.History.append ?label ~dir snap with
      | Ok entry ->
        Printf.printf "history: archived as %s (seq %d) in %s\n"
          entry.Mt_obsv.History.label entry.Mt_obsv.History.seq dir
      | Error msg -> Printf.eprintf "%s\n" msg)
    config.Run_config.history_append

let print_cache_stats (config : t) =
  match config.Run_config.cache with
  | Some c ->
    Printf.printf "cache: %d hits, %d misses, %.1f%% hit rate\n"
      (Mt_parallel.Cache.hits c) (Mt_parallel.Cache.misses c)
      (100. *. Mt_parallel.Cache.hit_rate c)
  | None -> ()

let run_summary (config : t) =
  let domains = Run_config.effective_domains config in
  Printf.sprintf "%d domain%s%s" domains
    (if domains = 1 then "" else "s")
    (match config.Run_config.cache with
    | Some c ->
      ", cache " ^ Option.value ~default:"memory" (Mt_parallel.Cache.dir c)
    | None -> ", cache off")

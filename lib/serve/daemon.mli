(** The persistent study daemon behind [mt_serve]: a Unix-domain
    listener, a bounded job queue, and a pool of worker threads that
    execute submissions through the {!Microtools.Study.Run_config}
    engine (each job still fans its variants out across the
    [Mt_parallel.Pool] domains the base config allows).

    Lifecycle: {!create} binds the socket (refusing a path with a live
    daemon, silently replacing a stale socket file), {!serve} blocks
    running the accept loop until a [shutdown] protocol message (or
    {!stop}) arrives, then drains the queue — every accepted job
    completes and streams its results before [serve] returns and the
    socket file is removed.

    Failure semantics: a malformed or unrunnable submission is rejected
    before it takes a queue slot; a full queue rejects with a typed
    [queue-full]; a job whose study raises streams a [failed] message
    but never takes the daemon down; a client that hangs up mid-stream
    only loses its own results.  With a [state_dir], each running job
    keeps a crash journal — a daemon killed mid-job leaves a
    [job-N.journal] checkpoint a later one-shot run can [--resume]. *)

type config = {
  socket_path : string;
  queue_capacity : int;  (** submissions held beyond the running ones *)
  workers : int;  (** concurrent jobs (each with [base]'s domains) *)
  state_dir : string option;  (** per-job crash journals live here *)
  history_dir : string option;
      (** archive every completed job's snapshot into this
          {!Mt_obsv.History} directory (best-effort; an unwritable
          archive never fails the job) *)
  log_json : bool;
      (** emit one structured JSON log line per job event
          ([job.accepted], [job.done], [job.failed], with queue-wait
          and execution latency) on stdout *)
  base : Microtools.Study.Run_config.t;
      (** domains, shared cache, trace routing for every job; the
          per-submission wire options overlay seed/adaptive/budgets/
          faults on top ({!Protocol.config_into_base}) *)
}

val default_config :
  ?base:Microtools.Study.Run_config.t -> string -> config
(** [default_config socket_path]: queue of 64, 2 workers, no state
    dir, no history archive, human log lines. *)

type t

val max_kept_variants : int
(** 4,096: how many generated variants, summed over studies, the daemon
    keeps for resubmissions.  A resubmission whose study is kept skips
    parsing and generation, and each of its cache keys is one digest.
    The table is keyed by the submission without its run options; a
    study that would take it past the bound empties it first, and one
    larger than the bound is not kept. *)

val create : config -> t
(** Bind and listen.  Raises [Failure] when the socket path already
    hosts a live daemon, [Unix.Unix_error] when it cannot bind. *)

val serve : t -> unit
(** Run the accept loop until shutdown; drains the queue before
    returning. *)

val run : config -> unit
(** [serve (create config)]. *)

val stop : t -> unit
(** Initiate shutdown from another thread (also triggered by the
    protocol [shutdown] message). *)

val stats : t -> (string * int) list
(** The counters served to a [stats] request: uptime (whole seconds),
    queue depth/capacity, jobs in flight/completed/failed, studies
    built from a submission and reused from the kept table, the
    variants the table holds, live
    p50/p90/p99 job queue-wait and execution latency (integer
    microseconds, present once at least one job has run under an
    enabled telemetry handle), and the shared cache's
    hits/misses/decode-failures/evictions when one is configured. *)

val metrics : t -> Protocol.metrics
(** The payload served to a [metrics] request: the {!stats} counters
    plus every telemetry counter, uptime as a float gauge, and each
    telemetry histogram as a quantile summary (p50/p90/p99 over the
    live window).  Render with {!Protocol.metrics_to_json} or
    {!Protocol.prometheus_of_metrics}. *)

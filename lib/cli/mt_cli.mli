(** The run-shaping command line shared by mt_study, mt_experiments,
    microlauncher and the bench harness.

    One Cmdliner {!term} parses every flag that shapes $(i,how) a run
    executes — [--jobs], [--cache-dir]/[--cache-max-mb]/[--no-cache],
    the adaptive measurement knobs, the run budgets ([--timeout],
    [--sim-budget]; a budget or [--rciw-target] that is not positive
    and finite is a usage error), fault injection ([--inject-fault]),
    checkpoint/resume ([--journal], [--resume]) and the observability
    outputs ([--trace-out], [--metrics-out], [--snapshot-out],
    [--history-append], [--trace-detail], [--profile],
    [--profile-folded]) — into one {!Microtools.Study.Run_config.t}.
    Binaries compose it with their kernel-specific arguments and must
    not re-declare any of these flags themselves. *)

type t = Microtools.Study.Run_config.t

val term : t Cmdliner.Term.t
(** The shared flag set as a Cmdliner term.  Builds the cache eagerly
    (unless [--no-cache]). *)

val serve_term : t Cmdliner.Term.t
(** The part of {!term} a daemon uses: [--jobs], the cache flags,
    [--trace-out], [--metrics-out] and [--trace-detail].  Each
    submission brings the run-shaping settings, and the daemon writes
    no snapshot, history entry, folded profile or journal from flags,
    so mt_serve refuses the rest as unknown options. *)

val submit_arg : string option Cmdliner.Term.t
(** The [--submit SOCKET] flag routing a run to an mt_serve daemon
    instead of measuring locally.  Kept out of {!term} so only binaries
    with a client mode (mt_study) declare it; they turn the parsed
    {!t} into wire options with [Mt_serve.Protocol.run_options_of_config]. *)

val setup : ?always:bool -> t -> Mt_telemetry.t
(** Apply [config.trace_detail] and, when [--trace-out] or
    [--metrics-out] was given or [always] (default [false]) is set,
    install and return a fresh global telemetry handle
    ({!Mt_telemetry.disabled} otherwise).  The handle keeps span events
    only when [--trace-out] was given, so a long-lived process that
    writes no trace holds bounded telemetry.  Call once, before any
    measurement. *)

val finish : Mt_telemetry.t -> t -> unit
(** Write the Chrome trace and metrics file requested by [config],
    announcing each path on stdout.  A [--metrics-out] path ending in
    [.prom] is written as Prometheus text exposition instead of the
    key,value CSV.  Call once, after the run. *)

val report_profiles : t -> (string * Mt_profile.breakdown) list -> unit
(** Print the bottleneck-attribution breakdown table of every
    [(label, breakdown)] pair and, when [--profile-folded] was given,
    write one collapsed-stack file covering all of them (each label a
    separate root frame).  A no-op on an empty list (the run was not
    profiled). *)

val append_history : ?label:string -> t -> Mt_obsv.Snapshot.t -> unit
(** Archive the run snapshot into [config.history_append]'s directory
    (a no-op when the flag was not given).  Best-effort: an archive
    failure is reported on stderr but never fails the run. *)

val print_cache_stats : t -> unit
(** The one-line [cache: H hits, M misses, R% hit rate] digest every
    binary prints (a no-op with [--no-cache]). *)

val run_summary : t -> string
(** ["N domains, cache DIR"] — the run-shape fragment the binaries
    embed in their banner lines. *)

(** The end-to-end MicroTools workflow of Section 2: describe a kernel
    once, let MicroCreator generate the variation space, run every
    variant through MicroLauncher under one set of options, and compare
    — "testing slight variations in the code or runtime environment to
    help automate the tuning process". *)

open Mt_creator
open Mt_launcher

type t

val create :
  ?ctx:Pass.context -> ?pipeline:Pass.pipeline -> Spec.t -> Options.t -> t

val of_description :
  ?ctx:Pass.context -> string -> Options.t -> (t, string) result
(** Build a study from an XML description document. *)

val variants : t -> Variant.t list
(** The generated variation space (computed once, cached). *)

(** How a run executes, gathered into one value instead of a growing
    pile of optional arguments: parallelism, caching, seeding, the
    adaptive-measurement budget, the wall-clock and simulated-instruction
    budgets, injected faults, the checkpoint journal, and the
    observability outputs.  {!Mt_cli} builds one of these from the
    shared command-line flags; library callers use {!Run_config.make}
    or update {!Run_config.default} as a record,
    [{ Run_config.default with seed = Some 7 }]. *)
module Run_config : sig
  type t = {
    domains : int;
        (** worker domains; [<= 0] means one per available core *)
    cache : Mt_parallel.Cache.t option;  (** result cache, if any *)
    seed : int option;  (** overrides [Options.quality_seed] *)
    adaptive : (float * int) option;
        (** [(rciw_target, max_experiments)]: turn on adaptive
            measurement with this stop rule and budget *)
    wall_budget_s : float option;
        (** wall-clock budget per unit of work, checked after it
            returns: a unit that took longer is quarantined as a
            timeout *)
    sim_budget : int option;
        (** simulated-instruction budget per unit of work, clamped
            onto [Options.max_instructions] by {!apply_options} *)
    faults : Mt_resilience.Fault.t list;  (** injected faults *)
    journal_out : string option;  (** write a checkpoint journal here *)
    resume_from : string option;  (** skip work recorded in this journal *)
    trace_out : string option;  (** Chrome trace output (binaries) *)
    metrics_out : string option;  (** metrics CSV output (binaries) *)
    snapshot_out : string option;  (** run snapshot output (binaries) *)
    history_append : string option;
        (** also archive the run snapshot into this history directory
            (binaries; see [Mt_obsv.History]) *)
    trace_detail : Mt_telemetry.detail;
    profile : bool;
        (** record bottleneck attribution during measured calls and
            attach the breakdown to every report (and snapshot) *)
    profile_folded : string option;
        (** write a folded-stack flamegraph of the attribution here
            (binaries; implies [profile]) *)
  }

  val default : t
  (** 1 domain, no cache, no seed override, no adaptive override, no
      budgets, no faults, no journal, no outputs. *)

  val make :
    ?domains:int ->
    ?cache:Mt_parallel.Cache.t ->
    ?seed:int ->
    ?adaptive:float * int ->
    ?wall_budget_s:float ->
    ?sim_budget:int ->
    ?faults:Mt_resilience.Fault.t list ->
    ?journal_out:string ->
    ?resume_from:string ->
    ?trace_out:string ->
    ?metrics_out:string ->
    ?snapshot_out:string ->
    ?history_append:string ->
    ?trace_detail:Mt_telemetry.detail ->
    ?profile:bool ->
    ?profile_folded:string ->
    unit ->
    t

  val effective_domains : t -> int
  (** [domains], resolving [<= 0] to
      {!Mt_parallel.Pool.available_domains}. *)

  val apply_options : t -> Options.t -> Options.t
  (** The launcher options as the run will actually use them: [seed]
      into [quality_seed], [adaptive] into the adaptive knobs,
      [profile] into [Options.profile], [sim_budget] clamped onto
      [max_instructions].  {!run}
      applies this itself; exposed for callers that build options
      elsewhere (e.g. [microlauncher]). *)
end

(** Execution history the supervisor attaches to each variant. *)
type exec = {
  attempts : int;  (** attempts spent ([0] for a journal replay) *)
  quarantined : Mt_resilience.Supervisor.quarantine option;
      (** [Some _] when the supervisor gave up on the variant *)
  resumed : bool;  (** replayed from a [--resume] journal *)
}

(** One variant's fate in the study. *)
type outcome = {
  variant : Variant.t;
  result : (Report.t, string) result;
  exec : exec;
}

val run : ?config:Run_config.t -> t -> outcome list
(** Measure every variant under the study's launcher options, shaped
    and supervised by [config] (default {!Run_config.default}).

    Execution: variants are spread over
    [Run_config.effective_domains config] domains via
    {!Mt_parallel.Pool}; the simulator is pure per variant and results
    merge back in generation order, so a parallel run's outcome list —
    and therefore its {!csv} — is byte-identical to a sequential one.
    [config.cache] short-circuits variants whose (program text,
    options, machine) triple was measured before.

    Supervision: each variant launch runs once under
    {!Mt_resilience.Supervisor.supervise} with [config.wall_budget_s] —
    a crashing or over-budget variant degrades to an [Error] outcome
    flagged in [exec.quarantined] instead of killing the study.
    [config.faults] injects deterministic failures by variant index
    (corrupt-cache faults plant garbage at the variant's cache key
    before launching it).

    Each variant's {!cache_key} is computed once per run and serves
    the journal, the corrupt-cache fault and the cache lookup.  The
    study keeps each variant's fingerprint from its first run on, and
    a run marshals its options and machine once, so a key costs one
    digest.  A study that has run once is only read by later runs, so
    threads may share it ([mt_serve] keeps studies for resubmissions).

    Checkpointing: with [config.journal_out], every completed variant
    (including quarantined ones) is appended to a crash-safe journal
    keyed by {!cache_key}; with [config.resume_from], variants found in
    that journal are replayed from it ([exec.resumed]) and only the
    rest are measured.  Resumed and fresh runs produce byte-identical
    {!csv} output.
    @raise Failure when [config.resume_from] cannot be read.

    When the global {!Mt_telemetry} handle is enabled, the run is a
    [study.run] span containing [study.variant] and
    [resilience.attempt] spans, [sim.variants] plus the
    [resilience.timeout/quarantine/fault.injected/resume.*]
    counters. *)

val cache_key : Options.t -> Variant.t -> string
(** The content address {!run} uses: a digest of the variant's
    fingerprint (id, unroll, lowered program text, ABI), the launcher
    options (minus output-routing fields) and the effective machine
    config.  Also the journal key for checkpoint/resume. *)

val cached_launch :
  ?cache:Mt_parallel.Cache.t ->
  Options.t -> Variant.t -> (Report.t, string) result
(** One variant through the launcher, routed through the cache under
    its {!cache_key} — {!Experiments}' launch primitive, and the path
    {!run} takes with the key it has already computed. *)

val successes : outcome list -> (Variant.t * Report.t) list

val quarantined : outcome list -> (Variant.t * Mt_resilience.Supervisor.quarantine) list
(** The variants the supervisor gave up on, with their verdicts. *)

val resumed_count : outcome list -> int
(** How many outcomes were replayed from the resume journal. *)

val best : outcome list -> (Variant.t * Report.t) option
(** The variant with the lowest measured value. *)

val by_unroll : outcome list -> (int * (Variant.t * Report.t) list) list
(** Successful outcomes grouped by unroll factor, ascending — the
    grouping behind Figures 5, 11, 12, 17, 18. *)

val min_per_unroll : outcome list -> (int * float) list
(** The paper's per-unroll-group minimum ("for each unroll group, the
    minimum value was taken"). *)

val csv : outcome list -> Mt_stats.Csv.t
(** Variant id, unroll, decisions, measured value (or error), the
    series' quality verdict, and a flags column carrying
    {!Report.quarantine_flag} for quarantined variants.  Attempt counts
    and resume provenance are deliberately excluded so resumed and
    uninterrupted runs emit byte-identical CSVs. *)

val quality_summary : outcome list -> int * int * int
(** [(stable, noisy, unstable)] verdict counts over the successful
    outcomes — the one-line quality digest the CLIs print. *)

val kernel_hash : t -> string
(** Content digest of the kernel description — two studies with the
    same spec hash alike regardless of options. *)

val snapshot :
  ?tool:string -> ?config:Run_config.t -> t -> outcome list -> Mt_obsv.Snapshot.t
(** A run manifest for these outcomes: kernel/machine content hashes,
    the summary of the options the run used ({!Run_config.apply_options}
    of [config], default {!Run_config.default}), the noise seed, a
    per-variant statistical summary (keyed by variant id, for
    {!Mt_obsv.Diff} matching; failed variants are counted in
    [variant_count] but carry no stats), the quarantined variant ids
    (schema 3), and the current global telemetry counters.

    Each variant's stats are its report's own [summary] and [quality]
    ({!Mt_obsv.Snapshot.of_assessment}); nothing is re-assessed, so the
    snapshot's verdicts and RCIWs are the CSV's, under the run's
    [Run_config.seed]. *)

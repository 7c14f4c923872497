(** One reproduction per figure and table of the paper's evaluation.

    Every function runs the corresponding experiment on the machine
    model and returns a printable {!Exp_table.t} carrying the paper's
    expectation alongside the measured series.  [quick] shrinks array
    sizes, sweep widths and repetition counts so the whole suite runs
    in seconds (used by tests); the default parameters match the
    experiment index in DESIGN.md.

    Machine mapping (Table 1): Figures 3–5 and 11–14 run on the
    dual-socket X5650 preset, Figures 15–16 on the quad-socket X7550,
    Figures 17–18 and Table 2 on the Sandy Bridge E3-1240. *)

val set_run_config : Study.Run_config.t -> unit
(** Set the run config every experiment's variant launches use: its
    [cache] routes them through {!Study.cached_launch}, and
    {!Study.Run_config.apply_options} shapes their options (adaptive
    budget, profiling, seed, sim budget) as in a study.  The binaries
    set it from the shared [Mt_cli] flags; the default is
    {!Study.Run_config.default}, always-fresh fixed-count simulation. *)

val fig03 : ?quick:bool -> unit -> Exp_table.t
(** Matmul cycles/iteration vs matrix size: the memory-hierarchy
    staircase with a cliff around size 500. *)

val fig04 : ?quick:bool -> unit -> Exp_table.t
(** Matmul 200×200 under different matrix alignments: variation below
    3 %. *)

val fig05 : ?quick:bool -> unit -> Exp_table.t
(** Matmul unroll factors 1–8, original code vs the MicroCreator
    micro-benchmark: both improve by a similar high-single-digit
    percentage, and the two series track each other. *)

val fig11 : ?quick:bool -> unit -> Exp_table.t
(** movaps load/store streams: cycles per instruction vs unroll factor
    across L1/L2/L3/RAM. *)

val fig12 : ?quick:bool -> unit -> Exp_table.t
(** Same with movss. *)

val fig13 : ?quick:bool -> unit -> Exp_table.t
(** 8-unrolled movaps loads measured in rdtsc cycles while the core
    clock sweeps: L1/L2 timings scale with frequency, L3/RAM do not. *)

val fig14 : ?quick:bool -> unit -> Exp_table.t
(** Fork mode, 8-load movaps kernel from RAM, 1–12 cores on the
    dual-socket machine: flat to 6 cores, then rising. *)

val fig15 : ?quick:bool -> unit -> Exp_table.t
(** Multi-array movss traversal on 8 of 32 cores under an alignment
    sweep: a wide cycles-per-iteration band (paper: 20→33). *)

val fig16 : ?quick:bool -> unit -> Exp_table.t
(** Same with a 32-core execution (paper: 60→90). *)

val fig17 : ?quick:bool -> unit -> Exp_table.t
(** movss unroll 1–8, sequential vs OpenMP, 128k-element array:
    OpenMP wins by a large factor; min/max across runs are tight. *)

val fig18 : ?quick:bool -> unit -> Exp_table.t
(** Same with a RAM-resident array: the OpenMP gain shrinks. *)

val tab01 : ?quick:bool -> unit -> Exp_table.t
(** The machine presets standing in for Table 1. *)

val tab02 : ?quick:bool -> unit -> Exp_table.t
(** Extrapolated wall-clock seconds, OpenMP vs sequential, per unroll
    factor: OpenMP flat, sequential decreasing. *)

val gen_counts : ?quick:bool -> unit -> Exp_table.t
(** Section 3/5.1 generator claims: 510 variants from the single
    (Load|Store)+ description, 4 × 510 = 2040 from the move-width
    description. *)

val ablation : ?quick:bool -> unit -> Exp_table.t
(** Beyond the paper: each machine-model mechanism (prefetcher, TLB,
    alias replays, split penalty) toggled off on the diagnostic
    workload whose published shape it produces. *)

val energy : ?quick:bool -> unit -> Exp_table.t
(** Beyond the paper's figures: the "power utilization" axis —
    energy per element across clocks and unroll factors. *)

val parmodes : ?quick:bool -> unit -> Exp_table.t
(** Beyond the paper: all four execution modes (sequential, fork,
    OpenMP, MPI) on one kernel, cache- vs RAM-resident. *)

val tiling : ?quick:bool -> unit -> Exp_table.t
(** The Section 2 pay-off: tiling the matmul past the Fig. 3 cut-off
    restores the small-matrix rate. *)

val portability : ?quick:bool -> unit -> Exp_table.t
(** Section 5's "deployed on each architecture without any additional
    work": one description measured on all three machine presets. *)

val stability : ?quick:bool -> unit -> Exp_table.t
(** Section 4.7's claim as data: run-to-run spread with each stability
    feature (pinning, interrupt masking, warm-up) toggled off. *)

val all : ?quick:bool -> unit -> Exp_table.t list
(** Every experiment, in paper order (extensions last). *)

val by_id : string -> (?quick:bool -> unit -> Exp_table.t) option
(** Look up an experiment by its id ("fig11", "tab02", ...). *)

val ids : string list

val profiles : unit -> (string * Mt_profile.breakdown) list
(** The breakdowns collected since the process started (launches under
    a run config with [profile] on), labelled
    [<variant-id>@<array-KB>] (the same variant is measured at several
    hierarchy levels) and sorted by label with duplicates collapsed,
    so parallel figure execution cannot reorder the output. *)

(** One experiment's fate in a supervised batch. *)
type table_outcome =
  | Table of Exp_table.t
  | Quarantined of Mt_resilience.Supervisor.quarantine
      (** the experiment crashed or blew its wall budget *)
  | Unknown  (** no experiment registered under that id *)

val run_tables :
  ?quick:bool ->
  config:Study.Run_config.t ->
  string list ->
  (string * table_outcome) list
(** Run the named experiments in request order, spread over
    [Run_config.effective_domains config] domains, each under
    {!Mt_resilience.Supervisor.supervise} with [config.wall_budget_s]:
    one figure whose helpers raise degrades to [Quarantined] instead of
    aborting the batch.  [config.faults] injects failures by position
    in [ids] (corrupt-cache faults are ignored here — they target
    variant cache entries).  Call {!set_run_config} first so the
    launches see the batch's cache and option settings. *)

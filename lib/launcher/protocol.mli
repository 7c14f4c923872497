(** MicroLauncher's measurement engine (Sections 4.5, 4.7 and the
    Figure 10 pseudo-code): allocate arrays at controlled alignments,
    heat the caches with one un-timed call, run an outer loop of
    experiments each timing an inner loop of kernel calls, subtract the
    call overhead, and normalise to the requested unit. *)

open Mt_creator

type prepared
(** A kernel bound to a machine, a memory pipeline and allocated
    arrays, ready to run. *)

val prepare :
  ?sharers:int ->
  ?passes:int ->
  ?start_pass:int ->
  ?noise_salt:int ->
  Options.t ->
  Mt_isa.Insn.program ->
  Abi.t ->
  (prepared, string) result
(** Bind a kernel.  [sharers] is how many cores contend for DRAM
    (parallel modes); [passes] overrides the loop passes per call
    (default: one traversal of the array, or [opts.trip_passes]);
    [start_pass] begins the traversal that many passes into each array
    (OpenMP chunking); [noise_salt] decorrelates the noise of sibling
    processes. *)

val default_passes : Options.t -> Abi.t -> int
(** The loop passes per call {!prepare} binds when given no [passes]:
    [opts.trip_passes], else one traversal of an [opts.array_bytes]
    array. *)

val recycle : prepared -> unit
(** Offer the kernel's memory pipeline to the next {!prepare} of the
    same machine and sharer count ({!Mt_machine.Memory.recycle}).
    Call it only once the report is built, since {!report_of_totals}
    reads the pipeline's counters.  A recycled [prepared] must not run
    or report again. *)

val passes_per_call : prepared -> int

val array_bases : prepared -> int list
(** Allocated base addresses (alignment tests inspect these). *)

val run_once : prepared -> (Mt_machine.Core.outcome, string) result
(** A single kernel call against the current cache state.

    When the global telemetry handle is enabled and
    {!Mt_telemetry.detail} is not [Off], the call also records deep
    trace lanes: one complete event per sampled dynamic instruction
    (name = disassembly, ["pc"] argument, ts = issue cycle, duration =
    issue-to-completion cycles) and three ["cache.L1"/"cache.L2"/
    "cache.L3"] counter series carrying each cache's hit/miss counts
    since the call started, all on a simulated-time track ([tid] =
    1,000,000 + domain id).  With detail [Off] the simulate path is
    byte-for-byte the plain {!Mt_machine.Core.run} call — no closure,
    no allocation. *)

val measure : ?mode:string -> prepared -> (Report.t, string) result
(** The full protocol.  The reported value and per-experiment series
    are in the unit implied by the options ([rdtsc] reference cycles by
    default), divided by the per-unit count ([Per_pass] by default). *)

val measure_totals : prepared -> (float list * int, string) result
(** The raw protocol: un-perturbed per-experiment core-cycle totals
    plus the kernel-reported pass count.  Parallel modes reuse one
    simulation across symmetric processes and apply per-process noise
    via {!report_of_totals}. *)

val report_of_totals :
  ?mode:string ->
  ?noise:Mt_machine.Noise.t ->
  prepared ->
  actual_passes:int ->
  float list ->
  Report.t
(** Normalise raw totals into a report (noise, overhead subtraction,
    unit conversion, per-unit division).  With
    [opts.drop_first_experiment] the first total is discarded {e before}
    the overhead-exceeded flag is computed — and only when another
    total follows, so a singleton list is reported as-is instead of
    crashing.  @raise Invalid_argument on an empty totals list (the
    message names the kernel). *)

val overhead_cycles : prepared -> float
(** The per-call overhead the protocol subtracts (function-call cost
    plus an empty kernel's cycles), in core cycles. *)

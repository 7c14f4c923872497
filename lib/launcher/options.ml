type per_unit = Per_pass | Per_instruction | Per_element | Per_call

type eval_method = Rdtsc | Wallclock_ns

type omp_schedule = Omp_static | Omp_dynamic | Omp_guided

type t = {
  machine : Mt_machine.Config.t;
  frequency_ghz : float option;
  pin_core : int option;
  pinned : bool;
  interrupts_masked : bool;
  noise_seed : int;
  function_name : string option;
  nbvectors : int option;
  array_bytes : int;
  element_bytes : int;
  alignments : int list;
  alignment_modulus : int;
  trip_passes : int option;
  repetitions : int;
  experiments : int;
  warmup : bool;
  subtract_overhead : bool;
  call_overhead_cycles : float;
  max_instructions : int;
  cores : int;
  openmp_threads : int;
  openmp_chunk : int option;
  openmp_schedule : omp_schedule;
  local_alloc : bool;
  ram_sharers : int option;
  mpi_ranks : int;
  mpi_halo_bytes : int option;
  eval_method : eval_method;
  per : per_unit;
  csv_path : string option;
  emit_full_times : bool;
  verbose : bool;
  keep_failures : bool;
  drop_first_experiment : bool;
  adaptive_experiments : bool;
  rciw_target : float;
  max_experiments : int;
  quality_seed : int;
  quality : Mt_quality.thresholds;
  profile : bool;
}

let count = 40

let default machine =
  {
    machine;
    frequency_ghz = None;
    pin_core = Some 0;
    pinned = true;
    interrupts_masked = true;
    noise_seed = 42;
    function_name = None;
    nbvectors = None;
    array_bytes = 64 * 1024;
    element_bytes = 4;
    alignments = [];
    alignment_modulus = 4096;
    trip_passes = None;
    repetitions = 4;
    experiments = 10;
    warmup = true;
    subtract_overhead = true;
    call_overhead_cycles = 25.;
    max_instructions = 50_000_000;
    cores = 1;
    openmp_threads = 0;
    openmp_chunk = None;
    openmp_schedule = Omp_static;
    local_alloc = true;
    ram_sharers = None;
    mpi_ranks = 0;
    mpi_halo_bytes = None;
    eval_method = Rdtsc;
    per = Per_pass;
    csv_path = None;
    emit_full_times = false;
    verbose = false;
    keep_failures = false;
    drop_first_experiment = false;
    adaptive_experiments = false;
    rciw_target = 0.02;
    max_experiments = 64;
    quality_seed = 42;
    quality = Mt_quality.default_thresholds;
    profile = false;
  }

let effective_machine t =
  match t.frequency_ghz with
  | None -> t.machine
  | Some ghz -> Mt_machine.Config.with_core_ghz t.machine ghz

let noise_env t =
  {
    Mt_machine.Noise.pinned = t.pinned;
    interrupts_masked = t.interrupts_masked;
    warmed = t.warmup;
  }

let alignment_for t i =
  match t.alignments with
  | [] -> 0
  | alignments -> List.nth alignments (i mod List.length alignments)

let summary t =
  let b = Printf.sprintf in
  let opt f = function None -> "default" | Some v -> f v in
  let per = function
    | Per_pass -> "pass"
    | Per_instruction -> "instruction"
    | Per_element -> "element"
    | Per_call -> "call"
  in
  let eval = function Rdtsc -> "rdtsc" | Wallclock_ns -> "wallclock-ns" in
  let sched = function
    | Omp_static -> "static"
    | Omp_dynamic -> "dynamic"
    | Omp_guided -> "guided"
  in
  [
    ("machine", t.machine.Mt_machine.Config.name);
    ("frequency_ghz", opt (b "%g") t.frequency_ghz);
    ("pin_core", opt string_of_int t.pin_core);
    ("pinned", string_of_bool t.pinned);
    ("interrupts_masked", string_of_bool t.interrupts_masked);
    ("noise_seed", string_of_int t.noise_seed);
    ("function_name", opt Fun.id t.function_name);
    ("nbvectors", opt string_of_int t.nbvectors);
    ("array_bytes", string_of_int t.array_bytes);
    ("element_bytes", string_of_int t.element_bytes);
    ("alignments", String.concat "," (List.map string_of_int t.alignments));
    ("alignment_modulus", string_of_int t.alignment_modulus);
    ("trip_passes", opt string_of_int t.trip_passes);
    ("repetitions", string_of_int t.repetitions);
    ("experiments", string_of_int t.experiments);
    ("warmup", string_of_bool t.warmup);
    ("subtract_overhead", string_of_bool t.subtract_overhead);
    ("call_overhead_cycles", b "%g" t.call_overhead_cycles);
    ("max_instructions", string_of_int t.max_instructions);
    ("cores", string_of_int t.cores);
    ("openmp_threads", string_of_int t.openmp_threads);
    ("openmp_chunk", opt string_of_int t.openmp_chunk);
    ("openmp_schedule", sched t.openmp_schedule);
    ("local_alloc", string_of_bool t.local_alloc);
    ("ram_sharers", opt string_of_int t.ram_sharers);
    ("mpi_ranks", string_of_int t.mpi_ranks);
    ("mpi_halo_bytes", opt string_of_int t.mpi_halo_bytes);
    ("eval_method", eval t.eval_method);
    ("per", per t.per);
    ("emit_full_times", string_of_bool t.emit_full_times);
    ("keep_failures", string_of_bool t.keep_failures);
    ("drop_first_experiment", string_of_bool t.drop_first_experiment);
    ("adaptive_experiments", string_of_bool t.adaptive_experiments);
    ("rciw_target", b "%g" t.rciw_target);
    ("max_experiments", string_of_int t.max_experiments);
    ("quality_seed", string_of_int t.quality_seed);
    ("quality_thresholds", Mt_quality.thresholds_summary t.quality);
    ("profile", string_of_bool t.profile);
  ]

let err fmt = Printf.ksprintf (fun s -> Error s) fmt

let validate t =
  let ( let* ) = Result.bind in
  let* () = if t.array_bytes <= 0 then err "array_bytes must be positive" else Ok () in
  let* () = if t.repetitions < 1 then err "repetitions must be >= 1" else Ok () in
  let* () = if t.experiments < 1 then err "experiments must be >= 1" else Ok () in
  let* () =
    if t.drop_first_experiment && t.experiments < 2 then
      err "drop_first_experiment requires at least 2 experiments"
    else Ok ()
  in
  let* () =
    if t.adaptive_experiments && t.max_experiments < t.experiments then
      err "max_experiments (%d) must be >= experiments (%d) in adaptive mode"
        t.max_experiments t.experiments
    else Ok ()
  in
  let* () =
    if t.adaptive_experiments
       && not (Float.is_finite t.rciw_target && t.rciw_target > 0.)
    then err "rciw_target must be positive and finite in adaptive mode"
    else Ok ()
  in
  let* () = if t.cores < 1 then err "cores must be >= 1" else Ok () in
  let* () = if t.openmp_threads < 0 then err "openmp_threads must be >= 0" else Ok () in
  let* () = if t.mpi_ranks < 0 then err "mpi_ranks must be >= 0" else Ok () in
  let* () =
    if t.alignment_modulus <= 0 || t.alignment_modulus land (t.alignment_modulus - 1) <> 0
    then err "alignment_modulus must be a power of two"
    else Ok ()
  in
  let* () =
    if List.exists (fun a -> a < 0 || a >= t.alignment_modulus) t.alignments then
      err "alignment offsets must lie in [0, modulus)"
    else Ok ()
  in
  let* () =
    match t.frequency_ghz with
    | Some f when f <= 0. -> err "frequency override must be positive"
    | Some _ | None -> Ok ()
  in
  let cores_available = Mt_machine.Config.core_count (effective_machine t) in
  let* () =
    if t.cores > cores_available then
      err "fork mode asks for %d cores, machine has %d" t.cores cores_available
    else Ok ()
  in
  let* () =
    if t.openmp_threads > cores_available then
      err "OpenMP asks for %d threads, machine has %d cores" t.openmp_threads cores_available
    else Ok ()
  in
  let* () =
    if t.mpi_ranks > cores_available then
      err "MPI asks for %d ranks, machine has %d cores" t.mpi_ranks cores_available
    else Ok ()
  in
  match t.pin_core with
  | Some c when c < 0 || c >= cores_available ->
    err "pin core %d out of range [0, %d)" c cores_available
  | Some _ | None -> Ok ()

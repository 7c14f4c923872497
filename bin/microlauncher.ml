(* MicroLauncher command line: run one benchmark kernel (a MicroCreator
   .s file, or a plain C kernel) in the stable measurement environment.

   Run-shaping flags (--cache-dir, --timeout, --inject-fault,
   --trace-out, ...) are the shared Mt_cli set; the single launch runs
   once under the same supervisor as a study variant, so a crashing or
   hung kernel is reported as quarantined instead of taking the process
   down with a backtrace.  --journal/--resume, --jobs and the result
   cache have nothing to checkpoint, parallelise or memoise over a
   single ad-hoc launch and are accepted but inert. *)

open Cmdliner
open Mt_launcher

let analyze_kernel opts source =
  match Source.load source with
  | Error msg -> Printf.eprintf "microlauncher: %s\n" msg
  | Ok (program, abi) -> (
    match Protocol.prepare opts program abi with
    | Error msg -> Printf.eprintf "microlauncher: %s\n" msg
    | Ok prepared -> (
      ignore (Protocol.run_once prepared);
      match Protocol.run_once prepared with
      | Error msg -> Printf.eprintf "microlauncher: %s\n" msg
      | Ok outcome ->
        let machine = Options.effective_machine opts in
        Printf.printf "analysis: %s\n" (Microtools.Analysis.describe machine outcome);
        Printf.printf "energy:   %.2f nJ/pass, %.2f W average\n"
          (Mt_machine.Energy.energy_per_iteration_nj machine outcome)
          (Mt_machine.Energy.average_power_w machine outcome)))

let run input function_name machine machine_file freq array_kb alignments repetitions experiments
    cores openmp schedule chunk mpi halo per csv no_warmup no_pin seed
    analyze verbose config =
  let tel = Mt_cli.setup config in
  let resolved =
    match machine_file with
    | Some path -> (
      match Mt_machine.Config_io.of_file path with
      | Ok cfg -> Some cfg
      | Error msg ->
        Printf.eprintf "microlauncher: %s: %s\n" path msg;
        None)
    | None -> (
      match Mt_machine.Config.find_preset machine with
      | Some cfg -> Some cfg
      | None ->
        Printf.eprintf "microlauncher: unknown machine %s (known: %s)\n" machine
          (String.concat ", " (List.map fst Mt_machine.Config.presets));
        None)
  in
  match resolved with
  | None -> 2
  | Some cfg -> (
    let per =
      match per with
      | "pass" -> Options.Per_pass
      | "instruction" -> Options.Per_instruction
      | "element" -> Options.Per_element
      | _ -> Options.Per_call
    in
    let openmp_schedule =
      match schedule with
      | "dynamic" -> Options.Omp_dynamic
      | "guided" -> Options.Omp_guided
      | _ -> Options.Omp_static
    in
    let opts =
      {
        (Options.default cfg) with
        Options.frequency_ghz = freq;
        array_bytes = array_kb * 1024;
        alignments;
        repetitions;
        experiments;
        cores;
        openmp_threads = openmp;
        openmp_schedule;
        openmp_chunk = chunk;
        mpi_ranks = mpi;
        mpi_halo_bytes = halo;
        per;
        csv_path = csv;
        warmup = not no_warmup;
        pinned = not no_pin;
        noise_seed = seed;
        verbose;
      }
    in
    let opts = Microtools.Study.Run_config.apply_options config opts in
    let source =
      if Filename.check_suffix input ".mto" || function_name <> None then
        Source.From_object (input, function_name)
      else Source.From_file input
    in
    let fault =
      match Mt_resilience.Fault.find config.Microtools.Study.Run_config.faults ~index:0 with
      | Some { Mt_resilience.Fault.kind = Corrupt_cache_entry; _ } -> None
      | f -> f
    in
    let code =
      match
        Mt_resilience.Supervisor.supervise ?fault
          ?wall_budget_s:config.Microtools.Study.Run_config.wall_budget_s
          ~key:input
          (fun () -> Launcher.launch opts source)
      with
      | Mt_resilience.Supervisor.Quarantined q ->
        Printf.eprintf "microlauncher: %s\n"
          (Mt_resilience.Supervisor.quarantine_to_string q);
        1
      | Mt_resilience.Supervisor.Done (Error msg) ->
        Printf.eprintf "microlauncher: %s\n" msg;
        1
      | Mt_resilience.Supervisor.Done (Ok report) ->
        Format.printf "%a@." Report.pp report;
        Mt_cli.report_profiles config
          (match report.Report.profile with
          | Some b -> [ (Filename.basename input, b) ]
          | None -> []);
        if analyze then analyze_kernel opts source;
        0
    in
    Mt_cli.finish tel config;
    code)

let input_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"KERNEL" ~doc:"Kernel file: MicroCreator .s output or a plain C kernel (.c).")

let function_arg =
  Arg.(value & opt (some string) None & info [ "function" ] ~docv:"NAME" ~doc:"Entry point inside a .mto object container.")

let machine_arg =
  Arg.(value & opt string "nehalem_x5650_2s" & info [ "machine" ] ~doc:"Machine preset.")

let machine_file_arg =
  Arg.(value & opt (some file) None & info [ "machine-file" ] ~docv:"XML" ~doc:"Load the machine description from an XML file (see machines/).")

let freq_arg =
  Arg.(value & opt (some float) None & info [ "frequency" ] ~docv:"GHZ" ~doc:"Core clock override.")

let array_arg =
  Arg.(value & opt int 64 & info [ "array-kb" ] ~doc:"Size of each kernel array in KiB.")

let align_arg =
  Arg.(value & opt_all int [] & info [ "align" ] ~docv:"OFFSET" ~doc:"Per-array alignment offset (repeatable).")

let reps_arg = Arg.(value & opt int 4 & info [ "repetitions" ] ~doc:"Kernel calls per experiment.")

let exps_arg = Arg.(value & opt int 10 & info [ "experiments" ] ~doc:"Measured experiments.")

let cores_arg = Arg.(value & opt int 1 & info [ "cores" ] ~doc:"Fork-mode process count.")

let openmp_arg = Arg.(value & opt int 0 & info [ "openmp" ] ~docv:"THREADS" ~doc:"OpenMP thread count (0 = off).")

let schedule_arg =
  Arg.(value & opt (enum [ ("static", "static"); ("dynamic", "dynamic"); ("guided", "guided") ]) "static"
       & info [ "schedule" ] ~doc:"OpenMP loop schedule.")

let chunk_arg =
  Arg.(value & opt (some int) None & info [ "chunk" ] ~docv:"SIZE" ~doc:"OpenMP chunk size.")

let mpi_arg = Arg.(value & opt int 0 & info [ "mpi" ] ~docv:"RANKS" ~doc:"SPMD/MPI rank count (0 = off).")

let halo_arg =
  Arg.(value & opt (some int) None & info [ "halo" ] ~docv:"BYTES" ~doc:"MPI halo-exchange bytes per phase (default: barrier only).")

let per_arg =
  Arg.(value & opt (enum [ ("pass", "pass"); ("instruction", "instruction"); ("element", "element"); ("call", "call") ]) "pass"
       & info [ "per" ] ~doc:"Report cycles per pass, instruction, element or call.")

let csv_arg = Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc:"Write the result CSV to $(docv).")

let no_warmup_arg = Arg.(value & flag & info [ "no-warmup" ] ~doc:"Skip the cache-heating call.")

let no_pin_arg = Arg.(value & flag & info [ "no-pin" ] ~doc:"Disable core pinning (noisier).")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Environment noise seed.")

let analyze_arg =
  Arg.(value & flag & info [ "analyze" ] ~doc:"Also print the bottleneck diagnosis and energy estimate.")

let verbose_arg = Arg.(value & flag & info [ "verbose" ] ~doc:"Chatty progress.")

let cmd =
  let doc = "execute a micro-benchmark program in a stable environment" in
  Cmd.v (Cmd.info "microlauncher" ~doc)
    Term.(
      const run $ input_arg $ function_arg $ machine_arg $ machine_file_arg $ freq_arg $ array_arg $ align_arg
      $ reps_arg $ exps_arg $ cores_arg $ openmp_arg $ schedule_arg $ chunk_arg
      $ mpi_arg $ halo_arg $ per_arg $ csv_arg $ no_warmup_arg $ no_pin_arg
      $ seed_arg $ analyze_arg $ verbose_arg $ Mt_cli.term)

let () = exit (Cmd.eval' cmd)

(* Multi-process cache stress: when re-exec'd with this variable set,
   the binary is one of the concurrent writer processes, not the test
   suite (see Parallel_tests.cache_stress_writer). *)
let () =
  match Sys.getenv_opt "MT_CACHE_STRESS_WRITER" with
  | Some spec -> Parallel_tests.cache_stress_writer spec
  | None -> ()

let () =
  Alcotest.run "microtools"
    [
      ("xml", Xml_tests.tests);
      ("stats", Stats_tests.tests);
      ("isa", Isa_tests.tests);
      ("machine", Machine_tests.tests);
      ("core-sim", Core_sim_tests.tests);
      ("fastpath", Fastpath_tests.tests);
      ("profile", Profile_tests.tests);
      ("creator", Creator_tests.tests);
      ("launcher", Launcher_tests.tests);
      ("openmp", Openmp_tests.tests);
      ("kernels", Kernels_tests.tests);
      ("study", Study_tests.tests);
      ("parallel", Parallel_tests.tests);
      ("resilience", Resilience_tests.tests);
      ("telemetry", Telemetry_tests.tests);
      ("obsv", Obsv_tests.tests);
      ("history", History_tests.tests);
      ("quality", Quality_tests.tests);
      ("serve", Serve_tests.suite);
      ("extensions", Extensions_tests.tests);
      ("cc", Cc_tests.tests);
      ("mpi", Mpi_tests.tests);
      ("regression", Regression_tests.tests);
      ("misc", Misc_tests.tests);
    ]

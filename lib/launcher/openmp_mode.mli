(** OpenMP execution mode (Section 5.2.3): the kernel's iteration space
    is split across [opts.openmp_threads] threads with libgomp-style
    static scheduling; each repetition is one parallel region with its
    fork/join overhead; threads contend for DRAM bandwidth. *)

open Mt_creator

val run : Options.t -> Mt_isa.Insn.program -> Abi.t -> (Report.t, string) result
(** Measure the kernel under OpenMP.  The per-unit divisor covers the
    whole iteration space (all threads together), so values compare
    directly against the sequential mode's.  A chunk whose call fails
    fails the launch with that call's error. *)

val region_cycles :
  Options.t -> Mt_isa.Insn.program -> Abi.t -> (float, string) result
(** Core cycles of a single parallel region, after one warm-up call
    per chunk (for tests and the Table 2 wall-time extrapolation).  The
    first chunk error, warm-up included, is returned. *)

(** The scoreboard core: a width-limited front end, port-constrained
    issue, RAW/WAW register dependences (no renaming — the reason the
    paper rotates XMM registers across unroll iterations), a finite
    instruction window, and data access times from {!Memory}.

    The simulation is cycle-accounting rather than cycle-stepped: each
    dynamic instruction's issue and completion times are computed from
    its dependences and resource availability, which is exact for the
    in-order-issue model and orders of magnitude faster to simulate. *)

type outcome = {
  cycles : float;  (** Core cycles from first fetch to last completion. *)
  instructions : int;  (** Dynamic instructions executed (labels excluded). *)
  rax : int;
      (** Final value of [%rax] — by the paper's Section 4.4 convention,
          the number of iterations the kernel executed. *)
  mem : Memory.counters;
  branches : int;
  mispredicts : int;
  loads : int;  (** Instructions that read memory on demand (no hints). *)
  stores : int;  (** Instructions that wrote memory. *)
  prefetches : int;
      (** Prefetch-hint instructions.  They warm the memory pipeline and
          occupy a load-port slot but never stall, so they are counted
          apart from demand [loads]. *)
  fp_ops : int;  (** Floating-point uops executed. *)
  alu_ops : int;  (** Integer/address uops executed. *)
}

type error =
  | Unallocated_register of string
      (** The program still contains a logical register. *)
  | Unknown_label of string
  | Alignment_fault of { pc : int; addr : int; required : int }
      (** An aligned SSE access hit a misaligned address (hardware would
          deliver #GP). *)
  | Fuel_exhausted of int
  | Invalid_instruction of string

val error_to_string : error -> string

type compiled
(** A program decoded for repeated execution. *)

val compile : Mt_isa.Insn.program -> (compiled, error) result
(** Resolve labels, validate instructions, and precompute scheduling
    metadata. *)

val run :
  ?init:(Mt_isa.Reg.t * int) list ->
  ?max_instructions:int ->
  ?trace:(int -> Mt_isa.Insn.t -> issue:float -> completion:float -> unit) ->
  ?attr:Attribution.t ->
  Config.t ->
  Memory.t ->
  compiled ->
  (outcome, error) result
(** Execute the program to its [ret] (or to the end of the listing).
    [init] sets initial register values (trip counts, array base
    addresses).  The memory pipeline keeps its cache contents across
    calls — that is how the launcher's warm-up run works — but its
    in-flight fill state is drained first.  [max_instructions] defaults
    to 50 million.

    This is the allocation-free basic-block replay engine: addressing,
    port lists and architectural effects are resolved once per program
    (cached on [compiled]) and the steady-state loop allocates no minor
    words per instruction on the non-memory path.  A call allocates
    nothing on the major heap either: its port-booking rings come from
    a free list shared by all domains and threads, and go back to it
    when the call returns.  A call in progress never shares its rings,
    so [run] may be called from a [trace] hook or from several threads
    at once.

    [attr] hooks an {!Attribution} sink: every dynamic instruction's
    binding constraint is recorded into it (same classifications as
    {!run_reference}).  When absent the hook costs one branch per
    instruction and the zero-allocation guarantee is unchanged. *)

val run_reference :
  ?init:(Mt_isa.Reg.t * int) list ->
  ?max_instructions:int ->
  ?attr:Attribution.t ->
  Config.t ->
  Memory.t ->
  compiled ->
  (outcome, error) result
(** The original per-instruction interpreter, kept as the oracle for
    the fast path: same cycle accounting, same memory-access order,
    bit-identical outcomes — including identical {!Attribution}
    records through [attr].  It reaches memory only through
    {!Memory.access}, which never reads the memo {!run} serves repeat
    accesses from, so comparing the two checks the memo too.  Slower;
    use {!run} unless comparing. *)

val run_program :
  ?init:(Mt_isa.Reg.t * int) list ->
  ?max_instructions:int ->
  Config.t ->
  Memory.t ->
  Mt_isa.Insn.program ->
  (outcome, error) result
(** [compile] + [run] in one step, for tests and one-shot uses. *)

val disassemble : compiled -> pc:int -> string
(** The source-syntax rendering of the instruction at [pc], for naming
    profile critical-path entries.  Out-of-range pcs render as
    ["<pc N>"]. *)

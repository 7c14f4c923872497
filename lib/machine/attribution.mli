(** Bottleneck attribution sink shared by both simulator engines.

    One {!observe} call per dynamic instruction (placed identically in
    [Core.run] and [Core.run_reference]) attributes each advance of
    the completion frontier to the constraint that was binding at
    issue time, accumulates a per-port uop pressure histogram, and
    records the RAW dependency chain for {!critical_path}.  The
    category cycle totals telescope exactly: after {!finish} their
    compensated sum equals the simulated [outcome.cycles].

    The sink never allocates after {!create}, so the engines hook it
    behind a single [match] without disturbing the fast path's
    zero-minor-words steady state when disabled. *)

type t

(** Number of attribution categories (13). *)
val categories : int

(** Stable display name of a category index. *)
val category_name : int -> string

(** Number of execution-port buckets (6, booker indexing). *)
val port_count : int

(** Display name of a booker index. *)
val port_name : int -> string

val create : unit -> t

(** Zero every accumulator (used after warm-up so the profile covers
    measured calls only). *)
val reset : t -> unit

(** Restart the per-call state (completion frontier, writer table,
    critical-path head) without clearing the category accumulators.
    The engines call this on entry, so attribution sums over every
    profiled call. *)
val begin_run : t -> unit

(** Record one dynamic instruction.  Must be called after the
    completion time is final and before the scoreboard update, with
    the engine's live [ready]/[wissue] arrays.  [t] is the readiness
    time before port booking, [bport] the booker index whose booking
    set the final issue time (-1 when booking did not raise it),
    [mem_extended] whether the memory pipeline pushed completion past
    [issue + latency], and [level] the serving level of the
    instruction's access (read only when [mem_extended]). *)
val observe :
  t ->
  pc:int ->
  dst:int ->
  srcs:int array ->
  reads_flags:bool ->
  sets_flags:bool ->
  window_ready:float ->
  fetch:float ->
  t:float ->
  issue:float ->
  completion:float ->
  mem_extended:bool ->
  level:Memory.level ->
  bport:int ->
  ready:float array ->
  wissue:float array ->
  unit

(** Count one uop booked on the given booker index. *)
val note_uop : t -> int -> unit

(** Close one run's accounting: attributes the fetch-frontier overhang
    past the last completion to the front end, so category totals sum
    to [Float.max last_completion fetch] — the simulated cycles. *)
val finish : t -> fetch:float -> unit

(** Compensated per-category cycle totals (length {!categories}). *)
val category_cycles : t -> float array

(** Dynamic instructions classified per category. *)
val category_insns : t -> int array

(** Uops booked per execution port (length {!port_count}). *)
val port_pressure : t -> int array

(** Compensated sum of every category — equals the attributed cycles
    exactly. *)
val total : t -> float

(** The RAW dependency chain ending at the latest completion, earliest
    instruction first: [(pc, completion, edge)] where [edge] is the
    latency this link added over its parent's completion. *)
val critical_path : ?max_hops:int -> t -> (int * float * float) list

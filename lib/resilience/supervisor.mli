(** Per-unit-of-work supervision: run a thunk once and degrade a unit
    that crashes or hangs to a {e quarantine} verdict instead of
    letting the exception kill the whole study.

    A failed unit is not run again.  The simulator makes each attempt a
    pure function of its inputs, so a second attempt could only repeat
    the failure; stable numbers come from the launcher's measurement
    protocol (warm-up, repetitions, experiments).

    Failure modes covered:
    - the thunk raises ("raise" quarantine kind);
    - the thunk finishes but blew its wall-clock budget ("timeout").
      The simulator is pure OCaml in the calling domain, so a hung
      attempt cannot be preempted mid-flight — the budget is enforced
      {e post hoc}, after the attempt returns.  Simulated-instruction
      budgets ([Run_config.sim_budget]) are the preemptive complement:
      the caller maps them onto [Options.max_instructions] so a runaway
      variant stops inside the simulator.

    An [Error _] {e value} returned by the thunk is not a supervision
    failure — it flows through untouched.  Supervision is about crashes
    and hangs, not about measurements that report their own errors.

    Telemetry (on the global {!Mt_telemetry} handle): one
    [resilience.attempt] span (arg: key), and [resilience.timeout] /
    [resilience.quarantine] / [resilience.fault.injected] counters. *)

type quarantine = {
  kind : string;  (** "raise" or "timeout" *)
  detail : string;  (** the exception text or budget diagnostic *)
  attempts : int;  (** attempts spent: always 1 *)
}

type 'a outcome = Done of 'a | Quarantined of quarantine

val quarantine_to_string : quarantine -> string
(** ["quarantined (kind) after N attempts: detail"]. *)

val supervise :
  ?fault:Fault.t ->
  ?wall_budget_s:float ->
  key:string ->
  (unit -> 'a) ->
  'a outcome
(** [supervise ~key f] runs [f] once.  [key] names the unit of work
    (variant id, experiment id) in telemetry.  With [wall_budget_s], an
    attempt that returns later than that is quarantined as a timeout.
    [fault] deterministically injects the given failure instead of
    running [f] ({!Fault.Corrupt_cache_entry} is a plain run at this
    layer — the caller plants the corruption before supervising). *)

(** Derive a {!Plan} from a history lineage — the μOpTime move:
    per-variant stability metrics (pooled CoV, worst-run RCIW,
    {!Mt_stats.Trend} classification over the archived medians) decide
    which variants can drop to a floor experiment count.  Every variant
    stays in the plan and in the run; only its budget changes.

    Safety posture: only {e stable} variants are floored; anything
    noisy, drifting, stepping, or simply absent from part of the
    lineage keeps its full adaptive budget.  Lineages shorter than
    [knobs.min_runs] produce a plan that keeps every budget unchanged —
    too little history to judge on. *)

val default_knobs : Plan.knobs
(** [min_runs] 4, [cov_stable] 0.01, [rciw_stable] 0.02,
    [min_experiments] 2. *)

val optimize :
  ?knobs:Plan.knobs ->
  ?created_at:float ->
  Mt_obsv.History.t ->
  Mt_obsv.History.lineage ->
  (Plan.t, string) result
(** Score every variant of the lineage, in variant-key first-appearance
    order, and emit the plan: stable variants at [knobs.min_experiments],
    every other variant at the default budget.  Errors on an empty
    lineage and on a [knobs.min_experiments] below 1, which no run could
    honour.  [created_at] defaults to the current wall clock. *)

val render : Plan.t -> string
(** Terminal table: one row per variant (floored or kept, with its
    metrics), then the plan's {!Plan.summary} line. *)

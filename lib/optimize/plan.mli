(** The study plan: the one canonical answer to "how many experiments
    does each variant get".

    A plan is what {!Optimizer.optimize} emits after scoring a history
    lineage, and what every execution path consumes — [Study.run]
    overrides per-variant experiment counts through it, and [mt_serve]
    ships it inside daemon submissions.  A plan never removes a
    variant from a run: it only sets experiment budgets, so a run under
    a plan measures exactly the variants a run without one does.

    Serialised as stable pretty-printed JSON (via {!Mt_obsv.Json}) so
    plans can be committed next to CI baselines and diffed in review. *)

(** The scoring thresholds a plan was derived under — recorded in the
    document so a reader can tell {e why} a variant was floored
    without re-running the optimizer. *)
type knobs = {
  min_runs : int;  (** lineage length below which nothing is floored *)
  cov_stable : float;  (** pooled CoV at or below which a series is stable *)
  rciw_stable : float;  (** worst-run RCIW at or below which it stays stable *)
  min_experiments : int;
      (** the μOpTime-style floor for stable variants; at least 1 *)
}

(** One variant's budget and the scores behind it. *)
type keep = {
  variant : string;
  experiments : int option;
      (** [Some n]: measure with exactly [n >= 1] experiments (the
          stable floor; under the adaptive controller it acts as the
          minimum).  [None]: keep the run's default / adaptive budget. *)
  stable : bool;
  cov : float;  (** pooled within-run CoV across the lineage *)
  rciw : float;  (** worst per-run RCIW across the lineage *)
  trend : string;  (** {!Mt_stats.Trend.classification_to_string} *)
}

type t = {
  schema : int;
  created_at : float;
  history_dir : string;  (** the archive the plan was derived from *)
  runs : int;  (** lineage length scored *)
  kernel_name : string;
  kernel_hash : string;
  machine_name : string;
  machine_hash : string;
  knobs : knobs;
  keep : keep list;
}

val schema_version : int
(** Current on-disk plan schema (2).  Schema 1 also listed variants to
    drop; those lists are ignored on load. *)

(** {1 Queries} *)

val experiments_override : t -> string -> int option
(** The planned experiment count for [key], when the plan floors it.
    [None] for a variant the plan keeps at the default budget and for
    one it does not list (a variant added after the plan was derived). *)

val find_keep : t -> string -> keep option

val summary : t -> string
(** One line: kept/floored counts for banners and logs. *)

(** {1 Serialisation} *)

val to_json : t -> Mt_obsv.Json.t

val of_json : Mt_obsv.Json.t -> (t, string) result
(** Total: every malformed document is an [Error], including an
    experiment count or [min_experiments] below 1.  Unknown fields are
    ignored. *)

val to_string : t -> string
(** Pretty-printed JSON document (ends in a newline). *)

val of_string : string -> (t, string) result
val save : t -> string -> unit
val load : string -> (t, string) result

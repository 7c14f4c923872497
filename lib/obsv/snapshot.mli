(** A run manifest: everything needed to compare two study runs —
    content hashes identifying what was measured (kernel description,
    machine configuration), the launcher options and seed that shaped
    the run, and a per-variant statistical summary of the primary
    metric.  Serialised as stable, pretty-printed JSON so snapshots can
    be committed as CI baselines and diffed by {!Diff}. *)

val schema_version : int
(** Current on-disk schema (4: adds the per-variant [profile] object of
    normalized bottleneck-category cycle shares; 3 added the top-level
    [quarantined] key list; 2 the per-variant quality block).  {!of_json} is
    compatible in both directions: older documents load with defaults
    for fields they predate — a schema-1 snapshot loads with a [Stable]
    verdict and zeroed quality metrics, a schema-2 one with no
    quarantined variants, a schema-3 one with empty profiles — and
    documents written by a {e newer} schema
    load with their unknown fields ignored, so an older binary can
    still read a history archive a newer one appends to.  The loaded
    [schema] field preserves the document's own version. *)

type variant_stat = {
  key : string;  (** stable identity for cross-run matching *)
  unroll : int;
  median : float;
  mean : float;
  stddev : float;
  cov : float;  (** coefficient of variation of the samples *)
  count : int;
  minimum : float;
  maximum : float;
  unit_label : string;
  per_label : string;
  rciw : float;  (** bootstrap RCIW of the median ({!Mt_quality.rciw}) *)
  outliers : int;  (** samples beyond the MAD fence *)
  warmup_trend : bool;  (** head of the series exceeded the warm-up band *)
  verdict : Mt_quality.verdict;
  profile : (string * float) list;
      (** normalized bottleneck-category cycle shares
          ([Mt_profile.vector]); empty when the run was not profiled *)
}

type t = {
  schema : int;
  tool : string;
  created_at : float;  (** wall-clock seconds since the epoch *)
  kernel_name : string;
  kernel_hash : string;
  machine_name : string;
  machine_hash : string;
  options : (string * string) list;
  seed : int;
  variant_count : int;
  variants : variant_stat list;
  quarantined : string list;
      (** keys of variants the resilience supervisor quarantined —
          counted in [variant_count] but absent from [variants] *)
  counters : (string * int) list;  (** telemetry counters at save time *)
}

val of_assessment :
  key:string ->
  ?unroll:int ->
  ?unit_label:string ->
  ?per_label:string ->
  ?profile:(string * float) list ->
  Mt_stats.summary ->
  Mt_quality.assessment ->
  variant_stat
(** A [variant_stat] from a series' summary and its quality
    assessment, both already computed: nothing is recomputed, so the
    stat carries exactly the numbers and verdict it is given.
    [Microtools.Study.snapshot] passes each launcher report's own
    [summary] and [quality], so a snapshot's quality block is the one
    behind the run's CSV verdict. *)

val of_values :
  key:string ->
  ?unroll:int ->
  ?unit_label:string ->
  ?per_label:string ->
  ?profile:(string * float) list ->
  float array ->
  variant_stat
(** {!of_assessment} over [Mt_stats.summarize values] and
    [Mt_quality.assess values] at the default thresholds and seed.
    For another seed or thresholds, call {!Mt_quality.assess} and
    {!of_assessment} directly.
    @raise Invalid_argument on an empty array. *)

val point_stat : key:string -> float -> variant_stat
(** A single-observation stat (stddev and cov are 0) — used for
    experiment-table cells, which report one value per cell. *)

val make :
  ?tool:string ->
  ?created_at:float ->
  kernel:string * string ->
  machine:string * string ->
  ?options:(string * string) list ->
  ?seed:int ->
  ?variant_count:int ->
  ?quarantined:string list ->
  ?counters:(string * int) list ->
  variant_stat list ->
  t
(** [make ~kernel:(name, hash) ~machine:(name, hash) variants] stamps
    [created_at] with the current wall clock unless given. *)

val content_hash : string list -> string
(** The digest behind [kernel_hash] and [machine_hash]
    ({!Mt_stats.digest_parts} under a constant salt).  History lineages
    and plans are keyed by these hashes, so unlike the result cache's
    keys they never follow a cache-format bump. *)

val to_json : t -> Json.t

val of_json : Json.t -> (t, string) result

val to_string : t -> string
(** Pretty-printed JSON document (ends in a newline). *)

val of_string : string -> (t, string) result

val save : t -> string -> unit

val load : string -> (t, string) result

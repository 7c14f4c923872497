(** Descriptive statistics, stability metrics and CSV rendering for
    MicroLauncher measurement series. *)

(** Summary of a measurement series. *)
type summary = {
  count : int;
  minimum : float;
  maximum : float;
  mean : float;
  median : float;
  stddev : float;  (** Sample standard deviation (n-1 denominator). *)
}

val summarize : float array -> summary
(** [summarize xs] computes a {!summary} of [xs].
    @raise Invalid_argument if [xs] is empty. *)

val min_of : float array -> float
(** Minimum of a non-empty array. *)

val max_of : float array -> float
(** Maximum of a non-empty array. *)

val mean : float array -> float
(** Arithmetic mean of a non-empty array. *)

val median : float array -> float
(** Median (average of middle pair for even lengths). *)

val stddev : float array -> float
(** Sample standard deviation; 0 for arrays of length < 2. *)

val coefficient_of_variation : float array -> float
(** [stddev / |mean|]; the launcher's stability metric.  0 when the
    mean is 0.  Always non-negative — dispersion has no sign, even for
    negative-mean series. *)

val relative_spread : float array -> float
(** [(max - min) / |min|]; the paper's "variation is less than 3%"
    style metric.  0 when the minimum is 0; non-negative always. *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [0, 100], linear interpolation. *)

(** {1 Sorted-array variants}

    {!summarize} sorts exactly once; callers on the quality hot path
    that need several order statistics from one series sort once with
    {!sorted_copy} and use these instead of re-sorting per call. *)

val sorted_copy : float array -> float array
(** A sorted copy ({!Float.compare} order); the input is untouched. *)

val median_sorted : float array -> float
(** {!median} of an array the caller has already sorted. *)

val percentile_sorted : float array -> float -> float
(** {!percentile} of an array the caller has already sorted. *)

val pooled_stddev : (int * float) list -> float
(** [pooled_stddev [(n1, s1); (n2, s2); ...]] combines per-group sample
    standard deviations into one, weighting each group by its degrees of
    freedom [(n-1)].  0 when no group has 2 or more samples. *)

val pooled_cov : (int * float * float) list -> float
(** [pooled_cov [(n1, m1, s1); ...]] over [(count, mean, stddev)]
    groups: {!pooled_stddev} divided by the absolute count-weighted
    grand mean — the μOpTime-style noise band used by regression gating
    (a median delta inside a multiple of this band is indistinguishable
    from run-to-run noise).  0 when the grand mean is 0 or no samples;
    non-negative always, so the derived band never flips sign. *)

(** {1 Trend analysis}

    Noise-aware classification of a per-variant measurement timeline
    (one value per archived run, oldest first) — the longitudinal
    counterpart of {!pooled_cov}'s two-run noise band.  Detects median
    step changes (a regression landed or was fixed between two runs)
    and slow drift (the rolling median walked away), and calls
    everything inside the noise band stationary, so a CI gate built on
    it does not flap on run-to-run wobble. *)

module Trend : sig
  type classification =
    | Stationary  (** inside the noise band end to end *)
    | Drifting  (** the rolling median moved beyond the band, gradually *)
    | Step_regression  (** a median step up (slower) escaped the band *)
    | Step_improvement  (** a median step down (faster) escaped the band *)

  val classification_to_string : classification -> string

  type result = {
    classification : classification;
    changepoint : int option;
        (** first index of the new regime, for step classifications *)
    shift : float;
        (** largest relative median shift between the two segments of
            any split (signed; positive = later segment is slower) *)
    drift : float;
        (** relative endpoint-to-endpoint move of the rolling median
            (signed), when no step escaped the band *)
    band : float;  (** the noise band the effects were judged against *)
    noise : float;  (** the noise estimate the band was built from *)
  }

  val default_threshold : float
  (** 3.0 — same multiplier as the two-run diff gate in [mt_report]. *)

  val default_min_band : float
  (** 0.002 — floor under the band (deterministic series measure with
      zero successive noise). *)

  val default_min_segment : int
  (** 2 — shortest segment a changepoint split may produce. *)

  val successive_noise : float array -> float
  (** Scaled median absolute successive difference relative to the
      series median: a robust run-to-run noise estimate that a genuine
      step change barely inflates.  0 for series shorter than 3. *)

  val rolling_median : ?window:int -> float array -> float array
  (** Centred rolling median (odd [window], default 3, clamped at the
      edges); same length as the input. *)

  val analyze :
    ?threshold:float ->
    ?min_band:float ->
    ?min_segment:int ->
    ?noise:float ->
    float array ->
    result
  (** [analyze xs] classifies the series, oldest value first.  The
      noise band is [max min_band (threshold * noise)]; [noise]
      defaults to {!successive_noise} but callers holding per-run
      within-run variability (e.g. {!pooled_cov} over the archived
      runs' stats) should pass it explicitly.  Steps are tested first
      (largest median shift over all splits leaving [min_segment]
      points per side), drift only when no step escapes the band.
      Series shorter than [2 * min_segment] are stationary. *)
end

(** {1 CSV} *)

module Csv : sig
  type t
  (** A CSV document under construction. *)

  val create : header:string list -> t
  (** Create a document with the given column names. *)

  val add_row : t -> string list -> unit
  (** Append a row.  Cells are quoted as needed.
      @raise Invalid_argument if the row width differs from the header. *)

  val add_floats : t -> float list -> unit
  (** Append a row of numeric cells rendered with [%.6g]. *)

  val to_string : t -> string
  (** Render the document, RFC-4180-style quoting. *)

  val save : t -> string -> unit
  (** [save t path] writes the document to [path]. *)

  val row_count : t -> int
  (** Number of data rows added so far. *)

  val header : t -> string list

  val rows : t -> string list list
  (** Data rows in insertion order (header excluded). *)

  val parse_string : string -> (string list list, string) result
  (** Parse RFC-4180 text into records (header row included).  Inverse
      of {!to_string}'s quoting: cells may contain commas, doubled
      quotes and embedded newlines.  Tolerant reader: LF, CRLF and bare
      CR (including a file-final [\r]) all terminate a record. *)

  val of_string : string -> (t, string) result
  (** Parse a document: first record is the header, remaining records
      must match its width.  [of_string (to_string t)] round-trips
      header and rows exactly. *)
end

(** {1 JSON} *)

(** A minimal JSON tree, printer and parser — the one codec behind
    snapshots, reports, journals, the serve wire format and Chrome traces,
    with no external dependency.
    Numbers are floats (like JSON itself); {!to_string} prints them in
    the shortest form that parses back to the same value, so documents
    round-trip exactly. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  val to_string : ?indent:bool -> t -> string
  (** Render; [indent] pretty-prints with two-space indentation (and a
      trailing newline) for committed snapshot files.  The bytes are
      part of the format: committed snapshots, journals and history
      manifests stay byte-identical across releases.  An
      integral number below 1e15 in magnitude prints as [%.0f] would
      (["-0"] for [-0.]); any other finite one prints [%.15g] when
      that reads back as the same float, else [%.17g].  NaN renders as
      [null]; infinities render as [1e999] and [-1e999], valid JSON
      numbers that {!of_string}, like other parsers, reads back as
      infinities.  A string escapes only the quote, the backslash,
      newline, carriage return and tab (each as a backslash pair) and
      the other bytes below 0x20 (as [\u00XX], lowercase hex); every
      other byte is copied as is. *)

  val of_string : string -> (t, string) result
  (** Parse a complete document; the error names the byte offset. *)

  (** {1 Accessors} ([None] on shape mismatch) *)

  val member : string -> t -> t option

  val to_float : t -> float option

  val to_int : t -> int option
  (** Integral numbers only. *)

  val to_str : t -> string option

  val to_bool : t -> bool option

  val to_list : t -> t list option

  val to_obj : t -> (string * t) list option
end

(** {1 Seeded random numbers} *)

(** SplitMix64 (Steele, Lea and Flood, OOPSLA 2014): the one
    pseudo-random generator behind every seeded stream in the project —
    the machine's noise model, the quality bootstrap and the creator's
    random selection.  It never touches the global [Random] state, so a
    seed gives the same stream on every run and platform.  Each caller
    salts its own seed into the initial state, so the streams stay
    independent. *)
module Splitmix : sig
  type t

  val create : int64 -> t
  (** A generator at this state; its first output mixes
      [state + 0x9E3779B97F4A7C15]. *)

  val next : t -> int64
  (** Advance the state and return its 64-bit output. *)

  val next_unit : t -> float
  (** The top 53 bits of {!next}, as a float in [[0, 1)]. *)
end

(** {1 Content digests} *)

val digest_parts : salt:string -> string list -> string
(** The hex MD5 of [salt] followed by each part, length-prefixed so the
    concatenation is injective: [["ab"; "c"]] and [["a"; "bc"]] digest
    differently.  The salt names what the digest is for: the result
    cache folds in its format version, run provenance a constant. *)

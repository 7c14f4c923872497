(** Low-overhead observability for the MicroTools pipeline: named
    monotonic counters, value histograms, nestable timed spans and
    counter-series samples, exported as a Chrome [trace_event] JSON
    (open in [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto})
    and a flat [key,value] metrics CSV.

    A handle is either {!disabled} — every operation is a no-op costing
    one branch, so instrumented hot paths pay nothing by default — or
    created with {!create}, in which case all recording is Domain-safe:
    counters and events may be updated concurrently from every worker of
    {!Mt_parallel.Pool}.

    Span timestamps come from the process monotonic clock, so an NTP
    step during a run cannot skew durations.

    The pipeline reads one process-wide handle ({!global}, default
    {!disabled}); binaries enable it from [--trace-out]/[--metrics-out]
    via {!set_global}. *)

type t
(** A telemetry sink (or the disabled no-op). *)

val disabled : t
(** The no-op handle: records nothing, exports empty documents. *)

val create : ?events:bool -> unit -> t
(** A fresh enabled handle with its own clock epoch.  With [~events:false]
    it keeps counters and histograms (so {!quantile} and the metrics
    exports work as usual) but no span events or series samples: a
    long-lived process that writes no trace file then holds a bounded
    amount of telemetry however long it runs.  {!span} still times its
    function and feeds the span histogram. *)

val enabled : t -> bool
(** [false] exactly for {!disabled}.  Instrumentation sites guard
    non-trivial bookkeeping (e.g. [List.length]) behind this. *)

(** {1 The process-wide handle} *)

val global : unit -> t
(** The handle the instrumented pipeline records into (one atomic
    load).  Defaults to {!disabled}. *)

val set_global : t -> unit
(** Install [t] as the process-wide handle.  Call before spawning
    worker domains; typically once at binary start-up. *)

(** {1 Trace detail}

    How much instruction/cache-level detail the simulator's deep trace
    lanes record.  [Off] (the default) keeps the simulate path
    completely free of lane bookkeeping; [Sampled] records every
    {!sample_stride}-th dynamic instruction plus the cache counter
    series at those points; [Full] records every instruction (intended
    for small kernels — event volume grows with the dynamic instruction
    count).  Binaries set this from [--trace-detail]. *)

type detail = Off | Sampled | Full

val detail : unit -> detail
(** The process-wide detail level (one atomic load, default [Off]). *)

val set_detail : detail -> unit

val detail_to_string : detail -> string

val detail_of_string : string -> (detail, string) result

val sample_stride : detail -> int
(** Dynamic instructions per recorded lane event: [Off] → 0 (record
    nothing), [Sampled] → 64, [Full] → 1. *)

(** {1 Counters} *)

val incr : t -> string -> unit
(** Add 1 to the named monotonic counter (created at 0 on first use). *)

val add : t -> string -> int -> unit
(** Add [n] to the named counter. *)

val counter : t -> string -> int
(** Current value ([0] for unknown names and disabled handles). *)

val counters : t -> (string * int) list
(** All counters, sorted by name. *)

(** {1 Histograms} *)

type hist = { count : int; sum : float; minimum : float; maximum : float }

val observe : t -> string -> float -> unit
(** Record one value into the named histogram. *)

val histograms : t -> (string * hist) list
(** All histograms, sorted by name.  Every completed span also feeds a
    ["span.<name>.us"] histogram with its duration. *)

val quantile : t -> string -> float -> float option
(** [quantile t name p] with [p] in [0, 100]: the [p]-th percentile of
    the named histogram's most recent observations (a bounded window of
    the last 2048 values, so a long-lived daemon reports live latency
    quantiles, not lifetime ones).  [None] for unknown names, empty
    histograms and disabled handles. *)

(** {1 Spans} *)

type event = {
  name : string;
  args : (string * string) list;
  tid : int;  (** The recording domain's id (or an explicit lane). *)
  start_us : float;  (** Microseconds since the handle's epoch. *)
  dur_us : float;
  depth : int;  (** Nesting depth within the recording domain. *)
}

val span : ?args:(string * string) list -> t -> string -> (unit -> 'a) -> 'a
(** [span t name f] times [f ()], recording one event on completion
    (also when [f] raises; the exception is re-raised).  Spans nest:
    the per-domain depth is recorded with each event, and Chrome's
    viewer reconstructs the hierarchy from the timestamps. *)

val emit :
  ?args:(string * string) list -> ?tid:int -> t -> string ->
  start_us:float -> dur_us:float -> unit
(** Record one complete event with explicit timestamps, without timing
    anything.  This is how simulated-time lanes are built: the
    launcher's deep trace emits per-instruction spans whose "ts" axis
    is core cycles rather than wall-clock microseconds, on a [tid] far
    away from the wall-clock domain tracks. *)

val events : t -> event list
(** All completed spans, in completion order. *)

(** {1 Counter series} *)

type sample = {
  series_name : string;
  sample_tid : int;
  ts_us : float;
  values : (string * float) list;
}

val series :
  ?ts_us:float -> ?tid:int -> t -> string -> (string * float) list -> unit
(** [series t name values] records one point of a named counter series
    (exported as a Chrome ["ph":"C"] counter event; each key of
    [values] becomes a stacked sub-series).  [ts_us] defaults to the
    handle's monotonic now; simulated-time lanes pass the core-cycle
    timestamp explicitly. *)

val samples : t -> sample list
(** All recorded series points, in recording order. *)

(** {1 Export} *)

val chrome_trace : t -> string
(** The Chrome [trace_event] JSON document: an object with a
    [traceEvents] array of ["ph":"X"] complete events (spans) followed
    by ["ph":"C"] counter events (series samples). *)

val metrics_csv : t -> string
(** A [key,value] CSV (RFC-4180-quoted): one row per counter, five rows
    ([.count]/[.sum]/[.min]/[.max]/[.mean]) per histogram. *)

val prometheus_name : string -> string
(** Sanitize a dotted metric name for Prometheus: every character
    outside [[a-zA-Z0-9_]] becomes an underscore. *)

val prometheus_exposition :
  ?gauges:(string * float) list ->
  ?summaries:(string * (int * float * (float * float) list)) list ->
  (string * int) list ->
  string
(** Render counters (and optionally gauges and summaries, the latter as
    [(count, sum, (quantile, value) list)]) as Prometheus text
    exposition format 0.0.4, with [# TYPE] comments.  The generic
    encoder behind both the mt_serve metrics endpoint and
    {!metrics_prometheus}. *)

val metrics_prometheus : t -> string
(** A handle's counters and histograms (as summaries with live
    p50/p90/p99 quantiles) in Prometheus text exposition format. *)

val write_chrome_trace : t -> string -> unit

val write_metrics_csv : t -> string -> unit

val write_metrics_prometheus : t -> string -> unit

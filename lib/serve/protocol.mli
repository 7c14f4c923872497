(** The mt_serve wire protocol: line-delimited JSON over a Unix-domain
    stream socket.

    Every message is one {!Mt_obsv.Json} document on one line (the
    printer escapes all control characters, so embedded kernel XML or
    CSV cells can never break the framing).  A client sends one
    {!request} and reads {!response} lines until a terminal one
    ([Rejected], [Done], [Failed], [Pong], [Stats_reply],
    [Metrics_reply], [Metrics_text] or [Bye]).

    A study submission carries the kernel description XML, the machine
    (preset name or inline machine XML) and the serializable slice of
    {!Microtools.Study.Run_config} ({!run_options}); the daemon's own
    domains, shared cache and journal directory are deliberately not
    client-controllable. *)

module J = Mt_obsv.Json

type machine =
  | Preset of string  (** a {!Mt_machine.Config.presets} name *)
  | Inline_xml of string  (** a machine description document *)

type run_options = {
  seed : int option;
  adaptive : (float * int) option;
      (** (rciw_target, max_experiments); the decoder refuses a target
          that is not positive and finite *)
  wall_budget_s : float option;
      (** positive and finite; the decoder refuses any other value *)
  sim_budget : int option;  (** positive; the decoder refuses any other *)
  faults : Mt_resilience.Fault.t list;
  profile : bool;
      (** record bottleneck attribution during the daemon's measured
          calls; the streamed snapshot then carries per-variant profile
          vectors.  Absent on the wire means off, so pre-profile
          clients keep working. *)
}
(** Older clients also send a ["plan"] member.  [null] means no plan;
    any other value is refused, naming
    [--experiments N --adaptive-experiments], since a plan ignored in
    silence would change the client's results without telling it. *)

type submission = {
  kernel_xml : string;
  machine : machine;
  array_kb : int;
  per : string;  (** pass | instruction | element | call *)
  repetitions : int;
  experiments : int;
  run : run_options;
}

(** The live metrics dump behind the [metrics] request: the stats
    counters, float-valued gauges (uptime), and the per-job latency
    histograms with live quantiles.  [Metrics_prometheus] asks the
    daemon to render the same data in Prometheus text exposition
    format, so a scrape-style client needs no JSON handling. *)
type metrics_format = Metrics_json | Metrics_prometheus

type summary_metric = {
  m_count : int;
  m_sum : float;
  m_quantiles : (float * float) list;
      (** [(quantile in [0,1], value)] pairs, e.g. [(0.5, v)] for p50 *)
}

type metrics = {
  m_counters : (string * int) list;
  m_gauges : (string * float) list;
  m_summaries : (string * summary_metric) list;
}

type request = Submit of submission | Ping | Stats | Metrics of metrics_format | Shutdown

type reject_reason =
  | Queue_full  (** back-pressure: the bounded job queue is at capacity *)
  | Bad_request of string

type response =
  | Accepted of { job : int; queue_depth : int }
  | Rejected of reject_reason
  | Header of string list  (** the CSV header, once, before any [Row] *)
  | Row of string list  (** one CSV row per variant, in variant order *)
  | Snapshot of J.t  (** the run-provenance snapshot document *)
  | Done of { job : int; quarantined : int; cache_hit_rate : float }
  | Failed of { job : int; message : string }
  | Pong
  | Stats_reply of (string * int) list
  | Metrics_reply of metrics  (** answers [Metrics Metrics_json] *)
  | Metrics_text of string
      (** answers [Metrics Metrics_prometheus]: the exposition document *)
  | Bye

val reject_to_string : reject_reason -> string

val metrics_format_to_string : metrics_format -> string

val metrics_format_of_string : string -> (metrics_format, string) result

val metrics_to_json : metrics -> J.t

val prometheus_of_metrics : metrics -> string
(** Render as Prometheus text exposition (version 0.0.4): counters and
    gauges as single samples, summaries as quantile-labelled samples
    plus [_sum]/[_count].  Dotted metric names are sanitised to
    underscores ([serve.jobs.completed] → [serve_jobs_completed]). *)

val default_run_options : run_options
(** No seed, no adaptive stopping, no budgets, no faults, no profile. *)

val run_options_of_config : Microtools.Study.Run_config.t -> run_options
(** Project the serializable slice out of a full run config — how
    [mt_study --submit] turns its parsed Mt_cli flags into wire
    options. *)

val config_into_base :
  run_options -> Microtools.Study.Run_config.t -> Microtools.Study.Run_config.t
(** [config_into_base run base] overlays the wire options onto the
    daemon's base config, keeping [base]'s domains, cache and output
    routing.  Right inverse of {!run_options_of_config} on the
    serializable fields. *)

(** {1 JSON codecs} *)

val submission_to_json : submission -> J.t

val submission_of_json : J.t -> (submission, string) result

val request_to_json : request -> J.t

val request_of_json : J.t -> (request, string) result

val response_to_json : response -> J.t

val response_of_json : J.t -> (response, string) result

(** {1 Line framing} *)

val send_request : out_channel -> request -> unit
(** Write one request line and flush. *)

val send_response : out_channel -> response -> unit

val max_request_bytes : int
(** The longest request line {!read_request} accepts, 4 MiB: far above
    the 75 KiB of the largest request this repository's clients send. *)

val read_request : in_channel -> (request, string) result option
(** [None] on a closed peer; [Some (Error _)] on a malformed line, or
    as soon as a line outgrows {!max_request_bytes}.  A connection
    carries one request: whatever follows its line is dropped. *)

val read_response : in_channel -> (response, string) result option

(** The longitudinal snapshot archive behind continuous benchmarking:
    an append-only directory of {!Snapshot} documents plus a JSON-lines
    manifest ordering them, safe to share between concurrent CLI runs
    and a live [mt_serve] daemon.

    Layout: [DIR/manifest.jsonl] holds one compact JSON record per
    archived run (sequence number, label, creation time, kernel and
    machine content hashes, schema version, file name); the snapshots
    themselves live alongside as [snap-<seq>-<digest>.json], named by
    the content digest of the document.  Appends take the directory's
    advisory lock, write the snapshot staged-then-renamed, and add one
    flushed manifest line — so a crash mid-append costs at most one
    torn manifest line, which loading skips and the next append
    repairs.

    On top of the store sit the analysis helpers [mt_report --history]
    is built from: per-variant time-series extraction, noise-pooled
    {!Mt_stats.Trend} classification, and the windowed {!baseline}
    a fresh snapshot is gated against. *)

type entry = {
  seq : int;  (** monotonically increasing archive position *)
  label : string;  (** caller-supplied run label, or ["run-<seq>"] *)
  created_at : float;  (** the snapshot's wall-clock stamp *)
  kernel_name : string;
  kernel_hash : string;
  machine_name : string;
  machine_hash : string;
  schema : int;  (** the archived document's snapshot schema *)
  file : string;  (** snapshot file name relative to the archive dir *)
}

type t
(** A loaded archive: the manifest plus a lazy snapshot cache. *)

val manifest_name : string
(** ["manifest.jsonl"]. *)

val append : ?label:string -> dir:string -> Snapshot.t -> (entry, string) result
(** Archive one snapshot, creating [dir] (and parents) on first use.
    Returns the manifest entry it was recorded under.  Concurrent
    appenders serialise on [dir/.lock]; each gets a distinct [seq]. *)

val load : string -> (t, string) result
(** Load an archive's manifest (snapshot documents load lazily on
    demand).  Torn or foreign manifest lines are skipped.  An existing
    but empty directory loads as an empty archive; a missing directory
    is an error. *)

val dir : t -> string

val entries : t -> entry list
(** All manifest entries in ascending [seq] order. *)

val length : t -> int

val latest : t -> entry option

val snapshot : t -> entry -> (Snapshot.t, string) result
(** The archived document behind [entry] (cached after first read). *)

val matching : ?kernel_hash:string -> ?machine_hash:string -> t -> entry list
(** Entries whose hashes equal the given ones (either filter may be
    omitted) — the comparable lineage of one kernel on one machine
    configuration within a shared archive. *)

val keys : ?entries:entry list -> t -> string list
(** Union of variant keys across the given entries (default: all), in
    order of first appearance. *)

val series : ?entries:entry list -> t -> variant:string -> (entry * Snapshot.variant_stat) list
(** The per-run time series of one variant: every given entry whose
    snapshot contains [variant], oldest first.  Runs missing the
    variant (or with unreadable documents) simply drop out. *)

val trend :
  ?threshold:float -> ?min_band:float ->
  (entry * Snapshot.variant_stat) list -> Mt_stats.Trend.result
(** Classify a variant's median series with {!Mt_stats.Trend.analyze},
    gated by the larger of the series' pooled within-run coefficient
    of variation (the pooling of the two-run diff gate) and its own
    successive-difference estimate (so deterministic, zero-stddev
    archives still get a non-degenerate band). *)

val default_window : int
(** Runs per windowed baseline (5). *)

val baseline :
  ?window:int -> ?threshold:float -> ?min_band:float ->
  t -> entry list -> (Snapshot.t, string) result
(** The synthetic baseline snapshot a fresh run is diffed against:
    per variant, the last [window] runs of the current stable regime
    (everything after the latest changepoint, so an already-landed step
    does not poison the baseline) collapsed to the median of their
    medians with a pooled stddev and summed sample count.  Identity
    (kernel, machine, options, seed) is taken from the newest given
    entry; the tool field is ["mt_history-baseline"].  Errors when
    [entries] is empty or the newest document is unreadable. *)

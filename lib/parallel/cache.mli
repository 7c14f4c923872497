(** A content-addressed result cache for simulator measurements.

    The μOpTime observation (PAPERS.md) applied to the launcher: most of
    a suite re-run measures variants whose program text, launcher
    options and machine model have not changed, so their reports can be
    replayed instead of re-simulated.  A cache entry is keyed by a
    digest of exactly those inputs ({!digest_key}; callers compose the
    key, e.g. {!Study.cache_key} hashes variant fingerprint + options +
    machine config) and stores an opaque serialized value.

    Lookups go to an in-memory table first, then — when the cache was
    created with a directory — to an on-disk store with one file per
    key, so results survive across processes ([~/.cache/microtools] by
    default, [--cache-dir] to relocate).  Disk hits are promoted into
    the memory table.

    All operations are safe to call concurrently from multiple domains
    (the table is mutex-protected, counters are atomic, and disk writes
    are atomic rename-into-place), which is what lets {!Pool.map}
    workers share one cache.

    A disk-backed cache directory is furthermore safe to share between
    {e processes} — the mt_serve daemon plus any number of one-shot CLI
    runs: temp files are opened [O_EXCL] under pid- and domain-unique
    names (two writers can never interleave into the same temp file),
    entry installation is an atomic rename, and the optional
    size-bounded LRU eviction pass is serialised through an advisory
    file lock on [DIR/.lock].  Disk hits bump the entry's mtime, which
    is the LRU recency stamp shared by every process. *)

type t

val default_dir : unit -> string
(** [$XDG_CACHE_HOME/microtools], falling back to
    [$HOME/.cache/microtools], falling back to a directory under the
    system temp dir when neither variable is set. *)

val create : ?dir:string -> ?max_bytes:int -> unit -> t
(** [create ()] is a process-local in-memory cache.  [create ~dir ()]
    additionally persists every entry under [dir] (created, with
    parents, if missing).  [max_bytes] bounds the on-disk size: after
    each store the directory is trimmed back under the bound by
    removing entries oldest-mtime-first (LRU; reads refresh mtime),
    never including the entry just written.  Evictions only affect the
    disk store — values already promoted into a process's memory table
    stay replayable there. *)

val dir : t -> string option

val digest_key : string list -> string
(** Digest a list of key components (order-sensitive, injectively
    concatenated) into a fixed-length hex key.  The digest is salted
    with a cache-format version so stale on-disk entries from older
    layouts can never be replayed.  For cache keys only: run
    provenance hashes ([Mt_obsv.Snapshot.content_hash]) must not move
    when the cache format does. *)

val find : t -> string -> string option
(** Look a key up, memory first, then disk.  Counts one hit or one
    miss. *)

val store : t -> string -> string -> unit
(** [store t key data] records [data] in the memory table and, for
    disk-backed caches, atomically writes it to disk.  Disk write
    failures (read-only dir, quota) are swallowed: the cache degrades
    to memory-only rather than failing the run. *)

val with_cache :
  t option -> key:(unit -> string) -> (unit -> 'a) -> encode:('a -> string) ->
  decode:(string -> 'a) -> 'a
(** [with_cache c ~key compute ~encode ~decode] is [compute ()] routed
    through the cache when [c] is [Some _]: replay the stored value on
    a hit, otherwise compute, store and return.  With [None], just
    [compute ()] (and no counter moves).

    A hit whose [decode] raises (a corrupt or truncated entry) degrades
    to the compute path: the failure is counted
    ({!decode_failures}, telemetry [cache.decode_failures]), the value
    is recomputed, and the bad entry is overwritten. *)

(** {1 Counters}

    Monotonic per-cache-handle counters, exposed so tests and the
    binaries can assert cache effectiveness ("second run re-simulates 0
    variants"). *)

val hits : t -> int

val misses : t -> int
(** Lookups that found nothing (each followed by a {!store} on the
    compute path). *)

val hit_rate : t -> float
(** [hits / (hits + misses)], 0 when no lookup happened yet. *)

val decode_failures : t -> int
(** Hits whose stored bytes failed to decode and were recomputed. *)

val evictions : t -> int
(** Disk entries this handle removed enforcing [max_bytes] (telemetry
    [cache.evictions]).  Always 0 without a size bound. *)

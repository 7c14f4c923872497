(** The per-core memory pipeline: L1/L2/L3 lookup on real addresses, a
    stride-limited stream prefetcher, a finite set of fill buffers
    (miss-level parallelism), fill-bandwidth serialization, and the
    cross-array 4 KiB aliasing penalty.

    Timing contract: {!access} is called with the core-clock time [now]
    at which the memory uop issues and returns the time at which the
    data is available.  All times are in core cycles (floats, so
    bandwidth fractions survive). *)

type level = L1 | L2 | L3 | Ram

type t = {
  cfg : Config.t;
  sharers : int;
  alias_scale : float;
      (** 4 KiB alias penalty scale, constant per pipeline: (sharers-1)/4
          when the feature is on, else 0. *)
  prefetcher_on : bool;
  tlb_on : bool;
  memo_line : int array;  (** -1 = empty slot *)
  memo_stream : int array;
  mutable memo_next : int;
  l1 : Cache.t;
  l2 : Cache.t;
  l3 : Cache.t;
  dtlb : Cache.t;
  stlb : Cache.t;
  clk : float array;
      (** Float cells: when the page walker and the fill path
          ({!bandwidth}) free up, and the last ready time ({!ready}).
          In a float array, writing a clock never boxes. *)
  ram_share : float;
  transfer : float array;
  latency : float array;
  st_line : int array;
  st_stride : int array;
  st_addr : int array;
  mutable next_stream : int;
  fill_buffers : float array;
  mutable c_accesses : int;
  mutable c_l1_hits : int;
  mutable c_l2_hits : int;
  mutable c_l3_hits : int;
  mutable c_ram : int;
  mutable c_splits : int;
  mutable c_alias : int;
  mutable c_prefetched : int;
  mutable c_tlb_misses : int;
  mutable c_page_walks : int;
  mutable c_nt_stores : int;
  mutable last_level : level;
  mutable last_split : bool;
}
(** Exposed concretely — like {!Exec.t} and {!Cache.t} — so
    {!Core.run}'s replay loop can open-code the steady-state access (a
    single line whose stream-table pass [memo_line] holds as a pure
    hit) without a cross-module call or a boxed float return.  That
    block is the only reader of the memo: this module's own accesses
    always take the stream-table pass, so {!Core.run_reference} checks
    the memo against the pass it replaces.  The block's checks before
    it commits (not non-temporal, one line, memo hit) are pure, so a
    miss falls back to {!access_nt} with no state touched.  A memo hit
    never falls back: the block performs exactly the mutations
    {!access} would.  With alias interference on, that starts with the
    alias part, through {!alias_conflict} and the [bandwidth] cell; a
    dTLB miss finishes through {!translate_miss} and an L1 miss through
    {!miss_l1}.  All other users must mutate it only through {!access};
    the launcher's trace lanes read the [l1]/[l2]/[l3] caches' hit/miss
    counters. *)

val bandwidth : int
(** The [clk] cell holding the time the fill path frees up. *)

val ready : int
(** The [clk] cell in which {!access_nt} and {!miss_l1} leave the
    data-ready time of the access they served. *)

type counters = {
  accesses : int;
  l1_hits : int;
  l2_hits : int;
  l3_hits : int;
  ram_accesses : int;
  split_accesses : int;
  alias_stalls : int;
  prefetched_fills : int;
  tlb_misses : int;  (** First-level TLB misses. *)
  page_walks : int;  (** Full misses that walked the page table. *)
  nt_stores : int;  (** Non-temporal stores streamed past the caches. *)
}

val create : ?ram_sharers:int -> Config.t -> t
(** [create cfg] builds a memory pipeline for one core of [cfg].
    [ram_sharers] (default 1) is the number of cores concurrently
    streaming from DRAM; it determines this core's share of controller
    bandwidth (Fig. 14's contention knee).

    The result may be a pipeline handed back with {!recycle}, when it
    was built for an equal [cfg] and the same [ram_sharers]: it is then
    {!reset} first, which leaves it indistinguishable from a fresh
    one. *)

val recycle : t -> unit
(** Offer a finished pipeline to the next {!create} of the same
    machine and sharer count.  Call it only after the pipeline's last
    use, counters included: the pipeline may be reset and handed to
    another caller, on any domain or thread, as soon as this returns.
    Only the most recent offer is kept, and only weakly, so a pipeline
    no [create] takes back is collected as if it had never been
    offered. *)

val access :
  ?nt:bool -> t -> now:float -> addr:int -> bytes:int -> write:bool -> float
(** Perform one data access and return the data-ready time.  Stores
    return the time their line is owned (write-allocate; misses charge
    double fill bandwidth for the read-for-ownership plus eventual
    writeback).  With [nt] (non-temporal), a store bypasses the caches
    through write-combining buffers: no allocation, no RFO, half the
    DRAM traffic — the [movntps] behaviour. *)

val access_nt :
  t -> nt:bool -> now:float -> addr:int -> bytes:int -> write:bool -> unit
(** Exactly {!access}, with the non-temporal flag passed plainly and
    the data-ready time left in the {!ready} cell.  The core's
    allocation-free path uses this so a dynamic [~nt] never constructs
    an option and the ready time is never boxed. *)

val alias_conflict : t -> int -> bool
(** Whether an access to this address collides modulo 4 KiB with the
    last address of another tracked stream.  Pure.  The open-coded
    access in {!Core.run} calls it on a memo hit when alias
    interference is on, before the hit records its address; no one
    else should. *)

val translate_miss : t -> now:float -> page:int -> float
(** The translation penalty of an access at [now] to [page], which
    missed the dTLB: a fixed re-lookup on an STLB hit, else a page walk
    through the single walker (walks serialize).  Counts the miss and
    any walk.  The open-coded access in {!Core.run} calls it after its
    dTLB lookup missed; no one else should. *)

val miss_l1 : t -> now:float -> line:int -> streamed:bool -> write:bool -> unit
(** Serve an access at [now] to [line], which missed L1: look it up in
    L2 and L3 (allocating it at every level it missed), record and
    count the serving level, and charge the line fill.  [streamed]
    fills are covered by the prefetcher.  Leaves the data-ready time in
    the {!ready} cell.
    The open-coded access in {!Core.run} calls it after its L1 lookup
    missed; no one else should. *)

val counters : t -> counters

val counters_to_alist : counters -> (string * int) list
(** Every counter as a [(name, value)] pair, in declaration order —
    the iteration telemetry and reporting layers use. *)

val reset_counters : t -> unit

val reset : t -> unit
(** Reset caches, prefetcher, buffers and counters (cold machine): the
    pipeline then behaves exactly as a fresh {!create} of its machine
    would. *)

val drain : t -> unit
(** Complete all in-flight fills and rebase the pipeline clock to 0,
    keeping cache contents.  {!Core.run} calls this at the start of each
    run so warm caches survive between repetitions while stale busy
    times do not. *)

val level_of_last_access : t -> level
(** Which level served the most recent access (for tests). *)

val last_access_was_split : t -> bool
(** Whether the most recent access straddled a cache line (the core
    books a replay uop on the port when it did). *)

val ram_share_bytes_per_cycle : t -> float
(** The DRAM bandwidth share this pipeline was created with. *)

type level = L1 | L2 | L3 | Ram

type counters = {
  accesses : int;
  l1_hits : int;
  l2_hits : int;
  l3_hits : int;
  ram_accesses : int;
  split_accesses : int;
  alias_stalls : int;
  prefetched_fills : int;
  tlb_misses : int;
  page_walks : int;
  nt_stores : int;
}

(* One tracked prefetch stream: the last line it touched and the line
   stride it has locked onto (0 until two accesses establish one). *)
(* Stored as three parallel unboxed int arrays rather than an array of
   records: the 16-entry pass below runs on every access, and chasing
   16 record pointers per pass is what it would otherwise spend its
   time on. *)

(* Same-line repeat-access memo: a tiny table of lines whose stream-
   table pass is known to be a pure "found" (exactly one tracker on the
   line, no tracker within prefetch range).  A repeat access to such a
   line can skip the 16-way pass entirely — the pass would mutate
   nothing but the tracker's last address and return found=true —
   which is what makes dense strided streams resolve their
   stream/translation bookkeeping once per line rather than once per
   access.  Entries are invalidated whenever any tracker moves near
   them.  Only [Core.run]'s open-coded access reads the memo; with
   alias interference on it still runs the alias test, which reads
   every tracker's last address.  Everything in this module takes the
   pass. *)
let memo_size = 8

(* Indices of [clk], the pipeline's float cells: held in a float array
   so that writing them never boxes. *)
let walker = 0  (* the single page walker serializes *)

let bandwidth = 1  (* fill-path serialization point *)

let ready = 2  (* data-ready time of the last access *)

type t = {
  cfg : Config.t;
  sharers : int;
  alias_scale : float;
      (* 4 KiB alias penalty scale, constant per pipeline: (sharers-1)/4
         when the feature is on, else 0. *)
  prefetcher_on : bool;
  tlb_on : bool;
  memo_line : int array;  (* -1 = empty slot *)
  memo_stream : int array;
  mutable memo_next : int;
  l1 : Cache.t;
  l2 : Cache.t;
  l3 : Cache.t;
  dtlb : Cache.t;  (* 64-entry 4-way, 4 KiB pages *)
  stlb : Cache.t;  (* 512-entry 4-way second-level TLB *)
  clk : float array;  (* [walker], [bandwidth], [ready] *)
  ram_share : float;  (* bytes per core cycle *)
  transfer : float array;  (* a line's fill-path cycles, by [level_index] *)
  latency : float array;  (* a demand fill's latency, by [level_index] *)
  st_line : int array;  (* last line touched, or min_int *)
  st_stride : int array;  (* locked stride in lines, 0 = not locked *)
  st_addr : int array;  (* last raw address, or min_int *)
  mutable next_stream : int;  (* round-robin victim *)
  fill_buffers : float array;  (* busy-until times *)
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

(* TLB geometry shared by the Nehalem/Sandy Bridge generation the paper
   measures: 64-entry 4-way first level, 512-entry 4-way second level,
   7-cycle STLB hit, ~30-cycle page walk through a single walker. *)
let dtlb_geom = { Config.size_bytes = 64 * 4096; associativity = 4; line_bytes = 4096 }

let stlb_geom = { Config.size_bytes = 512 * 4096; associativity = 4; line_bytes = 4096 }

let stlb_hit_penalty = 7.

let page_walk_cycles = 30.

let stream_table_size = 16

(* The hardware streamer does not prefetch across large strides. *)
let max_prefetch_stride_lines = 4

let level_index = function L1 -> 0 | L2 -> 1 | L3 -> 2 | Ram -> 3

let levels = [| L1; L2; L3; Ram |]

(* The fill constants of a serving level, evaluated once per pipeline
   with the expressions a fill would otherwise evaluate each time. *)
let transfer_cycles (cfg : Config.t) ~ram_share serving =
  let line = float_of_int cfg.l1.line_bytes in
  let bw =
    match serving with
    | L1 -> infinity
    | L2 -> cfg.l2_bandwidth_bytes_per_cycle
    | L3 ->
      (* The L3 lives in the uncore clock domain: its bandwidth is
         fixed in bytes/second, so in core cycles it scales with the
         core clock (Fig. 13: off-core timings are frequency-
         independent in TSC cycles). *)
      cfg.l3_bandwidth_bytes_per_cycle *. cfg.nominal_ghz /. cfg.core_ghz
    | Ram -> ram_share
  in
  if bw = infinity then 0. else line /. bw

let full_latency (cfg : Config.t) = function
  | L1 -> float_of_int cfg.l1_latency_cycles
  | L2 -> float_of_int cfg.l2_latency_cycles
  | L3 -> Config.cycles_of_ns cfg cfg.l3_latency_ns
  | Ram -> Config.cycles_of_ns cfg cfg.ram_latency_ns

let allocate ~ram_sharers (cfg : Config.t) =
  (* The L3 is shared: when several cores stream at once, each one
     effectively owns a capacity slice (we model one core per memory
     pipeline, so the slice approximates the shared-cache pressure of
     the siblings). *)
  let l3_slice =
    let sharers_per_socket =
      (ram_sharers + cfg.sockets - 1) / cfg.sockets |> max 1
    in
    let min_size = cfg.l3.Config.line_bytes * cfg.l3.Config.associativity in
    { cfg.l3 with Config.size_bytes = max min_size (cfg.l3.Config.size_bytes / sharers_per_socket) }
  in
  let ram_share = Config.ram_stream_bytes_per_cycle cfg ~sharers:ram_sharers in
  {
    cfg;
    sharers = ram_sharers;
    alias_scale =
      (if cfg.Config.features.Config.alias_interference then
         float_of_int (ram_sharers - 1) /. 4.
       else 0.);
    prefetcher_on = cfg.Config.features.Config.prefetcher;
    tlb_on = cfg.Config.features.Config.tlb;
    memo_line = Array.make memo_size (-1);
    memo_stream = Array.make memo_size 0;
    memo_next = 0;
    l1 = Cache.create cfg.l1;
    l2 = Cache.create cfg.l2;
    l3 = Cache.create l3_slice;
    dtlb = Cache.create dtlb_geom;
    stlb = Cache.create stlb_geom;
    clk = Array.make 3 0.;
    ram_share;
    transfer = Array.map (transfer_cycles cfg ~ram_share) levels;
    latency = Array.map (full_latency cfg) levels;
    st_line = Array.make stream_table_size min_int;
    st_stride = Array.make stream_table_size 0;
    st_addr = Array.make stream_table_size min_int;
    next_stream = 0;
    fill_buffers = Array.make cfg.miss_parallelism 0.;
    c_accesses = 0;
    c_l1_hits = 0;
    c_l2_hits = 0;
    c_l3_hits = 0;
    c_ram = 0;
    c_splits = 0;
    c_alias = 0;
    c_prefetched = 0;
    c_tlb_misses = 0;
    c_page_walks = 0;
    c_nt_stores = 0;
    last_level = L1;
    last_split = false;
  }

let ram_share_bytes_per_cycle t = t.ram_share

let counters t =
  {
    accesses = t.c_accesses;
    l1_hits = t.c_l1_hits;
    l2_hits = t.c_l2_hits;
    l3_hits = t.c_l3_hits;
    ram_accesses = t.c_ram;
    split_accesses = t.c_splits;
    alias_stalls = t.c_alias;
    prefetched_fills = t.c_prefetched;
    tlb_misses = t.c_tlb_misses;
    page_walks = t.c_page_walks;
    nt_stores = t.c_nt_stores;
  }

let counters_to_alist c =
  [
    ("accesses", c.accesses);
    ("l1_hits", c.l1_hits);
    ("l2_hits", c.l2_hits);
    ("l3_hits", c.l3_hits);
    ("ram_accesses", c.ram_accesses);
    ("split_accesses", c.split_accesses);
    ("alias_stalls", c.alias_stalls);
    ("prefetched_fills", c.prefetched_fills);
    ("tlb_misses", c.tlb_misses);
    ("page_walks", c.page_walks);
    ("nt_stores", c.nt_stores);
  ]

let reset_counters t =
  t.c_accesses <- 0;
  t.c_l1_hits <- 0;
  t.c_l2_hits <- 0;
  t.c_l3_hits <- 0;
  t.c_ram <- 0;
  t.c_splits <- 0;
  t.c_alias <- 0;
  t.c_prefetched <- 0;
  t.c_tlb_misses <- 0;
  t.c_page_walks <- 0;
  t.c_nt_stores <- 0

let reset t =
  Cache.reset t.l1;
  Cache.reset t.l2;
  Cache.reset t.l3;
  Cache.reset t.dtlb;
  Cache.reset t.stlb;
  Array.fill t.clk 0 (Array.length t.clk) 0.;
  Array.fill t.st_line 0 stream_table_size min_int;
  Array.fill t.st_stride 0 stream_table_size 0;
  Array.fill t.st_addr 0 stream_table_size min_int;
  t.next_stream <- 0;
  Array.fill t.memo_line 0 memo_size (-1);
  Array.fill t.memo_stream 0 memo_size 0;
  t.memo_next <- 0;
  Array.fill t.fill_buffers 0 (Array.length t.fill_buffers) 0.;
  t.last_level <- L1;
  t.last_split <- false;
  reset_counters t

(* A finished pipeline [create] may hand out again.  Its cache tags are
   ~217,000 words (1.7 MB, mostly the 12 MiB L3's), allocated straight
   on the major heap, so a study that built one per variant spent most
   of its major collections on them.  One slot, emptied whole by
   [Atomic.exchange], so two domains or daemon threads never get the
   same pipeline.  It holds the pipeline weakly: a spare nobody asks
   for in time is collected exactly as the garbage it would otherwise
   have been, and a spare for one machine never pins memory while a
   sweep runs another. *)
let spare : t Weak.t option Atomic.t = Atomic.make None

let recycle t =
  let w = Weak.create 1 in
  Weak.set w 0 (Some t);
  Atomic.set spare (Some w)

let create ?(ram_sharers = 1) (cfg : Config.t) =
  match Option.bind (Atomic.exchange spare None) (fun w -> Weak.get w 0) with
  | Some t when t.sharers = ram_sharers && t.cfg = cfg ->
    reset t;
    t
  | Some _ | None -> allocate ~ram_sharers cfg

let drain t =
  Array.fill t.fill_buffers 0 (Array.length t.fill_buffers) 0.;
  Array.fill t.clk 0 (Array.length t.clk) 0.;
  (* Same staleness gap as [reset] had: a split flag describing an
     access from before the drain must not leak into the next run. *)
  t.last_split <- false

let level_of_last_access t = t.last_level

let last_access_was_split t = t.last_split

(* ------------------------------------------------------------------ *)
(* Stream prefetch detection                                           *)
(* ------------------------------------------------------------------ *)

(* Whether a line distance [d] is within prefetch range, [-4, 4], in
   one compare: adding [min_int] maps unsigned order onto signed order,
   so this is the unsigned test [d + 4 <= 8]. *)
let[@inline] in_range d =
  d + (max_prefetch_stride_lines + min_int)
  <= (2 * max_prefetch_stride_lines) + min_int

(* A tracker moved onto [moved_line]: any memo entry it was backing, or
   any entry now within prefetch range of the tracker's new position,
   is no longer a guaranteed pure hit. *)
let memo_invalidate t ~stream ~moved_line =
  for i = 0 to memo_size - 1 do
    let l = Array.unsafe_get t.memo_line i in
    if l >= 0 then begin
      if Array.unsafe_get t.memo_stream i = stream || in_range (l - moved_line)
      then Array.unsafe_set t.memo_line i (-1)
    end
  done

(* One pass over the stream table for an access to [line] at [addr].
   Returns [true] when [line] continues an established stream whose
   stride is small enough for the hardware streamer to follow.
   - The first tracker on [line], or continuing onto it, ends the
     search.  An earlier tracker in range with no stride yet locks onto
     the one to [line] and moves there; the streamer covers from the
     next access on.
   - Every tracker then on [line] records [addr].
   - When no tracker continues, the round-robin victim starts a fresh
     one on [line].  (A tracker one stride behind [line] would have
     continued, since every stride is a distance the pass accepts.)
   - If then exactly one tracker is on [line] and no other in range, a
     repeat access would mutate nothing but its address: the line goes
     into the memo.  A duplicate entry is harmless, since
     [memo_invalidate] clears every matching slot. *)
let stream_pass t line addr =
  let st_line = t.st_line in
  let found = ref false in
  let matches = ref 0 in
  let near = ref 0 in
  let on_line = ref (-1) in
  for i = 0 to stream_table_size - 1 do
    let l = Array.unsafe_get st_line i in
    (* One compare rules out the common far tracker.  For an empty
       slot [line - min_int] overflows; the sentinel test keeps the
       slot out of the counts whatever the wrapped distance reads. *)
    if in_range (line - l) && l <> min_int then begin
      let st = Array.unsafe_get t.st_stride i in
      let d = line - l in
      if d = 0 || ((not !found) && (st = d || st = 0)) then begin
        if d <> 0 then begin
          Array.unsafe_set t.st_stride i d;
          Array.unsafe_set st_line i line;
          memo_invalidate t ~stream:i ~moved_line:line
        end;
        if d = 0 || st = d then found := true;
        Array.unsafe_set t.st_addr i addr;
        incr matches;
        on_line := i
      end
      else incr near
    end
  done;
  if not !found then begin
    let victim = t.next_stream in
    let l = st_line.(victim) in
    (* The pass counted the victim's old entry. *)
    if l <> line then begin
      if in_range (line - l) && l <> min_int then decr near;
      incr matches;
      on_line := victim
    end;
    st_line.(victim) <- line;
    t.st_stride.(victim) <- 0;
    t.st_addr.(victim) <- addr;
    t.next_stream <- (victim + 1) mod stream_table_size;
    memo_invalidate t ~stream:victim ~moved_line:line
  end;
  if !matches = 1 && !near = 0 then begin
    let slot = t.memo_next in
    t.memo_line.(slot) <- line;
    t.memo_stream.(slot) <- !on_line;
    t.memo_next <- (slot + 1) mod memo_size
  end;
  !found

(* 4 KiB aliasing: the access collides modulo one page with the most
   recent address of a *different* stream (a concurrently traversed
   array at a conflicting alignment).  See DESIGN.md section 5. *)
let alias_conflict t addr =
  let page_off = addr land 4095 in
  let page = addr lsr 12 in
  let conflict = ref false in
  for i = 0 to stream_table_size - 1 do
    let a = Array.unsafe_get t.st_addr i in
    if a <> min_int then begin
      let other_off = a land 4095 in
      let other_page = a lsr 12 in
      if other_page <> page && abs (other_off - page_off) < 64 then
        conflict := true
    end
  done;
  !conflict

(* ------------------------------------------------------------------ *)
(* Fill pipeline                                                       *)
(* ------------------------------------------------------------------ *)

(* Charge one line fill served by [serving] level.  [streamed] fills are
   covered by the prefetcher: their latency collapses to the serving
   bandwidth; demand (random) fills pay the level's full latency.
   Leaves the fill completion time in the [ready] cell. *)
let line_fill t ~now ~streamed ~write ~serving =
  let k = level_index serving in
  let transfer = Array.unsafe_get t.transfer k in
  (* Stores write-allocate: the RFO read plus the eventual writeback
     consume the fill path twice. *)
  let transfer = if write then 2. *. transfer else transfer in
  let fb = t.fill_buffers in
  let buf = ref 0 in
  for i = 1 to Array.length fb - 1 do
    if Array.unsafe_get fb i < fb.(!buf) then buf := i
  done;
  let buf = !buf in
  let clk = t.clk in
  let start = Float.max now (Float.max fb.(buf) (Array.unsafe_get clk bandwidth)) in
  Array.unsafe_set clk bandwidth (start +. transfer);
  let completion =
    if streamed then
      start +. Float.max transfer (Array.unsafe_get t.latency 0 (* L1 *))
    else start +. Array.unsafe_get t.latency k +. transfer
  in
  fb.(buf) <- completion;
  if streamed then t.c_prefetched <- t.c_prefetched + 1;
  Array.unsafe_set clk ready completion

(* Look the line up in the hierarchy; allocate it at every level it
   missed in (inclusive caching).  Returns serving level. *)
let lookup_beyond_l1 t line =
  if Cache.access t.l2 line then L2
  else if Cache.access t.l3 line then L3
  else Ram

(* Address translation: DTLB hit is free, an STLB hit costs a fixed
   re-lookup, a full miss walks the page table through the single
   hardware walker (walks serialize — the mechanism behind the paper's
   Figure 3 cliff once the matmul column stride exceeds a page). *)
let translate_miss t ~now ~page =
  t.c_tlb_misses <- t.c_tlb_misses + 1;
  if Cache.access t.stlb page then stlb_hit_penalty
  else begin
    t.c_page_walks <- t.c_page_walks + 1;
    let start = Float.max now (Array.unsafe_get t.clk walker) in
    let finish = start +. page_walk_cycles in
    Array.unsafe_set t.clk walker finish;
    finish -. now
  end

let translate t ~now ~addr =
  if not t.tlb_on then 0.
  else begin
    let page = addr lsr 12 in
    if Cache.access t.dtlb page then 0. else translate_miss t ~now ~page
  end

(* An access to [line] that missed L1: find the serving level, count
   it, and charge the fill. *)
let miss_l1 t ~now ~line ~streamed ~write =
  let serving = lookup_beyond_l1 t line in
  t.last_level <- serving;
  (match serving with
  | L2 -> t.c_l2_hits <- t.c_l2_hits + 1
  | L3 -> t.c_l3_hits <- t.c_l3_hits + 1
  | Ram | L1 -> t.c_ram <- t.c_ram + 1);
  line_fill t ~now ~streamed ~write ~serving

(* One single-line access through the stream-table pass.  [Core.run]
   open-codes its repeat on a memoized line. *)
let single_access t ~now ~addr ~write =
  let now =
    if not t.tlb_on then now
    else begin
      let page = addr lsr 12 in
      if Cache.access t.dtlb page then now
      else now +. translate_miss t ~now ~page
    end
  in
  let line = Cache.line_of_addr t.l1 addr in
  let streamed = stream_pass t line addr && t.prefetcher_on in
  if Cache.access t.l1 line then begin
    t.last_level <- L1;
    t.c_l1_hits <- t.c_l1_hits + 1;
    Array.unsafe_set t.clk ready (now +. Array.unsafe_get t.latency 0 (* L1 *))
  end
  else miss_l1 t ~now ~line ~streamed ~write

(* Non-temporal store: write-combining buffers stream the data straight
   to DRAM — no allocation, no read-for-ownership, single-direction
   bandwidth.  The data-ready time is just the store-buffer handoff. *)
let nt_store t ~now ~addr ~bytes =
  t.c_nt_stores <- t.c_nt_stores + 1;
  let tlb_penalty = translate t ~now ~addr in
  let now = now +. tlb_penalty in
  let bw = t.ram_share in
  let transfer = float_of_int bytes /. bw in
  let clk = t.clk in
  Array.unsafe_set clk bandwidth
    (Float.max (Array.unsafe_get clk bandwidth) now +. transfer);
  t.last_level <- Ram;
  (* Finite write-combining buffers (four lines): once the DRAM backlog
     exceeds them, the store stalls until it drains — streaming stores
     end up paying single-direction bandwidth, i.e. half a regular
     write-allocate store stream. *)
  let line = float_of_int t.cfg.Config.l1.Config.line_bytes in
  let wc_allowance = 4. *. line /. bw in
  Array.unsafe_set clk ready
    (Float.max (now +. 1.) (Array.unsafe_get clk bandwidth -. wc_allowance))

let split_access t ~now ~addr ~write ~first_line =
  (* Line-split access: both halves must arrive, plus a fixed split
     penalty for the re-issue (the core also books a replay uop). *)
  t.c_splits <- t.c_splits + 1;
  if t.cfg.Config.features.Config.split_penalty then t.last_split <- true;
  single_access t ~now ~addr ~write;
  let r1 = t.clk.(ready) in
  let second_addr = (first_line + 1) * t.cfg.l1.line_bytes in
  single_access t ~now:r1 ~addr:second_addr ~write;
  let r2 = t.clk.(ready) in
  let penalty =
    if t.cfg.Config.features.Config.split_penalty then
      float_of_int t.cfg.split_line_penalty_cycles
    else 0.
  in
  t.clk.(ready) <- Float.max r1 r2 +. penalty

let access_nt t ~nt ~now ~addr ~bytes ~write =
  t.c_accesses <- t.c_accesses + 1;
  let bytes = if bytes < 1 then 1 else bytes in
  t.last_split <- false;
  if nt && write then nt_store t ~now ~addr ~bytes
  else begin
    let shift = t.l1.Cache.line_shift in
    let first_line = addr lsr shift in
    let last_line = (addr + bytes - 1) lsr shift in
    (* Cross-array page-offset collisions only hurt when the memory
       system is under multi-core pressure (Section 5.2.2's alignment
       studies run 8- and 32-core saturated configurations); a lone
       core absorbs them (Fig. 4's <3% variation at 200x200).  Without
       alias interference (scale 0) the penalty term is identically 0
       and the alias scan never runs. *)
    let alias_pen =
      if t.alias_scale <> 0. && alias_conflict t addr then begin
        t.c_alias <- t.c_alias + 1;
        let pen = t.cfg.page_4k_alias_penalty_cycles *. t.alias_scale in
        (* A conflicting access replays through the memory pipeline:
           the penalty is occupancy, not just latency, so saturated
           streams slow down (the Figures 15/16 alignment bands). *)
        let clk = t.clk in
        Array.unsafe_set clk bandwidth
          (Float.max (Array.unsafe_get clk bandwidth) now +. pen);
        pen
      end
      else 0.
    in
    if first_line = last_line then single_access t ~now ~addr ~write
    else split_access t ~now ~addr ~write ~first_line;
    if alias_pen <> 0. then t.clk.(ready) <- t.clk.(ready) +. alias_pen
  end

let access ?(nt = false) t ~now ~addr ~bytes ~write =
  access_nt t ~nt ~now ~addr ~bytes ~write;
  t.clk.(ready)

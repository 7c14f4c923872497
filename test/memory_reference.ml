(* The memory pipeline as it was while its memo branch still served
   hits inside [Memory.access_nt]: the reference the current
   [Mt_machine.Memory] is checked against (test/fastpath_tests.ml).
   Both engines share [Memory], so only this copy can pin it.  Kept
   verbatim below the [open]; do not optimise. *)

open Mt_machine

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
   records: the 16-entry scans below run on every access, and chasing
   16 record pointers per scan is what they would otherwise spend their
   time on. *)

(* Same-line repeat-access memo: a tiny table of lines whose stream-
   table scan is known to be a pure "found" (exactly one tracker on the
   line, no tracker within prefetch range).  A repeat access to such a
   line can skip the 16-way scans entirely — the scan would mutate
   nothing and return found=true — which is what makes dense strided
   streams resolve their stream/translation bookkeeping once per line
   rather than once per access.  Entries are invalidated whenever any
   tracker moves near them.  Only used when alias interference is off
   (scale 0): the alias scan reads every tracker's last address, so it
   cannot be skipped. *)
let memo_size = 8

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
  mutable walker_free : float;  (* the single page walker serializes *)
  ram_share : float;  (* bytes per core cycle *)
  st_line : int array;  (* last line touched, or min_int *)
  st_stride : int array;  (* locked stride in lines, 0 = not locked *)
  st_addr : int array;  (* last raw address, or min_int *)
  mutable next_stream : int;  (* round-robin victim *)
  fill_buffers : float array;  (* busy-until times *)
  mutable bandwidth_free : float;  (* fill-path serialization point *)
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
    walker_free = 0.;
    ram_share = Config.ram_stream_bytes_per_cycle cfg ~sharers:ram_sharers;
    st_line = Array.make stream_table_size min_int;
    st_stride = Array.make stream_table_size 0;
    st_addr = Array.make stream_table_size min_int;
    next_stream = 0;
    fill_buffers = Array.make cfg.miss_parallelism 0.;
    bandwidth_free = 0.;
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
  t.walker_free <- 0.;
  Array.fill t.st_line 0 stream_table_size min_int;
  Array.fill t.st_stride 0 stream_table_size 0;
  Array.fill t.st_addr 0 stream_table_size min_int;
  t.next_stream <- 0;
  Array.fill t.memo_line 0 memo_size (-1);
  Array.fill t.memo_stream 0 memo_size 0;
  t.memo_next <- 0;
  Array.fill t.fill_buffers 0 (Array.length t.fill_buffers) 0.;
  t.bandwidth_free <- 0.;
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
  t.bandwidth_free <- 0.;
  t.walker_free <- 0.;
  (* Same staleness gap as [reset] had: a split flag describing an
     access from before the drain must not leak into the next run. *)
  t.last_split <- false

let level_of_last_access t = t.last_level

let last_access_was_split t = t.last_split

(* ------------------------------------------------------------------ *)
(* Stream prefetch detection                                           *)
(* ------------------------------------------------------------------ *)

(* A tracker moved onto [moved_line]: any memo entry it was backing, or
   any entry now within prefetch range of the tracker's new position,
   is no longer a guaranteed pure hit. *)
let memo_invalidate t ~stream ~moved_line =
  for i = 0 to memo_size - 1 do
    let l = Array.unsafe_get t.memo_line i in
    if l >= 0 then begin
      let d = l - moved_line in
      if
        Array.unsafe_get t.memo_stream i = stream
        || (d >= -max_prefetch_stride_lines && d <= max_prefetch_stride_lines)
      then Array.unsafe_set t.memo_line i (-1)
    end
  done

let memo_find t line =
  let r = ref (-1) in
  let i = ref 0 in
  while !r < 0 && !i < memo_size do
    if Array.unsafe_get t.memo_line !i = line then r := !i;
    incr i
  done;
  !r

(* After a slow scan found [line], check whether a repeat access could
   skip the scan: exactly one tracker sits on the line and no other
   tracker is within prefetch range (so the scan neither mutates a
   tracker nor allocates one).  If so, remember it. *)
let memo_try_establish t line =
  let matches = ref 0 in
  let idx = ref (-1) in
  let near = ref false in
  for i = 0 to stream_table_size - 1 do
    let l = Array.unsafe_get t.st_line i in
    if l = line then begin
      incr matches;
      idx := i
    end
    else if l <> min_int then begin
      (* The empty-slot sentinel must be skipped before the distance
         test: [line - min_int] overflows, and [abs min_int] is still
         negative, so an unguarded compare reads an empty slot as
         "near" and line 0 can never be memoized. *)
      let d = line - l in
      if d <> 0 && abs d <= max_prefetch_stride_lines then near := true
    end
  done;
  if !matches = 1 && not !near then begin
    let slot = t.memo_next in
    t.memo_line.(slot) <- line;
    t.memo_stream.(slot) <- !idx;
    t.memo_next <- (slot + 1) mod memo_size
  end

(* Returns [true] when [line] continues an established stream whose
   stride is small enough for the hardware streamer to follow. *)
let stream_hit t line =
  let found = ref false in
  let i = ref 0 in
  while (not !found) && !i < stream_table_size do
    let l = Array.unsafe_get t.st_line !i in
    if l = line then found := true
    else begin
      let delta = line - l in
      if delta <> 0 && abs delta <= max_prefetch_stride_lines then begin
        let st = Array.unsafe_get t.st_stride !i in
        if st = delta then begin
          (* Established stream continues. *)
          Array.unsafe_set t.st_line !i line;
          memo_invalidate t ~stream:!i ~moved_line:line;
          found := true
        end
        else if st = 0 && l <> min_int then begin
          (* Second touch establishes the stride; the streamer
             starts covering from the next access on. *)
          Array.unsafe_set t.st_stride !i delta;
          Array.unsafe_set t.st_line !i line;
          memo_invalidate t ~stream:!i ~moved_line:line
        end
      end
    end;
    incr i
  done;
  if not !found then begin
    (* Is some tracker one step behind (training touch)?  Otherwise
       allocate a fresh tracker on the round-robin victim. *)
    let trained = ref false in
    for j = 0 to stream_table_size - 1 do
      let st = Array.unsafe_get t.st_stride j in
      if st <> 0 && Array.unsafe_get t.st_line j + st = line then
        trained := true
    done;
    if not !trained then begin
      let victim = t.next_stream in
      t.st_line.(victim) <- line;
      t.st_stride.(victim) <- 0;
      t.st_addr.(victim) <- min_int;
      t.next_stream <- (victim + 1) mod stream_table_size;
      memo_invalidate t ~stream:victim ~moved_line:line
    end
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

let record_addr t line addr =
  for i = 0 to stream_table_size - 1 do
    if Array.unsafe_get t.st_line i = line then
      Array.unsafe_set t.st_addr i addr
  done

(* ------------------------------------------------------------------ *)
(* Fill pipeline                                                       *)
(* ------------------------------------------------------------------ *)

let earliest_buffer t =
  let best = ref 0 in
  for i = 1 to Array.length t.fill_buffers - 1 do
    if t.fill_buffers.(i) < t.fill_buffers.(!best) then best := i
  done;
  !best

(* Charge one line fill served by [serving] level.  [streamed] fills are
   covered by the prefetcher: their latency collapses to the serving
   bandwidth; demand (random) fills pay the level's full latency.
   Returns the fill completion time. *)
let line_fill t ~now ~streamed ~write ~serving =
  let cfg = t.cfg in
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
    | Ram -> t.ram_share
  in
  let transfer = if bw = infinity then 0. else line /. bw in
  (* Stores write-allocate: the RFO read plus the eventual writeback
     consume the fill path twice. *)
  let transfer = if write then 2. *. transfer else transfer in
  let full_latency =
    match serving with
    | L1 -> float_of_int cfg.l1_latency_cycles
    | L2 -> float_of_int cfg.l2_latency_cycles
    | L3 -> Config.cycles_of_ns cfg cfg.l3_latency_ns
    | Ram -> Config.cycles_of_ns cfg cfg.ram_latency_ns
  in
  let buf = earliest_buffer t in
  let start = Float.max now (Float.max t.fill_buffers.(buf) t.bandwidth_free) in
  t.bandwidth_free <- start +. transfer;
  let completion =
    if streamed then start +. Float.max transfer (float_of_int cfg.l1_latency_cycles)
    else start +. full_latency +. transfer
  in
  t.fill_buffers.(buf) <- completion;
  if streamed then t.c_prefetched <- t.c_prefetched + 1;
  completion

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
    let start = Float.max now t.walker_free in
    let finish = start +. page_walk_cycles in
    t.walker_free <- finish;
    finish -. now
  end

let translate t ~now ~addr =
  if not t.tlb_on then 0.
  else begin
    let page = addr lsr 12 in
    if Cache.access t.dtlb page then 0. else translate_miss t ~now ~page
  end

(* The TLB-hit and L1-hit cases are open-coded at each access site:
   they are the steady state, and a call per layer is what the slow
   path would otherwise spend its time on. *)
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
  let streamed = stream_hit t line && t.prefetcher_on in
  let ready =
    if Cache.access t.l1 line then begin
      t.last_level <- L1;
      t.c_l1_hits <- t.c_l1_hits + 1;
      now +. float_of_int t.cfg.l1_latency_cycles
    end
    else begin
      let serving = lookup_beyond_l1 t line in
      t.last_level <- serving;
      (match serving with
      | L2 -> t.c_l2_hits <- t.c_l2_hits + 1
      | L3 -> t.c_l3_hits <- t.c_l3_hits + 1
      | Ram | L1 -> t.c_ram <- t.c_ram + 1);
      line_fill t ~now ~streamed ~write ~serving
    end
  in
  record_addr t line addr;
  ready

(* Non-temporal store: write-combining buffers stream the data straight
   to DRAM — no allocation, no read-for-ownership, single-direction
   bandwidth.  The data-ready time is just the store-buffer handoff. *)
let nt_store t ~now ~addr ~bytes =
  t.c_nt_stores <- t.c_nt_stores + 1;
  let tlb_penalty = translate t ~now ~addr in
  let now = now +. tlb_penalty in
  let bw = t.ram_share in
  let transfer = float_of_int bytes /. bw in
  t.bandwidth_free <- Float.max t.bandwidth_free now +. transfer;
  t.last_level <- Ram;
  (* Finite write-combining buffers (four lines): once the DRAM backlog
     exceeds them, the store stalls until it drains — streaming stores
     end up paying single-direction bandwidth, i.e. half a regular
     write-allocate store stream. *)
  let line = float_of_int t.cfg.Config.l1.Config.line_bytes in
  let wc_allowance = 4. *. line /. bw in
  Float.max (now +. 1.) (t.bandwidth_free -. wc_allowance)

(* Memoized repeat of [single_access] for a line whose stream scan is
   known pure-found: translation and cache lookup still run for real
   (they carry their own state and counters), only the 16-way stream
   scans are skipped.  [streamed] is exactly what the slow path would
   compute: found && prefetcher feature. *)
let split_access t ~now ~addr ~write ~first_line =
  (* Line-split access: both halves must arrive, plus a fixed split
     penalty for the re-issue (the core also books a replay uop). *)
  t.c_splits <- t.c_splits + 1;
  if t.cfg.Config.features.Config.split_penalty then t.last_split <- true;
  let r1 = single_access t ~now ~addr ~write in
  let second_addr = (first_line + 1) * t.cfg.l1.line_bytes in
  let r2 = single_access t ~now:r1 ~addr:second_addr ~write in
  let penalty =
    if t.cfg.Config.features.Config.split_penalty then
      float_of_int t.cfg.split_line_penalty_cycles
    else 0.
  in
  Float.max r1 r2 +. penalty

let access_nt t ~nt ~now ~addr ~bytes ~write =
  t.c_accesses <- t.c_accesses + 1;
  let bytes = if bytes < 1 then 1 else bytes in
  t.last_split <- false;
  if nt && write then nt_store t ~now ~addr ~bytes
  else begin
    let shift = t.l1.Cache.line_shift in
    let first_line = addr lsr shift in
    let last_line = (addr + bytes - 1) lsr shift in
    if t.alias_scale = 0. then begin
      (* No alias interference: the penalty term is identically 0 and
         the alias scan never runs, so the memo fast path applies. *)
      if first_line = last_line then begin
        let slot = memo_find t first_line in
        if slot >= 0 then begin
          (* Memo hit, open-coded (= [memo_single_access] with the
             repeat-line cache checks already inlined): the steady
             state of every strided stream lands here. *)
          let now =
            if not t.tlb_on then now
            else begin
              let page = addr lsr 12 in
              let dtlb = t.dtlb in
              let dset =
                let m = dtlb.Cache.set_mask in
                if m >= 0 then page land m else page mod dtlb.Cache.sets
              in
              if page = Array.unsafe_get dtlb.Cache.last_line dset then begin
                dtlb.Cache.hit_count <- dtlb.Cache.hit_count + 1;
                now
              end
              else if Cache.access dtlb page then now
              else now +. translate_miss t ~now ~page
            end
          in
          let ready =
            let l1 = t.l1 in
            let lset =
              let m = l1.Cache.set_mask in
              if m >= 0 then first_line land m else first_line mod l1.Cache.sets
            in
            if first_line = Array.unsafe_get l1.Cache.last_line lset then begin
              l1.Cache.hit_count <- l1.Cache.hit_count + 1;
              t.last_level <- L1;
              t.c_l1_hits <- t.c_l1_hits + 1;
              now +. float_of_int t.cfg.l1_latency_cycles
            end
            else if Cache.access l1 first_line then begin
              t.last_level <- L1;
              t.c_l1_hits <- t.c_l1_hits + 1;
              now +. float_of_int t.cfg.l1_latency_cycles
            end
            else begin
              let serving = lookup_beyond_l1 t first_line in
              t.last_level <- serving;
              (match serving with
              | L2 -> t.c_l2_hits <- t.c_l2_hits + 1
              | L3 -> t.c_l3_hits <- t.c_l3_hits + 1
              | Ram | L1 -> t.c_ram <- t.c_ram + 1);
              line_fill t ~now ~streamed:t.prefetcher_on ~write ~serving
            end
          in
          Array.unsafe_set t.st_addr (Array.unsafe_get t.memo_stream slot) addr;
          ready
        end
        else begin
          let r = single_access t ~now ~addr ~write in
          memo_try_establish t first_line;
          r
        end
      end
      else split_access t ~now ~addr ~write ~first_line
    end
    else begin
      (* Cross-array page-offset collisions only hurt when the memory
         system is under multi-core pressure (Section 5.2.2's alignment
         studies run 8- and 32-core saturated configurations); a lone
         core absorbs them (Fig. 4's <3% variation at 200x200). *)
      let alias = alias_conflict t addr in
      if alias then t.c_alias <- t.c_alias + 1;
      let alias_pen =
        if alias then t.cfg.page_4k_alias_penalty_cycles *. t.alias_scale
        else 0.
      in
      (* A conflicting access replays through the memory pipeline: the
         penalty is occupancy, not just latency, so saturated streams
         slow down (the Figures 15/16 alignment bands). *)
      if alias then
        t.bandwidth_free <- Float.max t.bandwidth_free now +. alias_pen;
      if first_line = last_line then
        single_access t ~now ~addr ~write +. alias_pen
      else split_access t ~now ~addr ~write ~first_line +. alias_pen
    end
  end

let access ?(nt = false) t ~now ~addr ~bytes ~write =
  access_nt t ~nt ~now ~addr ~bytes ~write

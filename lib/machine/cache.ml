type t = {
  sets : int;
  ways : int;
  line_shift : int;
  (* tags.(set * ways + way) holds a line number, or -1 when invalid.
     Within a set, way 0 is most recently used: a hit moves its tag to
     the front, a miss shifts everything down and inserts at the front
     (true LRU, cheap for the small associativities we model). *)
  tags : int array;
  mutable hit_count : int;
  mutable miss_count : int;
  set_mask : int;
  (* Per set, the line served by the set's previous access.  A repeat
     of the same line is a guaranteed hit already sitting at way 0
     (both the hit and the miss paths leave the accessed line
     most-recently-used), so the way scan and LRU shuffle can be
     skipped wholesale — and because the check is per set, interleaved
     streams in distinct sets all stay on the shortcut. *)
  last_line : int array;
}

let log2_exact n =
  let rec go k m = if m = 1 then k else go (k + 1) (m lsr 1) in
  if n <= 0 || n land (n - 1) <> 0 then invalid_arg "Cache: not a power of two";
  go 0 n

let create (geom : Config.cache_geom) =
  let sets = geom.size_bytes / (geom.line_bytes * geom.associativity) in
  if sets <= 0 then invalid_arg "Cache.create: set count must be positive";
  {
    sets;
    ways = geom.associativity;
    line_shift = log2_exact geom.line_bytes;
    tags = Array.make (sets * geom.associativity) (-1);
    hit_count = 0;
    miss_count = 0;
    set_mask = (if sets land (sets - 1) = 0 then sets - 1 else min_int);
    last_line = Array.make sets min_int;
  }

let line_of_addr t addr = addr lsr t.line_shift

(* Power-of-two set counts index by mask; others (e.g. a 12 MiB L3) by
   modulo, which is what sliced LLCs amount to for our purposes. *)
let set_of_line t line =
  if t.sets land (t.sets - 1) = 0 then line land (t.sets - 1) else line mod t.sets

let find_way t base line =
  let rec go way =
    if way >= t.ways then -1
    else if t.tags.(base + way) = line then way
    else go (way + 1)
  in
  go 0

(* Self-contained: the way scan and LRU promotion are open-coded so the
   per-lookup cost is the loop itself — no inner-closure allocation and
   no helper calls on the path every simulated access takes. *)
let access t line =
  let set =
    if t.set_mask >= 0 then line land t.set_mask else line mod t.sets
  in
  if line = Array.unsafe_get t.last_line set then begin
    (* Guaranteed hit at way 0: the set's previous access left this
       line most-recently-used, so the scan and shuffle are no-ops. *)
    t.hit_count <- t.hit_count + 1;
    true
  end
  else begin
    Array.unsafe_set t.last_line set line;
    let ways = t.ways in
    let base = set * ways in
    let tags = t.tags in
    (* [base + way < sets * ways = Array.length tags] throughout, so
       the scan and the LRU shuffle skip the bounds checks. *)
    let way = ref 0 in
    while !way < ways && Array.unsafe_get tags (base + !way) <> line do
      incr way
    done;
    let hit = !way < ways in
    if hit then begin
      t.hit_count <- t.hit_count + 1;
      if !way > 0 then begin
        for i = !way downto 1 do
          Array.unsafe_set tags (base + i)
            (Array.unsafe_get tags (base + i - 1))
        done;
        Array.unsafe_set tags base line
      end
    end
    else begin
      t.miss_count <- t.miss_count + 1;
      for i = ways - 1 downto 1 do
        Array.unsafe_set tags (base + i) (Array.unsafe_get tags (base + i - 1))
      done;
      Array.unsafe_set tags base line
    end;
    hit
  end

let probe t line =
  let base = set_of_line t line * t.ways in
  find_way t base line >= 0

let reset t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  t.hit_count <- 0;
  t.miss_count <- 0;
  Array.fill t.last_line 0 (Array.length t.last_line) min_int

let hits t = t.hit_count

let misses t = t.miss_count

let set_count t = t.sets

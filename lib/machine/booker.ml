(* Cycle-granular port booking with gap filling: a uop that becomes
   ready at cycle [t] takes the first cycle >= t in which fewer than
   [ports] uops are already booked — younger ready uops slot into the
   holes older stalled uops leave, as a real scheduler does.  The ring
   remembers [window] cycles; bookings never spread wider than the
   instruction window allows in practice.

   A ring serves many calls and is never cleared.  Each slot is tagged
   with its cycle plus the call's [base], and [start_call] moves [base]
   past the highest tag the ring holds, so no slot booked by an earlier
   call can match.  Within one call every tag is the cycle plus the
   same constant: slots collide and get overwritten exactly as in a
   fresh ring.  ([base] grows by one call's cycle count per call;
   reaching [max_int] would take millennia of simulation.)

   A saturated port makes every late uop walk the full cycles between
   its ready time and the booking frontier.  So the ring also keeps one
   range [\[lo, hi)] of tags known to be booked full whose slots still
   hold them: a walk that reaches the range jumps to [hi], and a walk
   that passes full cycles merges them into it.  Full slots only change
   by a retag, so a retag that overwrites a tag inside the range drops
   the range; that covers a wrap of the ring in either direction.  The
   range stays narrower than the window, so no two of its tags share a
   slot, and [start_call] empties it. *)

type t = {
  mutable ports : int;
  counts : int array;
  tag : int array;
  mutable base : int;
  mutable top : int;
  mutable lo : int;
  mutable hi : int;
}

let window = 8192

(* [window] is a power of two so the ring index is a mask, not an
   integer division — [book] runs once per booked cycle on the hot
   path and idiv latency would dominate it. *)
let mask = window - 1

let create ~ports =
  { ports; counts = Array.make window 0; tag = Array.make window min_int;
    base = 0; top = -1; lo = 0; hi = 0 }

let start_call t ~ports =
  t.ports <- ports;
  t.base <- t.top + 1;
  t.lo <- 0;
  t.hi <- 0

(* [idx] is masked into [0, window), so the ring accesses skip the
   bounds checks. *)
let[@inline] retag t idx key =
  let old = Array.unsafe_get t.tag idx in
  if old >= t.lo && old < t.hi then t.hi <- t.lo;
  Array.unsafe_set t.tag idx key;
  Array.unsafe_set t.counts idx 0;
  if key > t.top then t.top <- key

(* Tags [\[a, b)] are booked full: extend the range with them when they
   touch it, else replace it. *)
let[@inline] note_full t a b =
  if a <= t.hi && b >= t.lo then begin
    if a < t.lo then t.lo <- a;
    if b > t.hi then t.hi <- b
  end
  else begin
    t.lo <- a;
    t.hi <- b
  end;
  if t.hi - t.lo > mask then t.lo <- t.hi - mask

(* [from] is the tag of the first full cycle this walk passed, or
   [max_int] before it has passed one.  Tags only grow along a walk. *)
let rec walk t c from =
  let key = c + t.base in
  if key >= t.lo && key < t.hi then
    walk t (t.hi - t.base) (if from = max_int then key else from)
  else begin
    let idx = c land mask in
    if Array.unsafe_get t.tag idx <> key then retag t idx key;
    let n = Array.unsafe_get t.counts idx in
    if n < t.ports then begin
      Array.unsafe_set t.counts idx (n + 1);
      if from < key then note_full t from key;
      c
    end
    else walk t (c + 1) (if from = max_int then key else from)
  end

let book t c = walk t c max_int

(* The first probe, for [Core.run]'s single-uop bookings: most find
   their cycle free, so only a full one pays for the walk. *)
let[@inline] book1 t c =
  let idx = c land mask in
  let key = c + t.base in
  if Array.unsafe_get t.tag idx <> key then begin
    retag t idx key;
    Array.unsafe_set t.counts idx 1;
    c
  end
  else begin
    let n = Array.unsafe_get t.counts idx in
    if n < t.ports then begin
      Array.unsafe_set t.counts idx (n + 1);
      c
    end
    else walk t (c + 1) key
  end

let rec extend_span t c remaining =
  if remaining > 0 then begin
    ignore (book t c);
    extend_span t (c + 1) (remaining - 1)
  end

(* Book [occupancy] consecutive cycles starting no earlier than cycle
   [start]; returns the first booked cycle.  All-integer so the hot
   path never boxes. *)
let book_span t ~start ~occupancy =
  let first = book t start in
  extend_span t (first + 1) (occupancy - 1);
  first

(* Float-facing wrapper kept for the reference interpreter. *)
let book_from t ~time ~occupancy =
  float_of_int (book_span t ~start:(int_of_float (Float.ceil time)) ~occupancy)

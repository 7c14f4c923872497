(* The port booker as it was before it learned to skip cycles known to
   be full: the reference the current [Mt_machine.Booker] is checked
   against (test/fastpath_tests.ml).  Both engines share the booker, so
   only this copy can pin it.  Kept verbatim below this comment; do not
   optimise. *)

type t = {
  mutable ports : int;
  counts : int array;
  tag : int array;  (* cycle + base of the booking in the slot *)
  mutable base : int;
  mutable top : int;  (* highest tag written *)
}

let window = 8192

(* [window] is a power of two so the ring index is a mask, not an
   integer division — [book] runs once per booked cycle on the hot
   path and idiv latency would dominate it. *)
let mask = window - 1

let create ~ports =
  { ports; counts = Array.make window 0; tag = Array.make window min_int;
    base = 0; top = -1 }

let start_call t ~ports =
  t.ports <- ports;
  t.base <- t.top + 1

(* [idx] is masked into [0, window), so the ring accesses skip the
   bounds checks. *)
let rec book t c =
  let idx = c land mask in
  let key = c + t.base in
  if Array.unsafe_get t.tag idx <> key then begin
    Array.unsafe_set t.tag idx key;
    Array.unsafe_set t.counts idx 0;
    if key > t.top then t.top <- key
  end;
  let n = Array.unsafe_get t.counts idx in
  if n < t.ports then begin
    Array.unsafe_set t.counts idx (n + 1);
    c
  end
  else book t (c + 1)

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
  float_of_int
    (book_span t ~start:(int_of_float (Float.ceil time)) ~occupancy)

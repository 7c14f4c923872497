(** A set-associative cache with LRU replacement, simulated on real
    line addresses.  Alignment-induced set conflicts between
    concurrently streamed arrays emerge from this model directly. *)

type t = {
  sets : int;
  ways : int;
  line_shift : int;
  tags : int array;
  mutable hit_count : int;
  mutable miss_count : int;
  set_mask : int;
  last_line : int array;
}
(** Exposed concretely so {!Memory}'s per-access fast path can inline
    the repeat-same-line hit check without a cross-module call:
    [last_line.(set)] is the line served by the set's previous access,
    which both the hit and the miss paths of {!access} leave
    most-recently-used — a repeat is a guaranteed hit at way 0 with no
    LRU movement.  [set_mask] is [sets - 1] for power-of-two set
    counts, [min_int] otherwise (index by modulo).  Mutate only
    through {!access} / {!reset}. *)

val create : Config.cache_geom -> t

val access : t -> int -> bool
(** [access t line] looks up line number [line] (byte address divided by
    the line size is the caller's job — see {!line_of_addr}); on a miss
    the line is allocated, evicting the LRU way.  Returns [true] on
    hit. *)

val probe : t -> int -> bool
(** Like {!access} but without updating any state. *)

val line_of_addr : t -> int -> int
(** Byte address to line number. *)

val reset : t -> unit
(** Invalidate every line and zero the counters. *)

val hits : t -> int

val misses : t -> int

val set_count : t -> int

val set_of_line : t -> int -> int
(** The set index a line maps to (for conflict diagnostics in tests). *)

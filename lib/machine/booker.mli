(** Cycle-granular port booking for one port class: a uop ready at
    cycle [c] takes the first cycle [>= c] with fewer than [ports] uops
    booked.  Both engines book through it; booker.ml describes the ring
    and the range of full cycles a walk skips. *)

type t = {
  mutable ports : int;
  counts : int array;
  tag : int array;
  mutable base : int;
  mutable top : int;
  mutable lo : int;
  mutable hi : int;
}
(** Exposed for tests; mutate only through this module. *)

val window : int
(** Cycles the ring remembers: cycle [c] books slot [c land (window - 1)]. *)

val create : ports:int -> t

val start_call : t -> ports:int -> unit
(** Begin a call: no slot an earlier call booked can match its bookings. *)

val book : t -> int -> int
(** [book t c] books one uop at the first cycle [>= c] with a free port
    and returns that cycle. *)

val book1 : t -> int -> int
(** {!book}, with its first probe inlined into {!Core.run}. *)

val book_span : t -> start:int -> occupancy:int -> int
(** Book [occupancy] consecutive cycles from the first free one
    [>= start]; returns it. *)

val book_from : t -> time:float -> occupancy:int -> float
(** {!book_span} from the ceiling of a float time, for the reference
    interpreter. *)

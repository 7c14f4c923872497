(** Simulated address-space layout for kernel arrays.

    MicroLauncher allocates the arrays a kernel needs and controls each
    one's alignment (Sections 4.2, 5.2.2).  This is the bump allocator
    behind that: it hands out non-overlapping regions whose base
    addresses have a requested alignment and intra-page offset. *)

type region = {
  base : int;  (** First byte address of usable storage. *)
  size : int;  (** Usable bytes. *)
}

type t

val create : ?start:int -> unit -> t
(** A fresh address space.  [start] defaults to 256 MiB. *)

val alloc : t -> size:int -> align:int -> offset:int -> region
(** [alloc t ~size ~align ~offset] reserves a region of [size] bytes at
    the next address congruent to [offset] modulo [align].  [align] must
    be a positive power of two and [0 <= offset < align].  Regions are
    padded apart by a guard gap so distinct arrays never share a cache
    line by accident.
    @raise Invalid_argument on bad alignment arguments. *)

val reset : t -> unit
(** Release everything (the next allocation starts over). *)

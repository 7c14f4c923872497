(** Deterministic fault injection: a declarative "break the K-th unit
    of work in this way" that the resilience tests and the cram test
    [test/cram/chaos.t] use to prove the supervisor degrades gracefully
    instead of aborting.

    Faults are injected at the supervision layer, not inside the
    simulator, so an injected run exercises exactly the quarantine /
    cache-recovery paths a real crash would.  A unit of work runs once,
    so a fault breaks it for the whole run. *)

type kind =
  | Raise  (** the attempt raises {!Injected} *)
  | Timeout  (** the attempt is treated as having blown its wall budget *)
  | Corrupt_cache_entry
      (** garbage is stored at the work unit's cache key before the
          attempt, exercising {!Mt_parallel.Cache} decode recovery (a
          no-op when the run has no cache) *)

exception Injected of string
(** What {!Raise} faults throw. *)

type t = {
  index : int;  (** position of the faulted unit in the work list *)
  kind : kind;
}

val of_spec : string -> (t, string) result
(** Parse the CLI syntax [variant=K:kind], e.g. [variant=0:raise],
    [variant=3:timeout], [variant=2:corrupt-cache-entry]. *)

val to_spec : t -> string
(** Inverse of {!of_spec} (canonical kind spelling). *)

val kind_to_string : kind -> string

val kind_of_string : string -> (kind, string) result

val find : t list -> index:int -> t option
(** The fault targeting work-unit [index], if any. *)

(** Deterministic fault injection: a declarative "break the K-th unit
    of work in this way" that the resilience tests and the cram test
    [test/cram/chaos.t] use to prove the supervisor degrades gracefully
    instead of aborting.

    Faults are injected at the supervision layer, not inside the
    simulator, so an injected run exercises exactly the retry /
    quarantine / cache-recovery paths a real crash would. *)

type kind =
  | Raise  (** the attempt raises {!Injected} *)
  | Timeout  (** the attempt is treated as having blown its wall budget *)
  | Corrupt_cache_entry
      (** garbage is stored at the work unit's cache key before the
          first attempt, exercising {!Mt_parallel.Cache} decode
          recovery (a no-op when the run has no cache) *)

exception Injected of string
(** What {!Raise} faults throw. *)

type t = {
  index : int;  (** position of the faulted unit in the work list *)
  kind : kind;
  times : int option;
      (** inject on the first [times] attempts only ([None] = every
          attempt, so retries cannot mask the fault) *)
}

val make : ?times:int -> index:int -> kind -> t

val of_spec : string -> (t, string) result
(** Parse the CLI syntax [variant=K:kind[@N]], e.g. [variant=0:raise],
    [variant=3:timeout@1] (fault the first attempt only; a retry then
    succeeds), [variant=2:corrupt-cache-entry]. *)

val to_spec : t -> string
(** Inverse of {!of_spec} (canonical kind spelling). *)

val kind_to_string : kind -> string

val kind_of_string : string -> (kind, string) result

val find : t list -> index:int -> t option
(** The fault targeting work-unit [index], if any. *)

val fires : t -> attempt:int -> bool
(** Does this fault inject on the given 1-based attempt? *)

(** Architectural (value-level) execution of the GPR subset: register
    values and flags.  The timing model in {!Core} consults this to
    compute addresses and resolve branches; XMM data values are not
    tracked (micro-benchmark timing never depends on them).

    Loads into a GPR produce the value 0 — the generated kernels never
    use loaded integers as addresses, and {!Core.run} rejects programs
    that would. *)

type t = { gpr : int array; mutable flags : int }
(** Exposed concretely so {!Core.run}'s replay loop can read address
    registers and apply effects with direct array accesses instead of
    a cross-module call per instruction.  [gpr] is indexed by
    {!gpr_index}; [flags] holds the signed result the flag-setting
    instruction produced. *)

val create : unit -> t

val gpr_index : Mt_isa.Reg.gpr_name -> int
(** Stable 0..15 index of a GPR, shared with the core's scoreboard. *)

val get : t -> Mt_isa.Reg.t -> int
(** Current value of a register.  XMM registers read as 0.
    @raise Invalid_argument for logical (unallocated) registers. *)

val set : t -> Mt_isa.Reg.t -> int -> unit
(** Assign a register.  Assignments to XMM registers are ignored. *)

val address_of : t -> Mt_isa.Operand.mem -> int
(** Effective address [disp + base + index*scale]. *)

val step : t -> Mt_isa.Insn.t -> unit
(** Apply the architectural effect of one non-control-flow instruction:
    register updates and flag updates.  Branches are a no-op here (the
    core handles control flow via {!branch_taken}). *)

type src = S_imm of int | S_gpr of int

type binop_kind =
  | B_add | B_sub | B_and | B_or | B_xor | B_imul | B_shl | B_shr

type effect =
  | E_none
  | E_mov of int * src  (** gpr index <- src; no flags *)
  | E_lea of int * int * int * int * int
      (** dst gpr <- disp + base + index*scale; base/index -1 = absent *)
  | E_bin of binop_kind * int * src * src
      (** dst gpr (-1 = discard) <- op a b; flags <- result *)
(** The architectural effect of one instruction, resolved at decode
    time (operand lists matched, register slots and immediates
    flattened) so the replay loop applies it without allocating.
    Exposed concretely for the same reason as {!t}. *)

val compile_effect : Mt_isa.Insn.t -> effect
(** Precompile an instruction's effect.  [apply_effect t (compile_effect i)]
    is observationally identical to [step t i]. *)

val apply_effect : t -> effect -> unit
(** Apply a precompiled effect.  Allocation-free. *)

val effect_is_none : effect -> bool
(** Whether the effect is a no-op, so replay loops can precompute a
    skip flag instead of paying a call per instruction. *)

val branch_taken : t -> Mt_isa.Insn.cond -> bool
(** Evaluate a condition against the current flags. *)

val reset : t -> unit

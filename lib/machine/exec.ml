open Mt_isa

type t = { gpr : int array; mutable flags : int }

let create () = { gpr = Array.make 16 0; flags = 0 }

let reset t =
  Array.fill t.gpr 0 16 0;
  t.flags <- 0

let gpr_index = function
  | Reg.RAX -> 0 | Reg.RCX -> 1 | Reg.RDX -> 2 | Reg.RBX -> 3
  | Reg.RSP -> 4 | Reg.RBP -> 5 | Reg.RSI -> 6 | Reg.RDI -> 7
  | Reg.R8 -> 8 | Reg.R9 -> 9 | Reg.R10 -> 10 | Reg.R11 -> 11
  | Reg.R12 -> 12 | Reg.R13 -> 13 | Reg.R14 -> 14 | Reg.R15 -> 15

let get t = function
  | Reg.Gpr (n, _) -> t.gpr.(gpr_index n)
  | Reg.Xmm _ -> 0
  | Reg.Logical name ->
    invalid_arg (Printf.sprintf "Exec.get: unallocated logical register %s" name)

let set t r v =
  match r with
  | Reg.Gpr (n, _) -> t.gpr.(gpr_index n) <- v
  | Reg.Xmm _ -> ()
  | Reg.Logical name ->
    invalid_arg (Printf.sprintf "Exec.set: unallocated logical register %s" name)

let address_of t (m : Operand.mem) =
  let base = match m.base with None -> 0 | Some r -> get t r in
  let index = match m.index with None -> 0 | Some r -> get t r in
  m.disp + base + (index * m.scale)

let operand_value t = function
  | Operand.Imm n -> n
  | Operand.Reg r -> get t r
  | Operand.Mem _ -> 0 (* loaded data values are not tracked *)
  | Operand.Label _ -> 0

let set_operand t op v =
  match op with
  | Operand.Reg r -> set t r v
  | Operand.Mem _ | Operand.Imm _ | Operand.Label _ -> ()

let step t (i : Insn.t) =
  let binop f = function
    | [ src; dst ] ->
      let v = f (operand_value t dst) (operand_value t src) in
      set_operand t dst v;
      t.flags <- v
    | _ -> ()
  in
  match i.op, i.operands with
  | Insn.MOV, [ src; dst ] -> set_operand t dst (operand_value t src)
  | Insn.LEA, [ Operand.Mem m; dst ] -> set_operand t dst (address_of t m)
  | Insn.ADD, ops -> binop ( + ) ops
  | Insn.SUB, ops -> binop ( - ) ops
  | Insn.AND, ops -> binop ( land ) ops
  | Insn.OR, ops -> binop ( lor ) ops
  | Insn.XOR, ops -> binop ( lxor ) ops
  | Insn.IMUL, ops -> binop ( * ) ops
  | Insn.SHL, ops -> binop (fun d s -> d lsl s) ops
  | Insn.SHR, ops -> binop (fun d s -> d lsr s) ops
  | Insn.INC, [ dst ] ->
    let v = operand_value t dst + 1 in
    set_operand t dst v;
    t.flags <- v
  | Insn.DEC, [ dst ] ->
    let v = operand_value t dst - 1 in
    set_operand t dst v;
    t.flags <- v
  | Insn.NEG, [ dst ] ->
    let v = -operand_value t dst in
    set_operand t dst v;
    t.flags <- v
  | Insn.CMP, [ src; dst ] -> t.flags <- operand_value t dst - operand_value t src
  | Insn.TEST, [ src; dst ] -> t.flags <- operand_value t dst land operand_value t src
  | ( Insn.MOVSS | Insn.MOVSD | Insn.MOVAPS | Insn.MOVAPD | Insn.MOVUPS
    | Insn.MOVUPD | Insn.MOVDQA | Insn.MOVDQU | Insn.MOVNTPS | Insn.MOVNTDQ
    | Insn.PREFETCHT0 | Insn.PREFETCHT1 | Insn.PREFETCHNTA
    | Insn.PADDD | Insn.PSUBD | Insn.PAND | Insn.POR | Insn.PXOR
    | Insn.ADDSS | Insn.ADDSD | Insn.ADDPS | Insn.ADDPD
    | Insn.SUBSS | Insn.SUBSD | Insn.SUBPS | Insn.SUBPD | Insn.MULSS
    | Insn.MULSD | Insn.MULPS | Insn.MULPD | Insn.DIVSS | Insn.DIVSD
    | Insn.DIVPS | Insn.DIVPD | Insn.SQRTSS | Insn.SQRTSD ), _ -> ()
  | (Insn.JMP | Insn.Jcc _ | Insn.NOP | Insn.RET), _ -> ()
  | (Insn.MOV | Insn.LEA | Insn.INC | Insn.DEC | Insn.NEG | Insn.CMP | Insn.TEST), _ -> ()

(* ------------------------------------------------------------------ *)
(* Precompiled effects                                                  *)
(* ------------------------------------------------------------------ *)

(* The replay fast path resolves each instruction's architectural
   effect once at decode time into this flat form, so the steady-state
   loop applies it with a single dispatch — no operand-list matching,
   no closures, no allocation.  [apply_effect] must mirror [step]
   exactly, including its quirks: memory and XMM operands read as 0,
   writes to anything but a GPR are dropped, and malformed arities are
   no-ops. *)

type src = S_imm of int | S_gpr of int

type binop_kind =
  | B_add | B_sub | B_and | B_or | B_xor | B_imul | B_shl | B_shr

type effect =
  | E_none
  | E_mov of int * src  (* gpr index <- src; no flags *)
  | E_lea of int * int * int * int * int
      (* dst gpr <- disp + base + index*scale; base/index -1 = absent *)
  | E_bin of binop_kind * int * src * src
      (* dst gpr (-1 = discard) <- op a b; flags <- result *)

let src_of_operand t_op =
  match t_op with
  | Operand.Imm n -> S_imm n
  | Operand.Reg (Reg.Gpr (n, _)) -> S_gpr (gpr_index n)
  | Operand.Reg (Reg.Xmm _) | Operand.Mem _ | Operand.Label _ -> S_imm 0
  | Operand.Reg (Reg.Logical _) -> S_imm 0 (* rejected by Core.compile *)

let dst_slot = function
  | Operand.Reg (Reg.Gpr (n, _)) -> gpr_index n
  | _ -> -1

let lea_slot = function
  | None -> -1
  | Some (Reg.Gpr (n, _)) -> gpr_index n
  | Some (Reg.Xmm _ | Reg.Logical _) -> -1

let compile_effect (i : Insn.t) =
  let bin k = function
    | [ src; dst ] -> E_bin (k, dst_slot dst, src_of_operand dst, src_of_operand src)
    | _ -> E_none
  in
  match i.op, i.operands with
  | Insn.MOV, [ src; dst ] -> (
    match dst_slot dst with
    | -1 -> E_none
    | s -> E_mov (s, src_of_operand src))
  | Insn.LEA, [ Operand.Mem m; dst ] -> (
    match dst_slot dst with
    | -1 -> E_none
    | s -> E_lea (s, lea_slot m.Operand.base, lea_slot m.Operand.index, m.Operand.scale, m.Operand.disp))
  | Insn.ADD, ops -> bin B_add ops
  | Insn.SUB, ops -> bin B_sub ops
  | Insn.AND, ops -> bin B_and ops
  | Insn.OR, ops -> bin B_or ops
  | Insn.XOR, ops -> bin B_xor ops
  | Insn.IMUL, ops -> bin B_imul ops
  | Insn.SHL, ops -> bin B_shl ops
  | Insn.SHR, ops -> bin B_shr ops
  | Insn.INC, [ dst ] -> E_bin (B_add, dst_slot dst, src_of_operand dst, S_imm 1)
  | Insn.DEC, [ dst ] -> E_bin (B_sub, dst_slot dst, src_of_operand dst, S_imm 1)
  | Insn.NEG, [ dst ] -> E_bin (B_sub, dst_slot dst, S_imm 0, src_of_operand dst)
  | Insn.CMP, [ src; dst ] ->
    E_bin (B_sub, -1, src_of_operand dst, src_of_operand src)
  | Insn.TEST, [ src; dst ] ->
    E_bin (B_and, -1, src_of_operand dst, src_of_operand src)
  | _ -> E_none

let effect_is_none = function E_none -> true | _ -> false

let src_value t = function S_imm n -> n | S_gpr i -> t.gpr.(i)

let apply_effect t eff =
  match eff with
  | E_none -> ()
  | E_mov (dst, s) -> t.gpr.(dst) <- src_value t s
  | E_lea (dst, base, index, scale, disp) ->
    t.gpr.(dst) <-
      disp
      + (if base >= 0 then t.gpr.(base) else 0)
      + (if index >= 0 then t.gpr.(index) * scale else 0)
  | E_bin (k, dst, a, b) ->
    let av = src_value t a in
    let bv = src_value t b in
    let v =
      match k with
      | B_add -> av + bv
      | B_sub -> av - bv
      | B_and -> av land bv
      | B_or -> av lor bv
      | B_xor -> av lxor bv
      | B_imul -> av * bv
      | B_shl -> av lsl bv
      | B_shr -> av lsr bv
    in
    if dst >= 0 then t.gpr.(dst) <- v;
    t.flags <- v

(* Signed interpretation throughout; the generated kernels use small
   counters and addresses, where A/B coincide with G/L. *)
let branch_taken t (c : Insn.cond) =
  match c with
  | Insn.E -> t.flags = 0
  | Insn.NE -> t.flags <> 0
  | Insn.G | Insn.A -> t.flags > 0
  | Insn.GE | Insn.AE | Insn.NS -> t.flags >= 0
  | Insn.L | Insn.B | Insn.S -> t.flags < 0
  | Insn.LE | Insn.BE -> t.flags <= 0

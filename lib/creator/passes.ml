open Mt_isa

let fail fmt = Printf.ksprintf (fun s -> raise (Pass.Generation_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let reg_spec_key = function
  | Spec.Phys r -> "phys:" ^ Reg.name r
  | Spec.Named n -> "named:" ^ n
  | Spec.Xmm_rotation { rmin; rmax } -> Printf.sprintf "xmm:%d:%d" rmin rmax

let sample_choices ~seed ~k xs =
  (* Deterministically keep at most k elements of xs. *)
  if List.length xs <= k then xs
  else begin
    let rng = Mt_stats.Splitmix.create (Int64.of_int (seed lxor 0x5DEECE66)) in
    let weighted = List.map (fun x -> (Mt_stats.Splitmix.next rng, x)) xs in
    let sorted = List.sort (fun (a, _) (b, _) -> Int64.compare a b) weighted in
    let rec take n = function
      | [] -> []
      | _ when n = 0 -> []
      | (_, x) :: rest -> x :: take (n - 1) rest
    in
    take k sorted
  end

(* Fold a per-instruction expansion over the body, forking variants.
   [expand v idx instr] returns the alternatives for one instruction:
   each alternative is a replacement instruction list plus a decision
   tag (or None when forced). *)
let expand_body expand v =
  let body = Variant.abstract_body v in
  let seeds = [ ([], v) ] in
  let step acc (idx, instr) =
    List.concat_map
      (fun (rev_body, var) ->
        List.map
          (fun (replacement, decision) ->
            let var =
              match decision with
              | None -> var
              | Some (key, value) -> Variant.decide var key value
            in
            (List.rev_append replacement rev_body, var))
          (expand var idx instr))
      acc
  in
  let indexed = List.mapi (fun i x -> (i, x)) body in
  let finished = List.fold_left step seeds indexed in
  List.map
    (fun (rev_body, var) -> { var with Variant.body = Variant.Abstract (List.rev rev_body) })
    finished

(* ------------------------------------------------------------------ *)
(* 1. validate-spec                                                    *)
(* ------------------------------------------------------------------ *)

let validate_spec =
  Pass.make ~name:"validate-spec" ~description:"reject malformed kernel descriptions"
    (fun _ctx v ->
      match Spec.validate v.Variant.spec with
      | Ok () -> [ v ]
      | Error msg -> fail "%s" msg)

(* ------------------------------------------------------------------ *)
(* 2. canonicalize                                                     *)
(* ------------------------------------------------------------------ *)

let canonicalize =
  Pass.make ~name:"canonicalize" ~description:"collapse singleton choices"
    (fun _ctx v ->
      let simplify (i : Spec.instr_spec) =
        let op =
          match i.op with Spec.Op_choice [ one ] -> Spec.Fixed one | op -> op
        in
        let operands =
          List.map
            (function
              | Spec.S_imm_choice [ one ] -> Spec.S_imm one
              | operand -> operand)
            i.operands
        in
        { i with op; operands }
      in
      [ { v with body = Variant.Abstract (List.map simplify (Variant.abstract_body v)) } ])

(* ------------------------------------------------------------------ *)
(* 3. instruction-repetition                                           *)
(* ------------------------------------------------------------------ *)

let instruction_repetition =
  Pass.make ~name:"instruction-repetition"
    ~description:"expand per-instruction repeat ranges" (fun _ctx v ->
      let expand _var idx (i : Spec.instr_spec) =
        match i.repeat with
        | None -> [ ([ i ], None) ]
        | Some (lo, hi) ->
          List.init (hi - lo + 1) (fun k ->
              let count = lo + k in
              let copies = List.init count (fun _ -> { i with Spec.repeat = None }) in
              (copies, Some (Printf.sprintf "rep%d" idx, string_of_int count)))
      in
      expand_body expand v)

(* ------------------------------------------------------------------ *)
(* 4. instruction-selection                                            *)
(* ------------------------------------------------------------------ *)

let instruction_selection =
  Pass.make ~name:"instruction-selection"
    ~description:"fork one variant per opcode choice" (fun ctx v ->
      let expand _var idx (i : Spec.instr_spec) =
        match i.op with
        | Spec.Fixed _ | Spec.Move_bytes _ -> [ ([ i ], None) ]
        | Spec.Op_choice ops ->
          let ops =
            match ctx.Pass.random_selection with
            | None -> ops
            | Some k -> sample_choices ~seed:(ctx.Pass.seed + idx) ~k ops
          in
          List.map
            (fun op ->
              ( [ { i with Spec.op = Spec.Fixed op } ],
                Some (Printf.sprintf "op%d" idx, Insn.mnemonic op) ))
            ops
      in
      expand_body expand v)

(* ------------------------------------------------------------------ *)
(* 5. move-semantics                                                   *)
(* ------------------------------------------------------------------ *)

(* Split a move of [bytes] at displacement step [piece] into [n] pieces
   using [op]; memory displacements advance by [piece]. *)
let split_move (i : Spec.instr_spec) op piece n =
  List.init n (fun k ->
      let shift = k * piece in
      let operands =
        List.map
          (function
            | Spec.S_mem { base; offset } -> Spec.S_mem { base; offset = offset + shift }
            | operand -> operand)
          i.operands
      in
      { i with Spec.op = Spec.Fixed op; operands })

let move_semantics =
  Pass.make ~name:"move-semantics"
    ~description:"lower byte-count moves to aligned/unaligned/vector/scalar forms"
    (fun _ctx v ->
      let expand _var idx (i : Spec.instr_spec) =
        match i.op with
        | Spec.Fixed _ | Spec.Op_choice _ -> [ ([ i ], None) ]
        | Spec.Move_bytes 16 ->
          [
            (split_move i Insn.MOVAPS 16 1, Some (Printf.sprintf "mv%d" idx, "movaps"));
            (split_move i Insn.MOVUPS 16 1, Some (Printf.sprintf "mv%d" idx, "movups"));
            (split_move i Insn.MOVSD 8 2, Some (Printf.sprintf "mv%d" idx, "2movsd"));
            (split_move i Insn.MOVSS 4 4, Some (Printf.sprintf "mv%d" idx, "4movss"));
          ]
        | Spec.Move_bytes 8 ->
          [
            (split_move i Insn.MOVSD 8 1, Some (Printf.sprintf "mv%d" idx, "movsd"));
            (split_move i Insn.MOVSS 4 2, Some (Printf.sprintf "mv%d" idx, "2movss"));
          ]
        | Spec.Move_bytes 4 ->
          [ (split_move i Insn.MOVSS 4 1, Some (Printf.sprintf "mv%d" idx, "movss")) ]
        | Spec.Move_bytes b -> fail "move-semantics: unsupported byte count %d" b
      in
      expand_body expand v)

(* ------------------------------------------------------------------ *)
(* 6. stride-selection                                                 *)
(* ------------------------------------------------------------------ *)

(* Stride choices live in the spec's induction list; a chosen stride
   rewrites the spec carried by the variant so later passes see a
   single increment. *)
let stride_selection =
  Pass.make ~name:"stride-selection"
    ~description:"fork one variant per induction increment" (fun _ctx v ->
      let rec expand spec_inductions chosen_rev var =
        match spec_inductions with
        | [] ->
          let spec = { var.Variant.spec with Spec.inductions = List.rev chosen_rev } in
          [ { var with Variant.spec = spec } ]
        | (ind : Spec.induction_spec) :: rest -> (
          match ind.increments with
          | [ _ ] | [] -> expand rest (ind :: chosen_rev) var
          | choices ->
            List.concat_map
              (fun inc ->
                let var =
                  Variant.decide var
                    (Printf.sprintf "stride_%s" (reg_spec_key ind.ind_reg))
                    (string_of_int inc)
                in
                (* The per-copy unroll displacement follows the chosen
                   stride (unless the description pinned it to 0). *)
                let ind_offset = if ind.Spec.ind_offset = 0 then 0 else inc in
                expand rest
                  ({ ind with Spec.increments = [ inc ]; ind_offset } :: chosen_rev)
                  var)
              choices)
      in
      expand v.Variant.spec.Spec.inductions [] v)

(* ------------------------------------------------------------------ *)
(* 7. immediate-selection                                              *)
(* ------------------------------------------------------------------ *)

let immediate_selection =
  Pass.make ~name:"immediate-selection"
    ~description:"fork one variant per immediate choice" (fun _ctx v ->
      let expand _var idx (i : Spec.instr_spec) =
        (* Enumerate every combination of immediate choices in this
           instruction; the decision tag concatenates the picks so
           variant ids stay unique. *)
        let rec expand_operands = function
          | [] -> [ ([], []) ]
          | Spec.S_imm_choice values :: rest ->
            let tails = expand_operands rest in
            List.concat_map
              (fun value ->
                List.map
                  (fun (tail, picks) -> (Spec.S_imm value :: tail, value :: picks))
                  tails)
              values
          | operand :: rest ->
            List.map (fun (tail, picks) -> (operand :: tail, picks)) (expand_operands rest)
        in
        List.map
          (fun (operands, picks) ->
            let decision =
              match picks with
              | [] -> None
              | picks ->
                Some
                  ( Printf.sprintf "imm%d" idx,
                    String.concat "_" (List.map string_of_int picks) )
            in
            ([ { i with Spec.operands } ], decision))
          (expand_operands i.operands)
      in
      expand_body expand v)

(* ------------------------------------------------------------------ *)
(* 8/10. operand swaps                                                 *)
(* ------------------------------------------------------------------ *)

let swap_operands (i : Spec.instr_spec) =
  { i with Spec.operands = List.rev i.operands }

let operand_swap_pre =
  Pass.make ~name:"operand-swap-pre"
    ~description:"swap flagged operands before unrolling" (fun _ctx v ->
      let expand _var idx (i : Spec.instr_spec) =
        if not i.swap_before_unroll then [ ([ i ], None) ]
        else
          [
            ([ i ], Some (Printf.sprintf "swA%d" idx, "orig"));
            ([ swap_operands i ], Some (Printf.sprintf "swA%d" idx, "swap"));
          ]
      in
      expand_body expand v)

let operand_swap_post =
  Pass.make ~name:"operand-swap-post"
    ~description:"swap flagged operands after unrolling (all interleavings)"
    (fun ctx v ->
      let body = Variant.abstract_body v in
      let flagged =
        List.filteri (fun _ i -> i.Spec.swap_after_unroll) body |> List.length
      in
      if flagged = 0 then [ v ]
      else if flagged > 20 then
        fail "operand-swap-post: 2^%d interleavings; cap the unroll factor" flagged
      else begin
        let total = 1 lsl flagged in
        let variants = ref [] in
        let count = ref 0 in
        let mask = ref 0 in
        while !mask < total && !count < ctx.Pass.max_variants do
          let bit = ref 0 in
          let tag = Buffer.create flagged in
          let new_body =
            List.map
              (fun (i : Spec.instr_spec) ->
                if not i.Spec.swap_after_unroll then i
                else begin
                  let swapped = !mask land (1 lsl !bit) <> 0 in
                  incr bit;
                  Buffer.add_char tag (if swapped then 'S' else 'L');
                  if swapped then swap_operands i else i
                end)
              body
          in
          let var = Variant.decide v "swB" (Buffer.contents tag) in
          variants := { var with Variant.body = Variant.Abstract new_body } :: !variants;
          incr count;
          incr mask
        done;
        List.rev !variants
      end)

(* ------------------------------------------------------------------ *)
(* 9. unrolling                                                        *)
(* ------------------------------------------------------------------ *)

let unrolling =
  Pass.make ~name:"unrolling" ~description:"replicate the body per unroll factor"
    (fun _ctx v ->
      let spec = v.Variant.spec in
      let offsets =
        List.map (fun (ind : Spec.induction_spec) -> (reg_spec_key ind.ind_reg, ind.ind_offset))
          spec.Spec.inductions
      in
      let offset_of base = Option.value ~default:0 (List.assoc_opt (reg_spec_key base) offsets) in
      let body = Variant.abstract_body v in
      List.init (spec.Spec.unroll_max - spec.Spec.unroll_min + 1) (fun k ->
          let u = spec.Spec.unroll_min + k in
          let copies =
            List.concat
              (List.init u (fun copy ->
                   List.map
                     (fun (i : Spec.instr_spec) ->
                       let operands =
                         List.map
                           (function
                             | Spec.S_mem { base; offset } ->
                               Spec.S_mem { base; offset = offset + (copy * offset_of base) }
                             | operand -> operand)
                           i.operands
                       in
                       { i with Spec.operands; copy_index = copy })
                     body))
          in
          let var = Variant.decide v "u" (string_of_int u) in
          { var with Variant.body = Variant.Abstract copies; unroll = u }))

(* ------------------------------------------------------------------ *)
(* 11. register-rotation                                               *)
(* ------------------------------------------------------------------ *)

let register_rotation =
  Pass.make ~name:"register-rotation"
    ~description:"resolve XMM rotation ranges per unroll copy" (fun _ctx v ->
      let resolve copy = function
        | Spec.Xmm_rotation { rmin; rmax } ->
          Spec.Phys (Reg.xmm (rmin + (copy mod (rmax - rmin))))
        | reg -> reg
      in
      let body =
        List.map
          (fun (i : Spec.instr_spec) ->
            let operands =
              List.map
                (function
                  | Spec.S_reg r -> Spec.S_reg (resolve i.copy_index r)
                  | Spec.S_mem { base; offset } ->
                    Spec.S_mem { base = resolve i.copy_index base; offset }
                  | operand -> operand)
                i.operands
            in
            { i with Spec.operands })
          (Variant.abstract_body v)
      in
      [ { v with Variant.body = Variant.Abstract body } ])

(* ------------------------------------------------------------------ *)
(* 12. lowering                                                        *)
(* ------------------------------------------------------------------ *)

let lower_reg = function
  | Spec.Phys r -> r
  | Spec.Named n -> Reg.logical n
  | Spec.Xmm_rotation _ -> fail "lowering: unresolved XMM rotation"

let lower_operand = function
  | Spec.S_reg r -> Operand.reg (lower_reg r)
  | Spec.S_mem { base; offset } -> Operand.mem ~base:(lower_reg base) ~disp:offset ()
  | Spec.S_imm n -> Operand.imm n
  | Spec.S_imm_choice _ -> fail "lowering: unresolved immediate choice"

let lowering =
  Pass.make ~name:"lowering" ~description:"lower abstract instructions to the ISA"
    (fun _ctx v ->
      let items =
        List.map
          (fun (i : Spec.instr_spec) ->
            let op =
              match i.Spec.op with
              | Spec.Fixed op -> op
              | Spec.Op_choice _ -> fail "lowering: unresolved opcode choice"
              | Spec.Move_bytes _ -> fail "lowering: unresolved move semantics"
            in
            Insn.Insn (Insn.make op (List.map lower_operand i.Spec.operands)))
          (Variant.abstract_body v)
      in
      [ { v with Variant.body = Variant.Concrete items } ])

(* ------------------------------------------------------------------ *)
(* 13. induction-insertion                                             *)
(* ------------------------------------------------------------------ *)

let induction_total (ind : Spec.induction_spec) unroll =
  let inc = match ind.increments with [ inc ] -> inc | _ -> fail "induction has no chosen stride" in
  if ind.unaffected_by_unroll then inc else inc * unroll

let induction_update (ind : Spec.induction_spec) unroll =
  let total = induction_total ind unroll in
  let reg = lower_reg ind.ind_reg in
  if total = 0 then None
  else if total > 0 then Some (Insn.make Insn.ADD [ Operand.imm total; Operand.reg reg ])
  else Some (Insn.make Insn.SUB [ Operand.imm (-total); Operand.reg reg ])

let induction_insertion =
  Pass.make ~name:"induction-insertion"
    ~description:"append induction-variable updates" (fun _ctx v ->
      let spec = v.Variant.spec in
      let ordinary, last =
        List.partition (fun (i : Spec.induction_spec) -> not i.is_last) spec.Spec.inductions
      in
      let updates inds =
        List.filter_map (fun ind -> Option.map (fun i -> Insn.Insn i) (induction_update ind v.Variant.unroll)) inds
      in
      let body =
        Variant.concrete_body v
        @ (Insn.Comment "induction variables" :: updates ordinary)
        @ updates last
      in
      [ { v with Variant.body = Variant.Concrete body } ])

(* ------------------------------------------------------------------ *)
(* 14. branch-generation                                               *)
(* ------------------------------------------------------------------ *)

let branch_generation =
  Pass.make ~name:"branch-generation" ~description:"place the loop label and jump"
    (fun _ctx v ->
      match v.Variant.spec.Spec.branch with
      | None -> [ v ]
      | Some { label; test } ->
        let body =
          (Insn.Label label :: Variant.concrete_body v)
          @ [ Insn.Insn (Insn.make test [ Operand.label label ]) ]
        in
        [ { v with Variant.body = Variant.Concrete body } ])

(* ------------------------------------------------------------------ *)
(* 15. register-allocation                                             *)
(* ------------------------------------------------------------------ *)

(* Array pointers land in the SysV argument registers first; kernels
   with more arrays than argument registers get the rest from callee-
   saved scratch (the C wrapper loads stack arguments there). *)
let pointer_arg_regs = Reg.[ RSI; RDX; RCX; R8; R9; R10; R11; R12; R13; R14; RBX ]

let scratch_regs = Reg.[ RBX; R10; R11; R12; R13; R14; R15 ]

let allocation_map (spec : Spec.t) =
  let counter_name =
    List.find_map
      (fun (i : Spec.induction_spec) ->
        if i.is_last then match i.ind_reg with Spec.Named n -> Some n | _ -> None
        else None)
      spec.inductions
  in
  (* Named registers appearing as memory bases, in order of first use. *)
  let bases = ref [] in
  List.iter
    (fun (i : Spec.instr_spec) ->
      List.iter
        (function
          | Spec.S_mem { base = Spec.Named n; _ } ->
            if (not (List.mem n !bases)) && Some n <> counter_name then bases := !bases @ [ n ]
          | _ -> ())
        i.operands)
    spec.instructions;
  (* Remaining named registers: plain register operands and induction
     registers that are neither counter nor pointer. *)
  let others = ref [] in
  let note n =
    if Some n <> counter_name && (not (List.mem n !bases)) && not (List.mem n !others)
    then others := !others @ [ n ]
  in
  List.iter
    (fun (i : Spec.instr_spec) ->
      List.iter (function Spec.S_reg (Spec.Named n) -> note n | _ -> ()) i.operands)
    spec.instructions;
  List.iter
    (fun (i : Spec.induction_spec) ->
      match i.ind_reg with Spec.Named n -> note n | _ -> ())
    spec.inductions;
  let map = ref [] in
  (match counter_name with
  | Some n -> map := [ (n, Reg.gpr64 Reg.RDI) ]
  | None -> ());
  List.iteri
    (fun k n ->
      match List.nth_opt pointer_arg_regs k with
      | Some r -> map := (n, Reg.gpr64 r) :: !map
      | None -> fail "register-allocation: more than %d array pointers" (List.length pointer_arg_regs))
    !bases;
  let taken = List.map snd !map in
  let free_scratch =
    List.filter
      (fun r -> not (List.exists (Reg.equal (Reg.gpr64 r)) taken))
      scratch_regs
  in
  List.iteri
    (fun k n ->
      match List.nth_opt free_scratch k with
      | Some r -> map := (n, Reg.gpr64 r) :: !map
      | None -> fail "register-allocation: out of scratch registers")
    !others;
  List.rev !map

let register_allocation =
  Pass.make ~name:"register-allocation"
    ~description:"map logical registers to physical registers" (fun _ctx v ->
      let map = allocation_map v.Variant.spec in
      let substitute r =
        match r with
        | Reg.Logical n -> (
          match List.assoc_opt n map with
          | Some phys -> phys
          | None -> fail "register-allocation: unmapped logical register %s" n)
        | Reg.Gpr _ | Reg.Xmm _ -> r
      in
      let body =
        List.map
          (function
            | Insn.Insn i -> Insn.Insn (Insn.map_registers substitute i)
            | item -> item)
          (Variant.concrete_body v)
      in
      [ { v with Variant.body = Variant.Concrete body } ])

(* ------------------------------------------------------------------ *)
(* 16. finalize-abi                                                    *)
(* ------------------------------------------------------------------ *)

let finalize_abi =
  Pass.make ~name:"finalize-abi"
    ~description:"add prologue/epilogue and compute the launcher ABI" (fun _ctx v ->
      let spec = v.Variant.spec in
      let map = allocation_map spec in
      let phys_of (ind : Spec.induction_spec) =
        match ind.ind_reg with
        | Spec.Phys r -> r
        | Spec.Named n -> (
          match List.assoc_opt n map with
          | Some r -> r
          | None -> fail "finalize-abi: unmapped induction register %s" n)
        | Spec.Xmm_rotation _ -> fail "finalize-abi: XMM induction register"
      in
      let last_ind =
        List.find_opt (fun (i : Spec.induction_spec) -> i.is_last) spec.inductions
      in
      let counter, counter_step =
        match last_ind with
        | Some ind -> (phys_of ind, induction_total ind v.Variant.unroll)
        | None -> (Reg.gpr64 Reg.RDI, 0)
      in
      let pointer_names =
        List.filter_map (fun (n, r) ->
            if List.exists (fun p -> Reg.equal (Reg.gpr64 p) r) pointer_arg_regs then Some (n, r)
            else None)
          map
      in
      let step_of_reg name =
        List.fold_left
          (fun acc (ind : Spec.induction_spec) ->
            match ind.ind_reg with
            | Spec.Named n when n = name -> induction_total ind v.Variant.unroll
            | _ -> acc)
          0 spec.inductions
      in
      let pointers = List.map (fun (n, r) -> (r, step_of_reg n)) pointer_names in
      let pass_counter =
        List.find_map
          (fun (ind : Spec.induction_spec) ->
            if ind.unaffected_by_unroll && not ind.is_last then Some (phys_of ind) else None)
          spec.inductions
      in
      (* Prologue: zero every induction register that the launcher does
         not initialise (it sets the counter and the array pointers). *)
      let launcher_set r =
        Reg.equal r counter || List.exists (fun (p, _) -> Reg.equal p r) pointers
      in
      let prologue =
        List.filter_map
          (fun (ind : Spec.induction_spec) ->
            let r = phys_of ind in
            if launcher_set r then None
            else Some (Insn.Insn (Insn.make Insn.XOR [ Operand.reg r; Operand.reg r ])))
          spec.inductions
      in
      let body = Variant.concrete_body v in
      let loads, stores, bytes =
        List.fold_left
          (fun (l, s, b) i ->
            let l = if Semantics.is_load i then l + 1 else l in
            let s = if Semantics.is_store i then s + 1 else s in
            let b =
              if Semantics.memory_access i <> Semantics.No_access then b + Semantics.data_bytes i
              else b
            in
            (l, s, b))
          (0, 0, 0) (Insn.insns body)
      in
      let c_identifier s =
        String.map
          (fun c ->
            match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
          s
      in
      let abi =
        {
          Abi.function_name = c_identifier (Variant.id v);
          counter;
          counter_step;
          pointers;
          pass_counter;
          unroll = v.Variant.unroll;
          loads_per_pass = loads;
          stores_per_pass = stores;
          bytes_per_pass = bytes;
        }
      in
      let program = prologue @ body @ [ Insn.Insn (Insn.make Insn.RET []) ] in
      [ { v with Variant.body = Variant.Concrete program; abi = Some abi } ])

(* ------------------------------------------------------------------ *)
(* 17. peephole                                                        *)
(* ------------------------------------------------------------------ *)

let peephole =
  Pass.make ~name:"peephole" ~description:"drop dead zero-increment updates"
    (fun _ctx v ->
      let body = Variant.concrete_body v in
      let rec clean = function
        | [] -> []
        | (Insn.Insn { Insn.op = Insn.ADD | Insn.SUB; operands = [ Operand.Imm 0; _ ] } as item)
          :: ((Insn.Insn { Insn.op = Insn.Jcc _; _ } :: _) as rest) ->
          (* Keep a zero update that feeds the loop branch's flags. *)
          item :: clean rest
        | Insn.Insn { Insn.op = Insn.ADD | Insn.SUB; operands = [ Operand.Imm 0; _ ] } :: rest ->
          clean rest
        | item :: rest -> item :: clean rest
      in
      [ { v with Variant.body = Variant.Concrete (clean body) } ])

(* ------------------------------------------------------------------ *)
(* 18. alignment-directives                                            *)
(* ------------------------------------------------------------------ *)

let alignment_directives =
  Pass.make ~name:"alignment-directives" ~description:"emit .text/.globl/.align furniture"
    (fun _ctx v ->
      let fn =
        match v.Variant.abi with
        | Some abi -> abi.Abi.function_name
        | None -> Variant.id v
      in
      let header =
        [
          Insn.Directive ".text";
          Insn.Directive (Printf.sprintf ".globl %s" fn);
          Insn.Directive ".align 16";
          Insn.Label fn;
        ]
      in
      [ { v with Variant.body = Variant.Concrete (header @ Variant.concrete_body v) } ])

(* ------------------------------------------------------------------ *)
(* 19. deduplicate                                                     *)
(* ------------------------------------------------------------------ *)

(* Deduplication needs the whole population, but passes see one variant
   at a time.  The pass keeps a per-run table keyed on the emitted text
   minus its name-bearing furniture; the pipeline runner rebuilds the
   pipeline per run, so state never leaks between generations. *)
let deduplicate () =
  let seen = Hashtbl.create 64 in
  Pass.make ~name:"deduplicate" ~description:"collapse variants with identical bodies"
    (fun _ctx v ->
      let key =
        String.concat "\n"
          (List.filter_map
             (function
               | Insn.Insn i -> Some (Insn.to_string i)
               | Insn.Label _ | Insn.Comment _ | Insn.Directive _ -> None)
             (Variant.concrete_body v))
      in
      if Hashtbl.mem seen key then []
      else begin
        Hashtbl.add seen key ();
        [ v ]
      end)

(* ------------------------------------------------------------------ *)
(* Pipeline                                                            *)
(* ------------------------------------------------------------------ *)

let default_pipeline () =
  [
    validate_spec;
    canonicalize;
    instruction_repetition;
    instruction_selection;
    move_semantics;
    stride_selection;
    immediate_selection;
    operand_swap_pre;
    unrolling;
    operand_swap_post;
    register_rotation;
    lowering;
    induction_insertion;
    branch_generation;
    register_allocation;
    finalize_abi;
    peephole;
    alignment_directives;
    deduplicate ();
  ]

let pass_names = List.map (fun p -> p.Pass.name) (default_pipeline ())

let find_pass name =
  match List.find_opt (fun p -> p.Pass.name = name) (default_pipeline ()) with
  | Some p -> p
  | None -> raise Not_found

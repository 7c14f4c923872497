open Mt_isa

type outcome = {
  cycles : float;
  instructions : int;
  rax : int;
  mem : Memory.counters;
  branches : int;
  mispredicts : int;
  loads : int;
  stores : int;
  prefetches : int;
  fp_ops : int;
  alu_ops : int;
}

type error =
  | Unallocated_register of string
  | Unknown_label of string
  | Alignment_fault of { pc : int; addr : int; required : int }
  | Fuel_exhausted of int
  | Invalid_instruction of string

let error_to_string = function
  | Unallocated_register r -> Printf.sprintf "unallocated logical register %s" r
  | Unknown_label l -> Printf.sprintf "branch to unknown label %s" l
  | Alignment_fault { pc; addr; required } ->
    Printf.sprintf "alignment fault at instruction %d: address %#x requires %d-byte alignment"
      pc addr required
  | Fuel_exhausted n -> Printf.sprintf "fuel exhausted after %d instructions" n
  | Invalid_instruction msg -> Printf.sprintf "invalid instruction: %s" msg

(* Register scoreboard slots: GPRs 0..15, XMM 16..31, flags 32. *)
let slot_count = 33

let flags_slot = 32

let slot_of_reg = function
  | Reg.Gpr (n, _) -> Exec.gpr_index n
  | Reg.Xmm n -> 16 + n
  | Reg.Logical _ -> -1

type control = Fall | Jump of int | Cond of Insn.cond * int | Return

type decoded = {
  insn : Insn.t;
  srcs : int array;
  dst : int;
  ports : Semantics.port array;
  latency : float;
  mem_op : Operand.mem option;
  mem_bytes : int;
  mem_write : bool;
  mem_prefetch : bool;
  mem_nt : bool;
  align_req : int;
  d_sets_flags : bool;
  d_reads_flags : bool;
  control : control;
}

(* ------------------------------------------------------------------ *)
(* Basic-block replay representation                                    *)
(* ------------------------------------------------------------------ *)

(* The steady-state path replays a flattened form of the program:
   operand addressing, port/booker indices, uop occupancies and the
   architectural effect are all resolved once, at block-build time, so
   the per-instruction loop reads plain ints and floats and allocates
   nothing.  Port booker indices: Load 0, Store 1, Alu 2, Fp_add 3,
   Fp_mul/Fp_div 4, Branch 5. *)

type fast_insn = {
  f_insn : Insn.t;  (* original instruction, for the trace hook *)
  f_pc : int;  (* original instruction index, for traces and faults *)
  f_srcs : int array;
  f_dst : int;
  f_pidx : int array;  (* booker index per uop *)
  f_pocc : int array;  (* booked occupancy per uop *)
  f_uport : int;  (* booker index when the insn is exactly one
                     occupancy-1 uop (the common case), else -1 *)
  f_has_effect : bool;  (* false when the architectural effect is a no-op *)
  f_fp_uops : int;
  f_alu_uops : int;
  f_lat : float;
  f_mem : int;  (* 0 = none, 1 = demand, 2 = prefetch hint *)
  f_write : bool;
  f_nt : bool;
  f_bytes : int;
  f_align : int;
  (* Effective address [f_adisp + gpr f_abase + gpr f_aindex * f_ascale];
     -1 slots contribute 0, matching Exec.address_of on absent or XMM
     base/index registers. *)
  f_abase : int;
  f_aindex : int;
  f_ascale : int;
  f_adisp : int;
  f_sets_flags : bool;
  f_reads_flags : bool;
  f_effect : Exec.effect;
}

(* Block terminators.  Block id -1 means "off the end of the listing"
   (the interpreter treats that as a normal stop). *)
type fterm =
  | T_fall of int
  | T_end
  | T_ret
  | T_jump of int
  | T_cond of Insn.cond * int * int * bool
      (* cond, taken block, fall-through block, backward (mispredict
         on fall-through) *)

type fblock = { body : fast_insn array; term : fterm }

type fast_prog = { blocks : fblock array; entry : int }

type compiled = { dec : decoded array; mutable fast : fast_prog option }

exception Compile_error of error

let compile_insn labels pc insn =
  (match Semantics.validate insn with
  | Ok () -> ()
  | Error msg -> raise (Compile_error (Invalid_instruction msg)));
  let target () =
    match insn.Insn.operands with
    | [ Operand.Label l ] -> (
      match Hashtbl.find_opt labels l with
      | Some idx -> idx
      | None -> raise (Compile_error (Unknown_label l)))
    | _ -> raise (Compile_error (Invalid_instruction (Insn.to_string insn)))
  in
  let control =
    match insn.Insn.op with
    | Insn.JMP -> Jump (target ())
    | Insn.Jcc c -> Cond (c, target ())
    | Insn.RET -> Return
    | _ -> Fall
  in
  ignore pc;
  let mem_op, mem_bytes, mem_write =
    match Semantics.memory_access insn with
    | Semantics.No_access -> None, 0, false
    | Semantics.Load_access (m, b) -> Some m, b, false
    | Semantics.Store_access (m, b) -> Some m, b, true
    | Semantics.Load_store_access (m, b) -> Some m, b, true
  in
  {
    insn;
    srcs = Array.of_list (List.filter_map (fun r ->
        let s = slot_of_reg r in
        if s < 0 then raise (Compile_error (Unallocated_register (Reg.name r)));
        Some s)
        (Semantics.sources insn));
    dst =
      (match Semantics.destination insn with
      | None -> -1
      | Some r ->
        let s = slot_of_reg r in
        if s < 0 then raise (Compile_error (Unallocated_register (Reg.name r)));
        s);
    ports = Array.of_list (Semantics.ports insn);
    latency = float_of_int (Semantics.exec_latency insn);
    mem_op;
    mem_bytes;
    mem_write;
    mem_prefetch = Semantics.is_prefetch insn;
    mem_nt = Semantics.is_non_temporal insn;
    align_req = Semantics.required_alignment insn;
    d_sets_flags = Semantics.sets_flags insn;
    d_reads_flags = Semantics.reads_flags insn;
    control;
  }

let compile (program : Insn.program) =
  (* First pass: map labels to the index of the following instruction. *)
  let labels = Hashtbl.create 8 in
  let count = ref 0 in
  List.iter
    (function
      | Insn.Insn _ -> incr count
      | Insn.Label l -> Hashtbl.replace labels l !count
      | Insn.Comment _ | Insn.Directive _ -> ())
    program;
  try
    let decoded = ref [] in
    let pc = ref 0 in
    List.iter
      (function
        | Insn.Insn i ->
          decoded := compile_insn labels !pc i :: !decoded;
          incr pc
        | Insn.Label _ | Insn.Comment _ | Insn.Directive _ -> ())
      program;
    Ok { dec = Array.of_list (List.rev !decoded); fast = None }
  with Compile_error e -> Error e

let port_index = function
  | Semantics.Load -> 0
  | Semantics.Store -> 1
  | Semantics.Alu -> 2
  | Semantics.Fp_add -> 3
  | Semantics.Fp_mul | Semantics.Fp_div -> 4
  | Semantics.Branch_port -> 5

let fast_of_decoded pc (d : decoded) =
  let mem_slot = function
    | None -> -1
    | Some (Reg.Gpr (n, _)) -> Exec.gpr_index n
    | Some (Reg.Xmm _ | Reg.Logical _) -> -1
  in
  let abase, aindex, ascale, adisp =
    match d.mem_op with
    | None -> -1, -1, 0, 0
    | Some m ->
      mem_slot m.Operand.base, mem_slot m.Operand.index, m.Operand.scale,
      m.Operand.disp
  in
  let count p =
    Array.fold_left (fun acc q -> if List.mem q p then acc + 1 else acc) 0
      d.ports
  in
  {
    f_insn = d.insn;
    f_pc = pc;
    f_srcs = d.srcs;
    f_dst = d.dst;
    f_pidx = Array.map port_index d.ports;
    f_pocc =
      Array.map
        (fun p -> if p = Semantics.Fp_div then int_of_float d.latency else 1)
        d.ports;
    f_uport =
      (match d.ports with
      | [| p |] when p <> Semantics.Fp_div -> port_index p
      | _ -> -1);
    f_has_effect = not (Exec.effect_is_none (Exec.compile_effect d.insn));
    f_fp_uops = count [ Semantics.Fp_add; Semantics.Fp_mul; Semantics.Fp_div ];
    f_alu_uops = count [ Semantics.Alu ];
    f_lat = d.latency;
    f_mem = (match d.mem_op with
      | None -> 0
      | Some _ -> if d.mem_prefetch then 2 else 1);
    f_write = d.mem_write;
    f_nt = d.mem_nt;
    f_bytes = d.mem_bytes;
    f_align = d.align_req;
    f_abase = abase;
    f_aindex = aindex;
    f_ascale = ascale;
    f_adisp = adisp;
    f_sets_flags = d.d_sets_flags;
    f_reads_flags = d.d_reads_flags;
    f_effect = Exec.compile_effect d.insn;
  }

let build_fast (dec : decoded array) =
  let n = Array.length dec in
  if n = 0 then { blocks = [||]; entry = -1 }
  else begin
    (* Leaders: instruction 0, every branch target, and every
       instruction following a control-flow instruction, so a branch is
       always the last instruction of its block. *)
    let leader = Array.make (n + 1) false in
    leader.(0) <- true;
    Array.iteri
      (fun i d ->
        let mark t = if t <= n then leader.(t) <- true in
        match d.control with
        | Fall -> ()
        | Return -> mark (i + 1)
        | Jump t ->
          mark t;
          mark (i + 1)
        | Cond (_, t) ->
          mark t;
          mark (i + 1))
      dec;
    let blk_of = Array.make (n + 1) (-1) in
    let nblocks = ref 0 in
    for i = 0 to n - 1 do
      if leader.(i) then begin
        blk_of.(i) <- !nblocks;
        incr nblocks
      end
    done;
    let target_blk t = if t >= n then -1 else blk_of.(t) in
    let blocks =
      Array.init !nblocks (fun _ -> { body = [||]; term = T_end })
    in
    let start = ref 0 in
    for b = 0 to !nblocks - 1 do
      let s = !start in
      let e = ref (s + 1) in
      while !e < n && not leader.(!e) do incr e done;
      let e = !e in
      let body = Array.init (e - s) (fun k -> fast_of_decoded (s + k) dec.(s + k)) in
      let term =
        match dec.(e - 1).control with
        | Fall -> if e = n then T_end else T_fall blk_of.(e)
        | Return -> T_ret
        | Jump t -> T_jump (target_blk t)
        | Cond (c, t) -> T_cond (c, target_blk t, target_blk e, t <= e - 1)
      in
      blocks.(b) <- { body; term };
      start := e
    done;
    { blocks; entry = 0 }
  end

let fast_of cp =
  match cp.fast with
  | Some f -> f
  | None ->
    let f = build_fast cp.dec in
    cp.fast <- Some f;
    f

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

(* A port file: one booker per port class, indexed by [port_index]. *)
let port_counts (cfg : Config.t) =
  [| cfg.load_ports; cfg.store_ports; cfg.alu_ports; cfg.fp_add_ports;
     cfg.fp_mul_ports; cfg.branch_ports |]

let make_ports cfg = Array.map (fun ports -> Booker.create ~ports) (port_counts cfg)

(* Port files not in use by any call.  A call pops one and pushes it
   back when it ends, so the six 8,192-slot rings are built once per
   concurrent call rather than once per call.  An atomic stack, not
   per-domain state: [mt_serve]'s workers are threads of one domain and
   may switch inside a call, and a [?trace] hook may run a whole nested
   call, so two live calls must never share a file.  A caller that
   finds the stack empty builds its own; a call that raises drops its
   file.  Every push conses a fresh cell, so the compare-and-set cannot
   be fooled by a file that left and came back. *)
let free_ports : Booker.t array list Atomic.t = Atomic.make []

let rec acquire_ports cfg =
  match Atomic.get free_ports with
  | [] -> make_ports cfg
  | pf :: rest as top ->
    if Atomic.compare_and_set free_ports top rest then begin
      Array.iter2 (fun b ports -> Booker.start_call b ~ports) pf (port_counts cfg);
      pf
    end
    else acquire_ports cfg

let rec release_ports pf =
  let top = Atomic.get free_ports in
  if not (Atomic.compare_and_set free_ports top (pf :: top)) then release_ports pf

(* The reference interpreter: the original per-instruction loop over
   the decoded array, kept verbatim as the oracle the fast path is
   tested against (golden corpus + QCheck equivalence suites). *)
let run_reference ?(init = []) ?(max_instructions = 50_000_000) ?attr
    (cfg : Config.t) (memory : Memory.t) (cp : compiled) =
  let prog = cp.dec in
  let exec = Exec.create () in
  List.iter (fun (r, v) -> Exec.set exec r v) init;
  let ready = Array.make slot_count 0. in
  (* Issue time of the last write to each register: with register
     renaming a second write need not wait for the first to complete,
     but writes to one architectural register still claim rename slots
     in order — modelled as one-cycle issue serialization. *)
  let wissue = Array.make slot_count 0. in
  let ports = make_ports cfg in
  let rob = Array.make cfg.rob_size 0. in
  let decode_step = 1. /. float_of_int cfg.issue_width in
  let fetch = ref 0. in
  let last_retire = ref 0. in
  let last_completion = ref 0. in
  let issued = ref 0 in
  let branches = ref 0 in
  let mispredicts = ref 0 in
  let loads = ref 0 in
  let stores = ref 0 in
  let prefetches = ref 0 in
  let fp_ops = ref 0 in
  let alu_ops = ref 0 in
  let pc = ref 0 in
  let stop = ref None in
  (* Booker index that set the final issue time of the current
     instruction; read by the attribution hook. *)
  let bport = ref (-1) in
  Memory.drain memory;
  Memory.reset_counters memory;
  (match attr with Some a -> Attribution.begin_run a | None -> ());
  while !stop = None do
    if !pc < 0 || !pc >= Array.length prog then stop := Some (Ok ())
    else if !issued >= max_instructions then
      stop := Some (Error (Fuel_exhausted !issued))
    else begin
      let d = prog.(!pc) in
      (* Window: cannot dispatch until the instruction rob_size back
         has retired. *)
      let window_ready = rob.(!issued mod cfg.rob_size) in
      let t = ref (Float.max !fetch window_ready) in
      Array.iter (fun s -> if ready.(s) > !t then t := ready.(s)) d.srcs;
      if d.d_reads_flags && ready.(flags_slot) > !t then t := ready.(flags_slot);
      (* WAW: renamed, but serialized by one issue slot. *)
      if d.dst >= 0 && wissue.(d.dst) +. 1. > !t then t := wissue.(d.dst) +. 1.;
      (* Ports: each uop books the first free cycle at or after the
         ready time; the instruction issues when its last uop does. *)
      bport := -1;
      let issue = ref !t in
      Array.iter
        (fun p ->
          let booker = ports.(port_index p) in
          let occupancy =
            if p = Semantics.Fp_div then int_of_float d.latency else 1
          in
          let slot = Booker.book_from booker ~time:!t ~occupancy in
          if slot > !issue then begin
            issue := slot;
            bport := port_index p
          end;
          match attr with
          | Some a -> Attribution.note_uop a (port_index p)
          | None -> ())
        d.ports;
      let issue = !issue in
      (* Memory access. *)
      let completion = ref (issue +. d.latency) in
      (match d.mem_op with
      | None -> ()
      | Some m ->
        let addr = Exec.address_of exec m in
        if d.mem_prefetch then
          (* A prefetch hint warms the memory pipeline but never stalls
             the instruction stream and never faults. *)
          ignore (Memory.access memory ~now:issue ~addr ~bytes:d.mem_bytes ~write:false)
        else if d.align_req > 1 && addr mod d.align_req <> 0 then
          stop := Some (Error (Alignment_fault { pc = !pc; addr; required = d.align_req }))
        else begin
          let data_ready =
            Memory.access ~nt:d.mem_nt memory ~now:issue ~addr ~bytes:d.mem_bytes
              ~write:d.mem_write
          in
          (* A line-split access replays: it occupies its port for one
             extra slot, so split-heavy streams lose throughput too. *)
          if Memory.last_access_was_split memory then begin
            ignore
              (Booker.book_from ports.(if d.mem_write then 1 else 0) ~time:issue
                 ~occupancy:1)
          end;
          if data_ready +. d.latency -. 1. > !completion then
            completion := data_ready +. d.latency -. 1.
        end);
      match !stop with
      | Some _ -> ()
      | None ->
        let completion = !completion in
        (match attr with
        | Some a ->
          Attribution.observe a ~pc:!pc ~dst:d.dst ~srcs:d.srcs
            ~reads_flags:d.d_reads_flags ~sets_flags:d.d_sets_flags
            ~window_ready ~fetch:!fetch ~t:!t ~issue ~completion
            ~mem_extended:(completion > issue +. d.latency)
            ~level:memory.Memory.last_level ~bport:!bport ~ready ~wissue
        | None -> ());
        if d.dst >= 0 then begin
          ready.(d.dst) <- completion;
          wissue.(d.dst) <- issue
        end;
        if d.d_sets_flags then ready.(flags_slot) <- issue +. 1.;
        (* In-order retirement pressure. *)
        (match d.mem_op with
        | Some _ ->
          if d.mem_prefetch then incr prefetches
          else if d.mem_write then incr stores
          else incr loads
        | None -> ());
        Array.iter
          (fun p ->
            match p with
            | Semantics.Fp_add | Semantics.Fp_mul | Semantics.Fp_div -> incr fp_ops
            | Semantics.Alu -> incr alu_ops
            | Semantics.Load | Semantics.Store | Semantics.Branch_port -> ())
          d.ports;
        let retire = Float.max completion !last_retire in
        rob.(!issued mod cfg.rob_size) <- retire;
        last_retire := retire;
        if completion > !last_completion then last_completion := completion;
        (* The front end decodes at issue_width per cycle regardless of
           stalled instructions (they wait in the scheduler); run-ahead
           is bounded by the rob window above.  A taken branch redirects
           with no bubble (loop branches live in the BTB); the final
           not-taken exit pays the mispredict penalty below. *)
        fetch := !fetch +. decode_step;
        Exec.step exec d.insn;
        incr issued;
        (match d.control with
        | Fall -> incr pc
        | Return -> stop := Some (Ok ())
        | Jump target ->
          incr branches;
          (* A taken branch ends the fetch group: the rest of the
             decode slots this cycle are lost. *)
          fetch := Float.ceil !fetch;
          pc := target
        | Cond (c, target) ->
          incr branches;
          if Exec.branch_taken exec c then begin
            fetch := Float.ceil !fetch;
            pc := target
          end
          else begin
            (* Backward conditional falling through = loop exit =
               mispredict on the last iteration. *)
            if target <= !pc then begin
              incr mispredicts;
              fetch := Float.max !fetch (issue +. float_of_int cfg.mispredict_penalty_cycles)
            end;
            incr pc
          end)
    end
  done;
  match !stop with
  | Some (Error e) -> Error e
  | Some (Ok ()) | None ->
    (match attr with
    | Some a -> Attribution.finish a ~fetch:!fetch
    | None -> ());
    Ok
      {
        cycles = Float.max !last_completion !fetch;
        instructions = !issued;
        rax = Exec.get exec (Reg.gpr64 Reg.RAX);
        mem = Memory.counters memory;
        branches = !branches;
        mispredicts = !mispredicts;
        loads = !loads;
        stores = !stores;
        prefetches = !prefetches;
        fp_ops = !fp_ops;
        alu_ops = !alu_ops;
      }

(* Scalar pipeline state of the fast path.  All fields are floats, so
   the record is flat and mutation never boxes. *)
type fstate = {
  mutable fetch : float;
  mutable last_retire : float;
  mutable last_completion : float;
  mutable s_t : float;
  mutable s_issue : float;
  mutable s_completion : float;
}

type icounts = {
  mutable issued : int;
  mutable i_branches : int;
  mutable i_mispredicts : int;
  mutable i_loads : int;
  mutable i_stores : int;
  mutable i_prefetches : int;
  mutable i_fp : int;
  mutable i_alu : int;
}

exception Stop_run

(* Integer ceiling of a non-negative cycle time: a truncating convert
   plus a compare, instead of a call into libm.  Identical to
   [int_of_float (Float.ceil x)] for the [0, 2^52] range cycle times
   live in. *)
let[@inline] iceil x =
  let t = int_of_float x in
  if float_of_int t < x then t + 1 else t

(* The allocation-free steady-state interpreter.  Identical cycle
   accounting to [run_reference] — same dependence maxima, same booking
   sequence, same memory-access order — replayed over the prebuilt
   basic blocks with no per-instruction closures, options or boxed
   floats.  Verified equivalent by the golden and QCheck suites. *)
let run ?(init = []) ?(max_instructions = 50_000_000) ?trace ?attr
    (cfg : Config.t) (memory : Memory.t) (cp : compiled) =
  let fp = fast_of cp in
  let exec = Exec.create () in
  List.iter (fun (r, v) -> Exec.set exec r v) init;
  let gprs = exec.Exec.gpr in
  (* Hoisted memory-pipeline handles for the open-coded steady-state
     access below (see the note on {!Memory.t}). *)
  let mem_l1 = memory.Memory.l1 in
  let mem_dtlb = memory.Memory.dtlb in
  let mem_memo_line = memory.Memory.memo_line in
  let mem_memo_stream = memory.Memory.memo_stream in
  let mem_st_addr = memory.Memory.st_addr in
  let mem_clk = memory.Memory.clk in
  let mem_lshift = mem_l1.Cache.line_shift in
  let mem_tlb_on = memory.Memory.tlb_on in
  let mem_prefetcher_on = memory.Memory.prefetcher_on in
  let mem_alias_on = memory.Memory.alias_scale <> 0. in
  let mem_alias_pen =
    memory.Memory.cfg.Config.page_4k_alias_penalty_cycles
    *. memory.Memory.alias_scale
  in
  let memo_n = Array.length mem_memo_line in
  let l1_lat_f = float_of_int cfg.l1_latency_cycles in
  let ready = Array.make slot_count 0. in
  let wissue = Array.make slot_count 0. in
  let bookers = acquire_ports cfg in
  let rob_size = cfg.rob_size in
  let rob = Array.make rob_size 0. in
  let decode_step = 1. /. float_of_int cfg.issue_width in
  let penalty = float_of_int cfg.mispredict_penalty_cycles in
  let s =
    { fetch = 0.; last_retire = 0.; last_completion = 0.; s_t = 0.;
      s_issue = 0.; s_completion = 0. }
  in
  let c =
    { issued = 0; i_branches = 0; i_mispredicts = 0; i_loads = 0;
      i_stores = 0; i_prefetches = 0; i_fp = 0; i_alu = 0 }
  in
  let err = ref None in
  (* Booker index that set the final issue time of the current
     instruction; hoisted so the steady state only stores an immediate
     into it.  Read by the attribution hook. *)
  let bport = ref (-1) in
  Memory.drain memory;
  Memory.reset_counters memory;
  (match attr with Some a -> Attribution.begin_run a | None -> ());
  let blocks = fp.blocks in
  let bid = ref fp.entry in
  (* Wrapping index equal to [c.issued mod rob_size], maintained by
     increment-and-compare so the loop never pays an integer division. *)
  let rob_idx = ref 0 in
  (try
     while true do
       if !bid < 0 then raise_notrace Stop_run;
       let blk = blocks.(!bid) in
       let body = blk.body in
       for k = 0 to Array.length body - 1 do
         if c.issued >= max_instructions then begin
           err := Some (Fuel_exhausted c.issued);
           raise_notrace Stop_run
         end;
         let d = Array.unsafe_get body k in
         (* Scoreboard slots, the rob ring index and GPR numbers are
            all in range by construction (see [fast_of_decoded] and
            the [rob_idx] wrap below), so the steady state reads them
            unchecked. *)
         let window_ready = Array.unsafe_get rob !rob_idx in
         s.s_t <- (if window_ready > s.fetch then window_ready else s.fetch);
         let srcs = d.f_srcs in
         for j = 0 to Array.length srcs - 1 do
           let r = Array.unsafe_get ready (Array.unsafe_get srcs j) in
           if r > s.s_t then s.s_t <- r
         done;
         if d.f_reads_flags then begin
           let r = Array.unsafe_get ready flags_slot in
           if r > s.s_t then s.s_t <- r
         end;
         if d.f_dst >= 0 then begin
           let w = Array.unsafe_get wissue d.f_dst +. 1. in
           if w > s.s_t then s.s_t <- w
         end;
         s.s_issue <- s.s_t;
         bport := -1;
         if d.f_uport >= 0 then begin
           (* Common case: one occupancy-1 uop — book it directly,
              skipping the uop loop and the span extension.  The
              first ring probe is inlined; only a saturated cycle
              falls back to the general walk. *)
           let slot =
             Booker.book1 (Array.unsafe_get bookers d.f_uport) (iceil s.s_t)
           in
           let slotf = float_of_int slot in
           if slotf > s.s_issue then begin
             s.s_issue <- slotf;
             bport := d.f_uport
           end;
           (match attr with
           | Some a -> Attribution.note_uop a d.f_uport
           | None -> ())
         end
         else begin
           let pidx = d.f_pidx in
           if Array.length pidx > 0 then begin
             let start = iceil s.s_t in
             for j = 0 to Array.length pidx - 1 do
               let slot =
                 Booker.book_span bookers.(pidx.(j)) ~start
                   ~occupancy:d.f_pocc.(j)
               in
               let slotf = float_of_int slot in
               if slotf > s.s_issue then begin
                 s.s_issue <- slotf;
                 bport := pidx.(j)
               end;
               match attr with
               | Some a -> Attribution.note_uop a pidx.(j)
               | None -> ()
             done
           end
         end;
         s.s_completion <- s.s_issue +. d.f_lat;
         if d.f_mem > 0 then begin
           let addr =
             d.f_adisp
             + (if d.f_abase >= 0 then Array.unsafe_get gprs d.f_abase else 0)
             + (if d.f_aindex >= 0 then
                  Array.unsafe_get gprs d.f_aindex * d.f_ascale
                else 0)
           in
           if d.f_mem = 2 then
             Memory.access_nt memory ~nt:false ~now:s.s_issue ~addr
               ~bytes:d.f_bytes ~write:false
           else if d.f_align > 1 && addr mod d.f_align <> 0 then begin
             err := Some (Alignment_fault { pc = d.f_pc; addr; required = d.f_align });
             raise_notrace Stop_run
           end
           else begin
             (* Open-coded memo-hit access — the steady state of every
                strided stream, and the only reader of the memo.  The
                checks that find the memo slot are pure, so a miss falls
                back to the full pipeline with no state touched.  A hit
                is finished here, with exactly the mutations
                [Memory.access_nt]'s stream-table pass performs. *)
             let line = addr lsr mem_lshift in
             let slot =
               if
                 (not d.f_nt) && d.f_bytes >= 1
                 && (addr + d.f_bytes - 1) lsr mem_lshift = line
               then begin
                 let sl = ref (-1) in
                 let i = ref 0 in
                 while !sl < 0 && !i < memo_n do
                   if Array.unsafe_get mem_memo_line !i = line then sl := !i;
                   incr i
                 done;
                 !sl
               end
               else -1
             in
             let dc =
               if slot >= 0 then begin
                 memory.Memory.c_accesses <- memory.Memory.c_accesses + 1;
                 memory.Memory.last_split <- false;
                 (* The alias part first, as [Memory.access_nt] does it:
                    the test reads the addresses held before this
                    access records its own. *)
                 let alias_pen =
                   if mem_alias_on && Memory.alias_conflict memory addr then begin
                     memory.Memory.c_alias <- memory.Memory.c_alias + 1;
                     let bw = Array.unsafe_get mem_clk Memory.bandwidth in
                     Array.unsafe_set mem_clk Memory.bandwidth
                       (Float.max bw s.s_issue +. mem_alias_pen);
                     mem_alias_pen
                   end
                   else 0.
                 in
                 Array.unsafe_set mem_st_addr (Array.unsafe_get mem_memo_stream slot) addr;
                 let now =
                   if not mem_tlb_on then s.s_issue
                   else begin
                     let page = addr lsr 12 in
                     let dset =
                       let m = mem_dtlb.Cache.set_mask in
                       if m >= 0 then page land m else page mod mem_dtlb.Cache.sets
                     in
                     if page = Array.unsafe_get mem_dtlb.Cache.last_line dset then begin
                       mem_dtlb.Cache.hit_count <- mem_dtlb.Cache.hit_count + 1;
                       s.s_issue
                     end
                     else if Cache.access mem_dtlb page then s.s_issue
                     else s.s_issue +. Memory.translate_miss memory ~now:s.s_issue ~page
                   end
                 in
                 let lset =
                   let m = mem_l1.Cache.set_mask in
                   if m >= 0 then line land m else line mod mem_l1.Cache.sets
                 in
                 let l1_hit =
                   if line = Array.unsafe_get mem_l1.Cache.last_line lset then begin
                     mem_l1.Cache.hit_count <- mem_l1.Cache.hit_count + 1;
                     true
                   end
                   else Cache.access mem_l1 line
                 in
                 (if l1_hit then begin
                    memory.Memory.last_level <- Memory.L1;
                    memory.Memory.c_l1_hits <- memory.Memory.c_l1_hits + 1;
                    now +. l1_lat_f
                  end
                  else begin
                    Memory.miss_l1 memory ~now ~line ~streamed:mem_prefetcher_on
                      ~write:d.f_write;
                    Array.unsafe_get mem_clk Memory.ready
                  end)
                 +. alias_pen +. d.f_lat -. 1.
               end
               else begin
                 Memory.access_nt memory ~nt:d.f_nt ~now:s.s_issue ~addr
                   ~bytes:d.f_bytes ~write:d.f_write;
                 if Memory.last_access_was_split memory then
                   ignore
                     (Booker.book_span bookers.(if d.f_write then 1 else 0)
                        ~start:(iceil s.s_issue) ~occupancy:1);
                 Array.unsafe_get mem_clk Memory.ready +. d.f_lat -. 1.
               end
             in
             if dc > s.s_completion then s.s_completion <- dc
           end
         end;
         (match attr with
         | Some a ->
           Attribution.observe a ~pc:d.f_pc ~dst:d.f_dst ~srcs:d.f_srcs
             ~reads_flags:d.f_reads_flags ~sets_flags:d.f_sets_flags
             ~window_ready ~fetch:s.fetch ~t:s.s_t ~issue:s.s_issue
             ~completion:s.s_completion
             ~mem_extended:(s.s_completion > s.s_issue +. d.f_lat)
             ~level:memory.Memory.last_level ~bport:!bport ~ready ~wissue
         | None -> ());
         if d.f_dst >= 0 then begin
           Array.unsafe_set ready d.f_dst s.s_completion;
           Array.unsafe_set wissue d.f_dst s.s_issue
         end;
         if d.f_sets_flags then
           Array.unsafe_set ready flags_slot (s.s_issue +. 1.);
         if d.f_mem = 1 then begin
           if d.f_write then c.i_stores <- c.i_stores + 1
           else c.i_loads <- c.i_loads + 1
         end
         else if d.f_mem = 2 then c.i_prefetches <- c.i_prefetches + 1;
         c.i_fp <- c.i_fp + d.f_fp_uops;
         c.i_alu <- c.i_alu + d.f_alu_uops;
         (match trace with
         | Some f -> f d.f_pc d.f_insn ~issue:s.s_issue ~completion:s.s_completion
         | None -> ());
         let retire =
           if s.last_retire > s.s_completion then s.last_retire
           else s.s_completion
         in
         Array.unsafe_set rob !rob_idx retire;
         rob_idx := !rob_idx + 1;
         if !rob_idx = rob_size then rob_idx := 0;
         s.last_retire <- retire;
         if s.s_completion > s.last_completion then
           s.last_completion <- s.s_completion;
         s.fetch <- s.fetch +. decode_step;
         (* Exec.apply_effect, open-coded over the exposed
            representation so the steady state pays no call. *)
         (if d.f_has_effect then
            match d.f_effect with
            | Exec.E_none -> ()
            | Exec.E_mov (dst, s) ->
              Array.unsafe_set gprs dst
                (match s with
                | Exec.S_imm n -> n
                | Exec.S_gpr i -> Array.unsafe_get gprs i)
            | Exec.E_lea (dst, base, index, scale, disp) ->
              Array.unsafe_set gprs dst
                (disp
                + (if base >= 0 then Array.unsafe_get gprs base else 0)
                + (if index >= 0 then Array.unsafe_get gprs index * scale
                   else 0))
            | Exec.E_bin (k, dst, a, b) ->
              let av =
                match a with
                | Exec.S_imm n -> n
                | Exec.S_gpr i -> Array.unsafe_get gprs i
              in
              let bv =
                match b with
                | Exec.S_imm n -> n
                | Exec.S_gpr i -> Array.unsafe_get gprs i
              in
              let v =
                match k with
                | Exec.B_add -> av + bv
                | Exec.B_sub -> av - bv
                | Exec.B_and -> av land bv
                | Exec.B_or -> av lor bv
                | Exec.B_xor -> av lxor bv
                | Exec.B_imul -> av * bv
                | Exec.B_shl -> av lsl bv
                | Exec.B_shr -> av lsr bv
              in
              if dst >= 0 then Array.unsafe_set gprs dst v;
              exec.Exec.flags <- v);
         c.issued <- c.issued + 1
       done;
       (match blk.term with
       | T_fall nxt -> bid := nxt
       | T_end | T_ret -> raise_notrace Stop_run
       | T_jump tgt ->
         c.i_branches <- c.i_branches + 1;
         s.fetch <- Float.ceil s.fetch;
         bid := tgt
       | T_cond (cond, tb, fb, backward) ->
         c.i_branches <- c.i_branches + 1;
         if Exec.branch_taken exec cond then begin
           s.fetch <- Float.ceil s.fetch;
           bid := tb
         end
         else begin
           if backward then begin
             c.i_mispredicts <- c.i_mispredicts + 1;
             let m = s.s_issue +. penalty in
             if m > s.fetch then s.fetch <- m
           end;
           bid := fb
         end)
     done
   with Stop_run -> ());
  release_ports bookers;
  match !err with
  | Some e -> Error e
  | None ->
    (match attr with
    | Some a -> Attribution.finish a ~fetch:s.fetch
    | None -> ());
    Ok
      {
        cycles =
          (if s.fetch > s.last_completion then s.fetch else s.last_completion);
        instructions = c.issued;
        rax = Exec.get exec (Reg.gpr64 Reg.RAX);
        mem = Memory.counters memory;
        branches = c.i_branches;
        mispredicts = c.i_mispredicts;
        loads = c.i_loads;
        stores = c.i_stores;
        prefetches = c.i_prefetches;
        fp_ops = c.i_fp;
        alu_ops = c.i_alu;
      }

let run_program ?init ?max_instructions cfg memory program =
  match compile program with
  | Error e -> Error e
  | Ok compiled -> run ?init ?max_instructions cfg memory compiled

let disassemble cp ~pc =
  if pc >= 0 && pc < Array.length cp.dec then Insn.to_string cp.dec.(pc).insn
  else Printf.sprintf "<pc %d>" pc

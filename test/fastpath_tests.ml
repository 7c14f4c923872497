(* Equivalence and allocation-discipline tests for the block-replay
   fast path: [Core.run] must be observationally identical to the
   reference interpreter [Core.run_reference] — same cycles, same
   counters, bit for bit — and the non-memory steady state must not
   allocate. *)

open Mt_machine
open Mt_isa
open Mt_creator

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let cfg = Config.nehalem_x5650_2s

let rsi = Reg.gpr64 Reg.RSI

let rdi = Reg.gpr64 Reg.RDI

let eax = Reg.gpr32 Reg.RAX

let i op ops = Insn.Insn (Insn.make op ops)

let loop ?(step = 1) body =
  [ Insn.Label "L" ] @ body
  @ [
      i Insn.ADD [ Operand.imm 1; Operand.reg eax ];
      i Insn.SUB [ Operand.imm step; Operand.reg rdi ];
      i (Insn.Jcc Insn.GE) [ Operand.label "L" ];
      i Insn.RET [];
    ]

(* ------------------------------------------------------------------ *)
(* Outcome equality                                                    *)
(* ------------------------------------------------------------------ *)

let show_outcome (o : Core.outcome) =
  Printf.sprintf
    "cycles=%.17g insns=%d rax=%d br=%d misp=%d ld=%d st=%d pf=%d fp=%d \
     alu=%d mem=(acc=%d l1=%d l2=%d l3=%d ram=%d split=%d alias=%d pref=%d \
     tlb=%d walk=%d nt=%d)"
    o.Core.cycles o.Core.instructions o.Core.rax o.Core.branches
    o.Core.mispredicts o.Core.loads o.Core.stores o.Core.prefetches
    o.Core.fp_ops o.Core.alu_ops o.Core.mem.Memory.accesses
    o.Core.mem.Memory.l1_hits o.Core.mem.Memory.l2_hits
    o.Core.mem.Memory.l3_hits o.Core.mem.Memory.ram_accesses
    o.Core.mem.Memory.split_accesses o.Core.mem.Memory.alias_stalls
    o.Core.mem.Memory.prefetched_fills o.Core.mem.Memory.tlb_misses
    o.Core.mem.Memory.page_walks o.Core.mem.Memory.nt_stores

let show_result = function
  | Ok o -> "Ok " ^ show_outcome o
  | Error e -> "Error " ^ Core.error_to_string e

(* Run the same compiled program through both engines on identically
   fresh state and demand bit-identical results: [calls] times on the
   same pair of pipelines, so later calls start warm, as the launcher's
   do. *)
let check_equivalent ?(what = "engines agree") ?init ?max_instructions
    ?(machine = cfg) ?ram_sharers ?(calls = 1) program =
  match Core.compile program with
  | Error e -> Alcotest.failf "%s: compile: %s" what (Core.error_to_string e)
  | Ok compiled ->
    let mem_fast = Memory.create ?ram_sharers machine in
    let mem_ref = Memory.create ?ram_sharers machine in
    for call = 1 to calls do
      let fast = Core.run ?init ?max_instructions machine mem_fast compiled in
      let reference =
        Core.run_reference ?init ?max_instructions machine mem_ref compiled
      in
      if fast <> reference then
        Alcotest.failf "%s, call %d:\n  fast: %s\n  ref:  %s" what call
          (show_result fast) (show_result reference)
    done

(* ------------------------------------------------------------------ *)
(* Directed equivalence cases                                          *)
(* ------------------------------------------------------------------ *)

let test_equiv_alu_loop () =
  let rbx = Reg.gpr64 Reg.RBX in
  let rcx = Reg.gpr64 Reg.RCX in
  check_equivalent ~what:"alu loop" ~init:[ (rdi, 199) ]
    (loop
       [
         i Insn.ADD [ Operand.imm 3; Operand.reg rbx ];
         i Insn.IMUL [ Operand.reg rbx; Operand.reg rcx ];
         i Insn.XOR [ Operand.reg rcx; Operand.reg rbx ];
       ])

let test_equiv_load_store_loop () =
  let xmm0 = Reg.xmm 0 in
  check_equivalent ~what:"load/store stream"
    ~init:[ (rdi, 499); (rsi, 1 lsl 22) ]
    (loop
       [
         i Insn.MOVSS [ Operand.mem ~base:rsi (); Operand.reg xmm0 ];
         i Insn.MOVSS [ Operand.reg xmm0; Operand.mem ~base:rsi ~disp:4096 () ];
         i Insn.ADD [ Operand.imm 4; Operand.reg rsi ];
       ])

let test_equiv_split_accesses () =
  let xmm0 = Reg.xmm 0 in
  (* 8-byte loads at line-60: every access straddles a cache line. *)
  check_equivalent ~what:"line splits" ~init:[ (rdi, 99); (rsi, (1 lsl 22) + 60) ]
    (loop
       [
         i Insn.MOVSD [ Operand.mem ~base:rsi (); Operand.reg xmm0 ];
         i Insn.ADD [ Operand.imm 64; Operand.reg rsi ];
       ])

let test_equiv_prefetch_and_nt () =
  let xmm0 = Reg.xmm 0 in
  check_equivalent ~what:"prefetch + nt store"
    ~init:[ (rdi, 299); (rsi, 1 lsl 23) ]
    (loop
       [
         i Insn.PREFETCHT0 [ Operand.mem ~base:rsi ~disp:256 () ];
         i Insn.MOVSS [ Operand.mem ~base:rsi (); Operand.reg xmm0 ];
         i Insn.MOVNTPS [ Operand.reg xmm0; Operand.mem ~base:rsi ~disp:(1 lsl 22) () ];
         i Insn.ADD [ Operand.imm 16; Operand.reg rsi ];
       ])

let test_equiv_alias_sharers () =
  let xmm0 = Reg.xmm 0 in
  (* With ram_sharers > 1 the alias-interference path (the slow branch
     the memo must not shortcut) is live. *)
  check_equivalent ~what:"alias interference" ~ram_sharers:8
    ~init:[ (rdi, 199); (rsi, 1 lsl 22) ]
    (loop
       [
         i Insn.MOVSS [ Operand.mem ~base:rsi (); Operand.reg xmm0 ];
         i Insn.MOVSS [ Operand.mem ~base:rsi ~disp:(1 lsl 20) (); Operand.reg (Reg.xmm 1) ];
         i Insn.ADD [ Operand.imm 4; Operand.reg rsi ];
       ])

(* parmodes' shape: one 4-byte load stream on a pipeline shared by 4
   cores, so nearly every access is a memo hit on the alias path. *)
let test_equiv_alias_memo_hits () =
  check_equivalent ~what:"alias memo hits" ~ram_sharers:4 ~calls:3
    ~init:[ (rdi, 999); (rsi, 1 lsl 22) ]
    (loop
       [
         i Insn.MOVSS [ Operand.mem ~base:rsi (); Operand.reg (Reg.xmm 0) ];
         i Insn.ADD [ Operand.imm 4; Operand.reg rsi ];
       ])

(* [n] 4-byte loads [apart] bytes apart off one pointer that steps 4
   bytes per trip: each stream revisits a line 16 times, so the
   repeats are memo hits in [Core.run]. *)
let loads_apart ~n ~apart =
  loop
    (List.init n (fun k ->
         i Insn.MOVSS
           [ Operand.mem ~base:rsi ~disp:(k * apart) (); Operand.reg (Reg.xmm (k mod 4)) ])
    @ [ i Insn.ADD [ Operand.imm 4; Operand.reg rsi ] ])

(* Every branch of [Core.run]'s memo-hit block, against a reference
   that never reads the memo.  The streams share one L1 set (4 KiB
   apart) or one dTLB set (64 KiB apart). *)
let test_equiv_memo_hits () =
  let init = [ (rdi, 999); (rsi, 1 lsl 22) ] in
  check_equivalent ~what:"memo hits on non-MRU L1 ways" ~init
    (loads_apart ~n:4 ~apart:4096);
  check_equivalent ~what:"memo hits missing L1" ~init (loads_apart ~n:9 ~apart:4096);
  check_equivalent ~what:"memo hits missing the dTLB" ~init
    (loads_apart ~n:5 ~apart:65536);
  (* Lines revisited out of order, behind and ahead of the stream. *)
  check_equivalent ~what:"line-revisiting loop"
    ~init:[ (rdi, 210); (rsi, 1 lsl 22) ]
    (loop
       [
         i Insn.MOVSS [ Operand.mem ~base:rsi ~disp:192 (); Operand.reg (Reg.xmm 0) ];
         i Insn.MOVSS [ Operand.mem ~base:rsi ~disp:4 (); Operand.reg (Reg.xmm 1) ];
         i Insn.MOVSS [ Operand.mem ~base:rsi ~disp:(-64) (); Operand.reg (Reg.xmm 2) ];
         i Insn.MOVSS [ Operand.mem ~base:rsi ~disp:4096 (); Operand.reg (Reg.xmm 3) ];
         i Insn.ADD [ Operand.imm 128; Operand.reg rsi ];
       ])

let test_equiv_fuel_and_faults () =
  (* Fuel exhaustion must trip at the same instruction. *)
  let forever = [ Insn.Label "L"; i Insn.JMP [ Operand.label "L" ] ] in
  check_equivalent ~what:"fuel" ~max_instructions:777 forever;
  (* Alignment faults must agree on pc/addr. *)
  let misaligned =
    [
      i Insn.MOVAPS [ Operand.mem ~base:rsi (); Operand.reg (Reg.xmm 0) ];
      i Insn.RET [];
    ]
  in
  check_equivalent ~what:"alignment fault" ~init:[ (rsi, 4100) ] misaligned

let test_equiv_empty_and_straightline () =
  check_equivalent ~what:"empty" [];
  check_equivalent ~what:"ret only" [ i Insn.RET [] ];
  check_equivalent ~what:"fall off the end"
    [ i Insn.ADD [ Operand.imm 1; Operand.reg eax ] ];
  check_equivalent ~what:"jump off the end"
    [ i Insn.JMP [ Operand.label "end" ]; Insn.Label "end" ]

(* ------------------------------------------------------------------ *)
(* Golden corpus: every description x every preset                     *)
(* ------------------------------------------------------------------ *)

(* dune runtest runs us in test/; dune exec runs from the root. *)
let corpus_dir =
  if Sys.file_exists "../descriptions" then "../descriptions" else "descriptions"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Sample [n] variants evenly across the space (first and last always
   included): full spaces run to hundreds of variants per kernel, and
   the engine behaviour varies with unroll/opcode/stride, not with the
   variant index. *)
let sample n xs =
  let len = List.length xs in
  if len <= n then xs
  else
    List.filteri
      (fun idx _ -> idx = len - 1 || idx mod (len / n) = 0)
      xs

let golden_init abi passes =
  let bases = List.init 8 (fun idx -> (idx + 1) * (1 lsl 21)) in
  (abi.Abi.counter, Abi.trip_count_for_passes abi passes)
  :: List.mapi
       (fun idx (r, _step) -> (r, List.nth bases (idx mod 8)))
       abi.Abi.pointers

let test_golden_corpus () =
  let kernels = Sys.readdir corpus_dir in
  Array.sort compare kernels;
  let kernels =
    Array.to_list kernels |> List.filter (fun f -> Filename.check_suffix f ".xml")
  in
  check_bool "full corpus present" true (List.length kernels >= 11);
  let checked = ref 0 in
  List.iter
    (fun file ->
      let text = read_file (Filename.concat corpus_dir file) in
      let spec =
        match Description.of_string text with
        | Ok spec -> spec
        | Error msg -> Alcotest.failf "%s: %s" file msg
      in
      let variants = sample 4 (Creator.generate spec) in
      List.iter
        (fun (name, machine) ->
          List.iter
            (fun v ->
              let abi =
                match v.Variant.abi with
                | Some abi -> abi
                | None -> Alcotest.failf "%s: variant without abi" file
              in
              let program = Variant.concrete_body v in
              check_equivalent
                ~what:(Printf.sprintf "%s/%s/%s" file name (Variant.id v))
                ~machine
                ~init:(golden_init abi 24)
                program;
              incr checked)
            variants)
        Config.presets)
    kernels;
  (* 11 kernels x 3 presets x sampled variants. *)
  check_bool "covered the corpus" true (!checked >= 11 * 3 * 3)

(* ------------------------------------------------------------------ *)
(* QCheck: random short programs                                       *)
(* ------------------------------------------------------------------ *)

let prop_random_programs =
  let open QCheck in
  let gpr = Gen.oneofl [ Reg.RBX; Reg.RCX; Reg.RDX; Reg.R8; Reg.R9 ] in
  let body_insn =
    Gen.(
      oneof
        [
          (* ALU reg/imm *)
          ( oneofl [ Insn.ADD; Insn.SUB; Insn.AND; Insn.OR; Insn.XOR; Insn.IMUL ]
          >>= fun op ->
            gpr >>= fun d ->
            oneof
              [
                (0 -- 64 >|= fun n -> Insn.make op [ Operand.imm n; Operand.reg (Reg.gpr64 d) ]);
                ( gpr >|= fun s ->
                  Insn.make op [ Operand.reg (Reg.gpr64 s); Operand.reg (Reg.gpr64 d) ] );
              ] );
          (* MOV / LEA *)
          ( gpr >>= fun d ->
            oneof
              [
                (0 -- 1000 >|= fun n -> Insn.make Insn.MOV [ Operand.imm n; Operand.reg (Reg.gpr64 d) ]);
                ( 0 -- 512 >|= fun disp ->
                  Insn.make Insn.LEA
                    [ Operand.mem ~base:rsi ~disp (); Operand.reg (Reg.gpr64 d) ] );
              ] );
          (* SSE arithmetic *)
          ( oneofl [ Insn.ADDSD; Insn.MULSS; Insn.ADDPS; Insn.MULPD; Insn.DIVSD ]
          >>= fun op ->
            0 -- 3 >>= fun a ->
            0 -- 3 >|= fun b ->
            Insn.make op [ Operand.reg (Reg.xmm a); Operand.reg (Reg.xmm b) ] );
          (* Loads and stores off the array base (unaligned-tolerant). *)
          ( oneofl [ -64; 0; 4; 8; 60; 64; 4096 ] >>= fun disp ->
            0 -- 3 >>= fun x ->
            oneofl
              [
                Insn.make Insn.MOVSD
                  [ Operand.mem ~base:rsi ~disp (); Operand.reg (Reg.xmm x) ];
                Insn.make Insn.MOVUPS
                  [ Operand.mem ~base:rsi ~disp (); Operand.reg (Reg.xmm x) ];
                Insn.make Insn.MOVSS
                  [ Operand.reg (Reg.xmm x); Operand.mem ~base:rsi ~disp () ];
              ]
            >|= fun insn -> insn );
          (* Walk the base pointer. *)
          ( oneofl [ -4; 4; 8; 16; 64; 128; 4160 ] >|= fun step ->
            Insn.make Insn.ADD [ Operand.imm step; Operand.reg rsi ] );
        ])
  in
  let gen =
    Gen.(
      list_size (1 -- 8) body_insn >>= fun body ->
      1 -- 40 >>= fun trips ->
      oneofl [ 1; 4 ] >|= fun sharers -> (body, trips, sharers))
  in
  (* 4 sharers take the alias path.  At 80 cases a core that dropped
     the alias penalty on memo hits still passed. *)
  Test.make ~count:300 ~name:"fastpath: random programs match the reference"
    (make gen) (fun (body, trips, sharers) ->
      check_equivalent ~what:"random program" ~ram_sharers:sharers ~calls:3
        ~init:[ (rdi, trips); (rsi, 1 lsl 22) ]
        (loop (List.map (fun x -> Insn.Insn x) body));
      true)

(* ------------------------------------------------------------------ *)
(* The port booker against its earlier copy                            *)
(* ------------------------------------------------------------------ *)

(* One step of a booking sequence.  The ready time moves by [dt]
   before each booking. *)
type booking =
  | Call of int  (* a new call on the same rings, with this many ports *)
  | One of int  (* a single-uop booking, through the inlined first probe *)
  | Span of int * int  (* a booking of [occupancy] cycles *)

let show_booking = function
  | Call p -> Printf.sprintf "call %d" p
  | One dt -> Printf.sprintf "one %+d" dt
  | Span (dt, occ) -> Printf.sprintf "span %+d x%d" dt occ

(* Ready times mostly step by 0 or 1, so ports saturate and walks grow
   long; sometimes they jump more than the ring's 8,192 cycles either
   way, so slots wrap.  Most jumps land within a few dozen slots of
   where the ready time was, on the slots recent walks filled. *)
let gen_booking =
  QCheck.Gen.(
    let jump = frequency [ (3, 8_193 -- 8_232); (1, 8_193 -- 30_000) ] in
    let dt =
      frequency [ (40, 0 -- 1); (1, jump); (1, jump >|= fun d -> -d) ]
    in
    frequency
      [
        (1, 1 -- 3 >|= fun p -> Call p);
        (30, dt >|= fun dt -> One dt);
        ( 10,
          dt >>= fun dt ->
          frequencyl [ (4, 1); (1, 22) ] >>= fun occ ->
          1 -- occ >|= fun occ -> Span (dt, occ) );
      ])

(* Both engines share [Booker], so the engine suites cannot see a
   change to it; the copy in test/booker_reference.ml can. *)
let prop_booker_matches_reference =
  let open QCheck in
  let gen =
    Gen.(pair (1 -- 3) (list_size (1 -- 400) gen_booking))
  in
  let print = Print.(pair int (list show_booking)) in
  Test.make ~count:500 ~name:"booker: bookings match the reference booker"
    (make ~print gen) (fun (ports, steps) ->
      let module R = Booker_reference in
      let b = Booker.create ~ports in
      let r = R.create ~ports in
      let t = ref 50_000 in
      let move dt = t := max 0 (!t + dt) in
      List.for_all
        (function
          | Call ports ->
            Booker.start_call b ~ports;
            R.start_call r ~ports;
            true
          | One dt ->
            move dt;
            Booker.book1 b !t = R.book r !t
          | Span (dt, occupancy) ->
            move dt;
            Booker.book_span b ~start:!t ~occupancy
            = R.book_span r ~start:!t ~occupancy)
        steps)

(* A walk across every slot of the ring: one port, each of its 8,192
   cycles booked full, then a booking at the first of them walks to the
   8,193rd cycle and takes over the first one's slot.  The first cycle
   is free again, so a walk from it must not skip it. *)
let test_booker_walk_across_the_ring () =
  let module R = Booker_reference in
  let b = Booker.create ~ports:1 in
  let r = R.create ~ports:1 in
  let check what got want =
    if got <> want then Alcotest.failf "%s: booked %d, reference %d" what got want
  in
  for c = 0 to Booker.window - 1 do
    check "filling the ring" (Booker.book1 b c) (R.book r c)
  done;
  check "the walk across it" (Booker.book1 b 0) (R.book r 0);
  check "a walk from the freed cycle" (Booker.book_span b ~start:0 ~occupancy:1)
    (R.book_span r ~start:0 ~occupancy:1)

(* ------------------------------------------------------------------ *)
(* Allocation discipline                                               *)
(* ------------------------------------------------------------------ *)

let test_zero_alloc_off_path () =
  let rbx = Reg.gpr64 Reg.RBX in
  let rcx = Reg.gpr64 Reg.RCX in
  let program =
    loop
      [
        i Insn.ADD [ Operand.imm 3; Operand.reg rbx ];
        i Insn.XOR [ Operand.reg rbx; Operand.reg rcx ];
        i Insn.IMUL [ Operand.imm 5; Operand.reg rcx ];
        i Insn.SUB [ Operand.reg rcx; Operand.reg rbx ];
      ]
  in
  let compiled =
    match Core.compile program with
    | Ok c -> c
    | Error e -> Alcotest.fail (Core.error_to_string e)
  in
  let memory = Memory.create cfg in
  let words_for trips =
    (* Warm everything (block build, caches) with the same trip count
       first, so the measured run sees only steady-state work. *)
    ignore (Core.run ~init:[ (rdi, trips) ] cfg memory compiled);
    let before = Gc.minor_words () in
    ignore (Core.run ~init:[ (rdi, trips) ] cfg memory compiled);
    Gc.minor_words () -. before
  in
  let small = words_for 100 in
  let large = words_for 5_000 in
  (* Both runs pay the same per-run setup; the extra ~34k instructions
     of the large run must cost zero additional minor words. *)
  let per_insn = (large -. small) /. float_of_int (7 * (5_000 - 100)) in
  if per_insn > 0.01 then
    Alcotest.failf
      "fast path allocates %.4f minor words per instruction (small run %.0f, \
       large run %.0f)"
      per_insn small large

let compile_exn program =
  match Core.compile program with
  | Ok c -> c
  | Error e -> Alcotest.fail (Core.error_to_string e)

(* Minor words per loop trip of [program] in steady state: the
   difference between a long and a short warm call. *)
let words_per_trip ?ram_sharers program =
  let compiled = compile_exn program in
  let memory = Memory.create ?ram_sharers cfg in
  let words_for trips =
    let init = [ (rdi, trips); (rsi, 1 lsl 22) ] in
    ignore (Core.run ~init cfg memory compiled);
    let before = Gc.minor_words () in
    ignore (Core.run ~init cfg memory compiled);
    Gc.minor_words () -. before
  in
  let small = words_for 100 in
  let large = words_for 5_000 in
  (large -. small) /. float_of_int (5_000 - 100)

let check_words_per_trip what ~bound ?ram_sharers program =
  let per_trip = words_per_trip ?ram_sharers program in
  if per_trip > bound then
    Alcotest.failf "%s allocates %.2f minor words per iteration (bound %.0f)" what
      per_trip bound

let load_stepping step =
  loop
    [
      i Insn.MOVSS [ Operand.mem ~base:rsi (); Operand.reg (Reg.xmm 0) ];
      i Insn.ADD [ Operand.imm step; Operand.reg rsi ];
    ]

(* Four streams in one L1 set: most accesses are memo hits on a
   non-MRU way, finished inline without boxing a ready time.  What
   remains is the new-line accesses' trip through [Memory]. *)
let test_memo_hits_barely_allocate () =
  check_words_per_trip "the 4-load loop" ~bound:3. (loads_apart ~n:4 ~apart:4096)

(* Every access a new line: the whole trip through [Memory]'s pass
   and fill path, whose clocks are float cells and whose ready time is
   left in one, boxes only the issue time handed to it. *)
let test_new_lines_allocate_little () =
  check_words_per_trip "a load per new line" ~bound:6. (load_stepping 64)

(* 4 sharers: the repeats are memo hits on the alias path, which run
   the alias part inline. *)
let test_alias_memo_hits_barely_allocate () =
  check_words_per_trip "a 4-byte load stream at 4 sharers" ~bound:1. ~ram_sharers:4
    (load_stepping 4)

(* The port-booking rings are arrays far over 256 words, so they would
   go straight to the major heap where the minor-word test above cannot
   see them: a steady-state call must take them from the free list. *)
let test_zero_major_words_per_call () =
  let compiled =
    compile_exn (loop [ i Insn.ADD [ Operand.imm 3; Operand.reg (Reg.gpr64 Reg.RBX) ] ])
  in
  let memory = Memory.create cfg in
  let call () = ignore (Core.run ~init:[ (rdi, 50) ] cfg memory compiled) in
  call ();
  let calls = 100 in
  let before = (Gc.quick_stat ()).Gc.major_words in
  for _ = 1 to calls do call () done;
  let per_call =
    ((Gc.quick_stat ()).Gc.major_words -. before) /. float_of_int calls
  in
  if per_call >= 1000. then
    Alcotest.failf "a steady-state call adds %.0f major-heap words" per_call

(* A port-bound loop: 12 independent adds per iteration share the ALU
   ports, so every booked cycle is saturated and a foreign booking in
   the rings changes the schedule. *)
let port_bound_loop =
  loop
    (List.map
       (fun r -> i Insn.ADD [ Operand.imm 1; Operand.reg (Reg.gpr64 r) ])
       Reg.[ RBX; RCX; RDX; RBP; R8; R9; R10; R11; R12; R13; R14; R15 ])

let test_nested_call_keeps_its_rings () =
  let compiled = compile_exn port_bound_loop in
  let outer ?trace () =
    Core.run ~init:[ (rdi, 1999) ] ?trace cfg (Memory.create cfg) compiled
  in
  let seen = ref 0 in
  (* At the 3,000th instruction, run a whole second call from inside
     the first one. *)
  let trace _pc _insn ~issue:_ ~completion:_ =
    incr seen;
    if !seen = 3000 then
      ignore (Core.run ~init:[ (rdi, 1999) ] cfg (Memory.create cfg) compiled)
  in
  let plain = outer () in
  let nested = outer ~trace () in
  check_bool "the nested call ran" true (!seen > 3000);
  if nested <> plain then
    Alcotest.failf "a nested call changed the outer outcome:\n  nested: %s\n  plain:  %s"
      (show_result nested) (show_result plain)

(* Reused rings across calls that differ in everything the rings see:
   port counts (the two presets), calls stopped early by a fault or by
   the fuel limit, and a call that wraps the 8,192-cycle ring followed
   by a short one. *)
let test_reused_rings_match_fresh_rings () =
  let sandy = Config.sandy_bridge_e31240 in
  let xmm0 = Reg.xmm 0 in
  let loads =
    loop
      [
        i Insn.MOVSS [ Operand.mem ~base:rsi (); Operand.reg xmm0 ];
        i Insn.MOVSS [ Operand.mem ~base:rsi ~disp:64 (); Operand.reg (Reg.xmm 1) ];
        i Insn.ADD [ Operand.imm 4; Operand.reg rsi ];
      ]
  in
  let faulting =
    (* A loop's worth of bookings, then a misaligned aligned load. *)
    List.filter (fun x -> x <> i Insn.RET []) port_bound_loop
    @ [ i Insn.MOVAPS [ Operand.mem ~base:rsi (); Operand.reg xmm0 ]; i Insn.RET [] ]
  in
  let forever =
    [ Insn.Label "L"; i Insn.ADD [ Operand.imm 1; Operand.reg eax ];
      i Insn.JMP [ Operand.label "L" ] ]
  in
  let loads_init = [ (rdi, 299); (rsi, 1 lsl 22) ] in
  check_equivalent ~what:"loads, nehalem" ~init:loads_init loads;
  check_equivalent ~what:"loads, sandy bridge" ~machine:sandy ~init:loads_init loads;
  check_equivalent ~what:"alignment fault, nehalem"
    ~init:[ (rdi, 99); (rsi, 4100) ] faulting;
  check_equivalent ~what:"fuel, sandy bridge" ~machine:sandy ~max_instructions:5_000
    forever;
  let long_init = [ (rdi, 2999) ] in
  (match
     Core.run_reference ~init:long_init cfg (Memory.create cfg)
       (compile_exn port_bound_loop)
   with
  | Ok o -> check_bool "the long call wraps the ring" true (o.Core.cycles > 8192.)
  | Error e -> Alcotest.fail (Core.error_to_string e));
  check_equivalent ~what:"long call, nehalem" ~init:long_init port_bound_loop;
  check_equivalent ~what:"short call after it, sandy bridge" ~machine:sandy
    ~init:[ (rdi, 20) ] port_bound_loop

(* ------------------------------------------------------------------ *)
(* Satellite bug regressions                                           *)
(* ------------------------------------------------------------------ *)

let test_prefetch_not_counted_as_load () =
  let xmm0 = Reg.xmm 0 in
  let program =
    loop
      [
        i Insn.MOVSS [ Operand.mem ~base:rsi (); Operand.reg xmm0 ];
        i Insn.PREFETCHT0 [ Operand.mem ~base:rsi ~disp:256 () ];
        i Insn.ADD [ Operand.imm 4; Operand.reg rsi ];
      ]
  in
  let memory = Memory.create cfg in
  match Core.run_program ~init:[ (rdi, 49); (rsi, 1 lsl 22) ] cfg memory program with
  | Error e -> Alcotest.fail (Core.error_to_string e)
  | Ok r ->
    check_int "demand loads only" 50 r.Core.loads;
    check_int "prefetches counted apart" 50 r.Core.prefetches;
    check_int "no stores" 0 r.Core.stores;
    (* Both the demand load and the hint reach the memory pipeline. *)
    check_int "memory accesses" 100 r.Core.mem.Memory.accesses

let split_access m =
  ignore (Memory.access m ~now:0. ~addr:((1 lsl 22) + 60) ~bytes:8 ~write:false)

let test_reset_clears_split_flag () =
  let m = Memory.create cfg in
  split_access m;
  check_bool "split observed" true (Memory.last_access_was_split m);
  Memory.reset m;
  check_bool "reset clears the split flag" false (Memory.last_access_was_split m)

let test_drain_clears_split_flag () =
  let m = Memory.create cfg in
  split_access m;
  check_bool "split observed" true (Memory.last_access_was_split m);
  Memory.drain m;
  check_bool "drain clears the split flag" false (Memory.last_access_was_split m)

(* ------------------------------------------------------------------ *)
(* Reset and the spare pipeline                                        *)
(* ------------------------------------------------------------------ *)

(* A run of [count] accesses [stride] bytes apart, [gap] cycles apart.
   Strided runs train the prefetcher and move the memo; the four 1 MiB
   regions at random page offsets collide modulo 4 KiB (the alias
   path, with 4 sharers) and walk the TLBs; sizes up to a line at
   random offsets split lines. *)
type burst = {
  base : int;
  stride : int;
  count : int;
  bytes : int;
  write : bool;
  nt : bool;
  gap : int;
}

let gen_burst =
  QCheck.Gen.(
    0 -- 3 >>= fun region ->
    0 -- 8191 >>= fun offset ->
    oneofl [ 0; 4; 8; 64; 72; 4096; 4160 ] >>= fun stride ->
    1 -- 24 >>= fun count ->
    oneofl [ 1; 4; 8; 16; 32; 64 ] >>= fun bytes ->
    bool >>= fun write ->
    frequencyl [ (4, false); (1, true) ] >>= fun nt ->
    0 -- 12 >|= fun gap ->
    { base = ((region + 1) lsl 20) + offset; stride; count; bytes; write; nt; gap })

(* What each access of [bursts] observed (ready time, serving level,
   split flag), from cycle 0, and the final counters. *)
let replay_with ~access ~last ~counters bursts =
  let now = ref 0. in
  let seen = ref [] in
  List.iter
    (fun b ->
      for k = 0 to b.count - 1 do
        let ready =
          access ~nt:b.nt ~now:!now ~addr:(b.base + (k * b.stride)) ~bytes:b.bytes
            ~write:b.write
        in
        seen := (ready, last ()) :: !seen;
        now := !now +. float_of_int b.gap
      done)
    bursts;
  (List.rev !seen, counters ())

let replay m bursts =
  replay_with bursts
    ~access:(fun ~nt -> Memory.access ~nt m)
    ~last:(fun () -> (Memory.level_of_last_access m, Memory.last_access_was_split m))
    ~counters:(fun () -> Memory.counters_to_alist (Memory.counters m))

(* The same through the earlier pipeline in test/memory_reference.ml. *)
let replay_reference m bursts =
  let module R = Memory_reference in
  let level = function
    | R.L1 -> Memory.L1
    | R.L2 -> Memory.L2
    | R.L3 -> Memory.L3
    | R.Ram -> Memory.Ram
  in
  replay_with bursts
    ~access:(fun ~nt -> R.access ~nt m)
    ~last:(fun () -> (level (R.level_of_last_access m), R.last_access_was_split m))
    ~counters:(fun () -> R.counters_to_alist (R.counters m))

let gen_machine =
  QCheck.Gen.(
    oneofl [ 1; 4 ] >>= fun sharers ->
    bool >>= fun prefetcher ->
    bool >|= fun tlb ->
    ( sharers,
      { cfg with Config.features = { cfg.Config.features with Config.prefetcher; tlb } } ))

(* Both engines share [Memory], so the engine suites cannot see a
   change to it; the reference copy can.  Its memo branch serves the
   repeats the current [Memory] sends through the stream-table pass. *)
let prop_memory_matches_reference =
  let open QCheck in
  let gen = Gen.(pair gen_machine (list_size (1 -- 12) gen_burst)) in
  Test.make ~count:300 ~name:"memory: accesses match the reference pipeline"
    (make gen) (fun ((sharers, machine), bursts) ->
      replay (Memory.create ~ram_sharers:sharers machine) bursts
      = replay_reference (Memory_reference.create ~ram_sharers:sharers machine) bursts)

let prop_reset_is_fresh =
  let open QCheck in
  let gen =
    Gen.(
      gen_machine >>= fun machine ->
      list_size (0 -- 6) gen_burst >>= fun history ->
      list_size (1 -- 6) gen_burst >|= fun stream -> (machine, history, stream))
  in
  Test.make ~count:100
    ~name:"memory: reset then a stream = the stream on a fresh pipeline"
    (make gen) (fun ((sharers, machine), history, stream) ->
      let m = Memory.create ~ram_sharers:sharers machine in
      ignore (replay m history);
      Memory.reset m;
      (* The first [create] emptied the spare slot, so this pipeline is
         freshly built. *)
      let fresh = Memory.create ~ram_sharers:sharers machine in
      replay m stream = replay fresh stream)

let test_spare_pipeline () =
  let m = Memory.create cfg in
  split_access m;
  Memory.recycle m;
  let again = Memory.create cfg in
  check_bool "the same machine takes the spare back" true (again == m);
  check_bool "taken back equal to a fresh pipeline" true (again = Memory.create cfg);
  check_bool "a spare is taken once" false (Memory.create cfg == m);
  Memory.recycle m;
  check_bool "another sharer count builds its own" false
    (Memory.create ~ram_sharers:4 cfg == m);
  Memory.recycle m;
  check_bool "another machine builds its own" false
    (Memory.create Config.sandy_bridge_e31240 == m)

let[@inline never] recycle_fresh_pipeline probe =
  let m = Memory.create cfg in
  Weak.set probe 0 (Some m);
  Memory.recycle m

let test_spare_is_weak () =
  let probe = Weak.create 1 in
  recycle_fresh_pipeline probe;
  Gc.full_major ();
  check_bool "an unclaimed spare is collected" false (Weak.check probe 0)

let tests =
  [
    Alcotest.test_case "equiv: alu loop" `Quick test_equiv_alu_loop;
    Alcotest.test_case "equiv: load/store loop" `Quick test_equiv_load_store_loop;
    Alcotest.test_case "equiv: line splits" `Quick test_equiv_split_accesses;
    Alcotest.test_case "equiv: prefetch and nt" `Quick test_equiv_prefetch_and_nt;
    Alcotest.test_case "equiv: alias sharers" `Quick test_equiv_alias_sharers;
    Alcotest.test_case "equiv: memo-hit branches" `Quick test_equiv_memo_hits;
    Alcotest.test_case "equiv: fuel and faults" `Quick test_equiv_fuel_and_faults;
    Alcotest.test_case "equiv: degenerate programs" `Quick
      test_equiv_empty_and_straightline;
    Alcotest.test_case "golden corpus x presets" `Quick test_golden_corpus;
    QCheck_alcotest.to_alcotest prop_random_programs;
    Alcotest.test_case "zero minor words per instruction" `Quick
      test_zero_alloc_off_path;
    Alcotest.test_case "memo hits allocate at most 3 words per iteration" `Quick
      test_memo_hits_barely_allocate;
    Alcotest.test_case "zero major words per call" `Quick
      test_zero_major_words_per_call;
    Alcotest.test_case "nested call keeps its rings" `Quick
      test_nested_call_keeps_its_rings;
    Alcotest.test_case "reused rings match fresh rings" `Quick
      test_reused_rings_match_fresh_rings;
    Alcotest.test_case "prefetches are not demand loads" `Quick
      test_prefetch_not_counted_as_load;
    Alcotest.test_case "reset clears split flag" `Quick
      test_reset_clears_split_flag;
    Alcotest.test_case "drain clears split flag" `Quick
      test_drain_clears_split_flag;
    QCheck_alcotest.to_alcotest prop_reset_is_fresh;
    QCheck_alcotest.to_alcotest prop_memory_matches_reference;
    Alcotest.test_case "spare pipeline only for its own machine" `Quick
      test_spare_pipeline;
    Alcotest.test_case "an unclaimed spare is collected" `Quick
      test_spare_is_weak;
    Alcotest.test_case "equiv: alias memo hits" `Quick test_equiv_alias_memo_hits;
    QCheck_alcotest.to_alcotest prop_booker_matches_reference;
    Alcotest.test_case "booker: a walk across the whole ring" `Quick
      test_booker_walk_across_the_ring;
    Alcotest.test_case "new-line loads allocate few minor words"
      `Quick test_new_lines_allocate_little;
    Alcotest.test_case "alias memo hits barely allocate"
      `Quick test_alias_memo_hits_barely_allocate;
  ]

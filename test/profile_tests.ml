(* Tests for the bottleneck attribution profiler: the two engines must
   produce bit-identical attributions, the 13 category cycle totals
   must sum exactly to the simulated cycles, the Mt_profile surface
   (vector/dominant/render/folded) must behave, turning --profile on
   must not change a single measured number, and the snapshot/diff
   layers must carry and localize the profile. *)

open Mt_machine
open Mt_isa
open Mt_creator
open Mt_launcher

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

(* Cycle totals are non-negative, so the bit patterns order like the
   floats and the ulp distance is a plain bits subtraction. *)
let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let ulps_apart a b =
  Int64.abs (Int64.sub (Int64.bits_of_float a) (Int64.bits_of_float b))

let show_cats a =
  String.concat ", "
    (List.filteri
       (fun c _ -> (Attribution.category_cycles a).(c) <> 0.)
       (List.init Attribution.categories (fun c ->
            Printf.sprintf "%s=%.17g" (Attribution.category_name c)
              (Attribution.category_cycles a).(c))))

(* Run the same program through both engines with attribution enabled:
   outcomes and attributions (categories, counts, port pressure,
   critical path) must be bit-identical, and the compensated category
   sum must equal the simulated cycles within [max_ulps] (0 = exactly). *)
let check_profiled ?(what = "profiled") ?(max_ulps = 0L) ?init ?max_instructions
    ?(machine = cfg) program =
  match Core.compile program with
  | Error e -> Alcotest.failf "%s: compile: %s" what (Core.error_to_string e)
  | Ok compiled ->
    let attr_fast = Attribution.create () in
    let attr_ref = Attribution.create () in
    let fast =
      Core.run ?init ?max_instructions ~attr:attr_fast machine
        (Memory.create machine) compiled
    in
    let reference =
      Core.run_reference ?init ?max_instructions ~attr:attr_ref machine
        (Memory.create machine) compiled
    in
    if fast <> reference then Alcotest.failf "%s: outcomes diverge" what;
    if Attribution.category_cycles attr_fast <> Attribution.category_cycles attr_ref
    then
      Alcotest.failf "%s: category cycles diverge\n  fast: %s\n  ref:  %s" what
        (show_cats attr_fast) (show_cats attr_ref);
    check_bool
      (what ^ ": per-category instruction counts agree")
      true
      (Attribution.category_insns attr_fast = Attribution.category_insns attr_ref);
    check_bool
      (what ^ ": port pressure agrees")
      true
      (Attribution.port_pressure attr_fast = Attribution.port_pressure attr_ref);
    check_bool
      (what ^ ": critical paths agree")
      true
      (Attribution.critical_path attr_fast = Attribution.critical_path attr_ref);
    (match fast with
    | Error _ -> ()
    | Ok o ->
      let total = Attribution.total attr_fast in
      let ulps = ulps_apart total o.Core.cycles in
      if ulps > max_ulps then
        Alcotest.failf
          "%s: categories sum to %.17g, cycles are %.17g (%Ld ulps; %s)" what
          total o.Core.cycles ulps (show_cats attr_fast));
    (fast, attr_fast)

(* ------------------------------------------------------------------ *)
(* Directed attribution cases                                          *)
(* ------------------------------------------------------------------ *)

let dominant_of attr =
  let cycles = Attribution.category_cycles attr in
  let best = ref 0 in
  Array.iteri (fun c v -> if v > cycles.(!best) then best := c) cycles;
  Attribution.category_name !best

let test_dependency_chain_dominates () =
  let rbx = Reg.gpr64 Reg.RBX in
  (* A serial IMUL chain: every link waits on the previous result, so
     nearly every frontier advance is dependency-bound. *)
  let _, attr =
    check_profiled ~what:"imul chain" ~init:[ (rdi, 299) ]
      (loop
         [
           i Insn.IMUL [ Operand.imm 3; Operand.reg rbx ];
           i Insn.IMUL [ Operand.imm 5; Operand.reg rbx ];
           i Insn.IMUL [ Operand.imm 7; Operand.reg rbx ];
         ])
  in
  Alcotest.(check string) "chain is dependency-bound" "dependency"
    (dominant_of attr)

let test_memory_strides_dominate () =
  let xmm0 = Reg.xmm 0 in
  (* Line-sized strides through a multi-MiB footprint: the memory
     pipeline, not the core, sets the pace. *)
  let _, attr =
    check_profiled ~what:"stride stream" ~init:[ (rdi, 999); (rsi, 1 lsl 23) ]
      (loop
         [
           i Insn.MOVSD [ Operand.mem ~base:rsi (); Operand.reg xmm0 ];
           i Insn.ADD [ Operand.imm 64; Operand.reg rsi ];
         ])
  in
  let name = dominant_of attr in
  check_bool
    (Printf.sprintf "stride stream is memory-bound (got %s)" name)
    true
    (String.length name > 4 && String.sub name 0 4 = "mem-")

let test_attribution_accumulates_across_calls () =
  let rbx = Reg.gpr64 Reg.RBX in
  let program = loop [ i Insn.IMUL [ Operand.imm 3; Operand.reg rbx ] ] in
  let compiled =
    match Core.compile program with
    | Ok c -> c
    | Error e -> Alcotest.fail (Core.error_to_string e)
  in
  let attr = Attribution.create () in
  let memory = Memory.create cfg in
  let cycles_of = function
    | Ok o -> o.Core.cycles
    | Error e -> Alcotest.fail (Core.error_to_string e)
  in
  let c1 = cycles_of (Core.run ~init:[ (rdi, 99) ] ~attr cfg memory compiled) in
  let c2 = cycles_of (Core.run ~init:[ (rdi, 199) ] ~attr cfg memory compiled) in
  Alcotest.(check (float 0.))
    "two profiled calls sum both runs' cycles" (c1 +. c2)
    (Attribution.total attr);
  Attribution.reset attr;
  Alcotest.(check (float 0.)) "reset zeroes the accumulators" 0.
    (Attribution.total attr)

let test_critical_path_shape () =
  let rbx = Reg.gpr64 Reg.RBX in
  let _, attr =
    check_profiled ~what:"chain shape" ~init:[ (rdi, 49) ]
      (loop
         [
           i Insn.IMUL [ Operand.imm 3; Operand.reg rbx ];
           i Insn.IMUL [ Operand.imm 5; Operand.reg rbx ];
         ])
  in
  let chain = Attribution.critical_path attr in
  check_bool "chain is non-empty" true (chain <> []);
  let rec monotone = function
    | (_, c1, _) :: ((_, c2, _) :: _ as rest) ->
      c1 <= c2 && monotone rest
    | _ -> true
  in
  check_bool "completions are non-decreasing along the chain" true
    (monotone chain);
  List.iter
    (fun (pc, _, edge) ->
      check_bool "pcs are in range" true (pc >= 0);
      check_bool "edges are non-negative" true (edge >= 0.))
    chain

(* ------------------------------------------------------------------ *)
(* Golden corpus: attribution across every description x preset        *)
(* ------------------------------------------------------------------ *)

let corpus_dir =
  if Sys.file_exists "../descriptions" then "../descriptions" else "descriptions"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let sample n xs =
  let len = List.length xs in
  if len <= n then xs
  else
    List.filteri (fun idx _ -> idx = len - 1 || idx mod (len / n) = 0) xs

let golden_init abi passes =
  let bases = List.init 8 (fun idx -> (idx + 1) * (1 lsl 21)) in
  (abi.Abi.counter, Abi.trip_count_for_passes abi passes)
  :: List.mapi
       (fun idx (r, _step) -> (r, List.nth bases (idx mod 8)))
       abi.Abi.pointers

let test_golden_corpus_profiled () =
  let kernels = Sys.readdir corpus_dir in
  Array.sort compare kernels;
  let kernels =
    Array.to_list kernels |> List.filter (fun f -> Filename.check_suffix f ".xml")
  in
  let checked = ref 0 in
  List.iter
    (fun file ->
      let text = read_file (Filename.concat corpus_dir file) in
      let spec =
        match Description.of_string text with
        | Ok spec -> spec
        | Error msg -> Alcotest.failf "%s: %s" file msg
      in
      let variants = sample 2 (Creator.generate spec) in
      List.iter
        (fun (name, machine) ->
          List.iter
            (fun v ->
              let abi =
                match v.Variant.abi with
                | Some abi -> abi
                | None -> Alcotest.failf "%s: variant without abi" file
              in
              ignore
                (check_profiled
                   ~what:(Printf.sprintf "%s/%s/%s" file name (Variant.id v))
                   ~machine
                   ~init:(golden_init abi 16)
                   (Variant.concrete_body v));
              incr checked)
            variants)
        Config.presets)
    kernels;
  check_bool "covered the corpus" true (!checked >= 11 * 3 * 2)

(* ------------------------------------------------------------------ *)
(* QCheck: random programs attribute identically and conserve cycles   *)
(* ------------------------------------------------------------------ *)

let prop_random_programs_profiled =
  let open QCheck in
  let gpr = Gen.oneofl [ Reg.RBX; Reg.RCX; Reg.RDX; Reg.R8; Reg.R9 ] in
  let body_insn =
    Gen.(
      oneof
        [
          ( oneofl [ Insn.ADD; Insn.SUB; Insn.AND; Insn.OR; Insn.XOR; Insn.IMUL ]
          >>= fun op ->
            gpr >>= fun d ->
            oneof
              [
                (0 -- 64 >|= fun n -> Insn.make op [ Operand.imm n; Operand.reg (Reg.gpr64 d) ]);
                ( gpr >|= fun s ->
                  Insn.make op [ Operand.reg (Reg.gpr64 s); Operand.reg (Reg.gpr64 d) ] );
              ] );
          ( oneofl [ Insn.ADDSD; Insn.MULSS; Insn.ADDPS; Insn.MULPD; Insn.DIVSD ]
          >>= fun op ->
            0 -- 3 >>= fun a ->
            0 -- 3 >|= fun b ->
            Insn.make op [ Operand.reg (Reg.xmm a); Operand.reg (Reg.xmm b) ] );
          ( oneofl [ 0; 4; 8; 60; 64; 4096 ] >>= fun disp ->
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
          ( oneofl [ 4; 8; 16; 64; 4160 ] >|= fun step ->
            Insn.make Insn.ADD [ Operand.imm step; Operand.reg rsi ] );
        ])
  in
  let gen =
    Gen.(
      list_size (1 -- 8) body_insn >>= fun body ->
      1 -- 40 >|= fun trips -> (body, trips))
  in
  Test.make ~count:60
    ~name:"profile: random programs attribute identically, cycles conserve"
    (make gen)
    (fun (body, trips) ->
      ignore
        (check_profiled ~what:"random program" ~max_ulps:1L
           ~init:[ (rdi, trips); (rsi, 1 lsl 22) ]
           (loop (List.map (fun x -> Insn.Insn x) body)));
      true)

(* ------------------------------------------------------------------ *)
(* Mt_profile surface                                                  *)
(* ------------------------------------------------------------------ *)

let breakdown_of_program ?init program =
  match Core.compile program with
  | Error e -> Alcotest.fail (Core.error_to_string e)
  | Ok compiled ->
    let attr = Attribution.create () in
    (match Core.run ?init ~attr cfg (Memory.create cfg) compiled with
    | Error e -> Alcotest.fail (Core.error_to_string e)
    | Ok o ->
      ( o,
        Mt_profile.of_attribution
          ~name:(fun pc -> Core.disassemble compiled ~pc)
          attr ))

let chain_program =
  loop
    [
      i Insn.IMUL [ Operand.imm 3; Operand.reg (Reg.gpr64 Reg.RBX) ];
      i Insn.IMUL [ Operand.imm 5; Operand.reg (Reg.gpr64 Reg.RBX) ];
    ]

let test_breakdown_shape () =
  let o, b = breakdown_of_program ~init:[ (rdi, 99) ] chain_program in
  check_int "all categories present" Attribution.categories
    (List.length b.Mt_profile.cats);
  Alcotest.(check (float 0.))
    "breakdown total equals simulated cycles" o.Core.cycles
    b.Mt_profile.total_cycles;
  let shares = Mt_profile.vector b in
  check_int "vector aligns positionally" Attribution.categories
    (List.length shares);
  let sum = List.fold_left (fun acc (_, s) -> acc +. s) 0. shares in
  check_bool "shares sum to 1" true (Float.abs (sum -. 1.) < 1e-9);
  (match Mt_profile.dominant b with
  | Some (name, share) ->
    Alcotest.(check string) "dominant category" "dependency" name;
    check_bool "dominant share is the largest" true (share > 0.3)
  | None -> Alcotest.fail "profiled run must have a dominant category");
  let rendered = Mt_profile.render ~label:"chain" b in
  check_bool "render names the label" true (contains rendered "chain");
  check_bool "render shows the critical path" true
    (contains rendered "critical path")

let test_folded_format () =
  let _, b = breakdown_of_program ~init:[ (rdi, 99) ] chain_program in
  let folded = Mt_profile.folded ~root:"loadstore u1" b in
  let lines = String.split_on_char '\n' folded in
  let lines = List.filter (fun l -> l <> "") lines in
  check_bool "folded output is non-empty" true (lines <> []);
  List.iter
    (fun line ->
      (* stack frame1;frame2;... <integer weight> *)
      match String.rindex_opt line ' ' with
      | None -> Alcotest.failf "folded line without weight: %S" line
      | Some idx ->
        let stack = String.sub line 0 idx in
        let weight = String.sub line (idx + 1) (String.length line - idx - 1) in
        check_bool
          (Printf.sprintf "integer weight in %S" line)
          true
          (int_of_string_opt weight <> None);
        (* Frames must be sanitized: the only spaces live in the
           weight separator, so a collapsed-stack consumer never
           mis-splits. *)
        check_bool
          (Printf.sprintf "no raw spaces in frames of %S" line)
          true
          (not (String.contains stack ' ')))
    lines

(* ------------------------------------------------------------------ *)
(* Launcher plumbing: --profile must not move a single number          *)
(* ------------------------------------------------------------------ *)

let kernel_variants =
  Creator.generate
    (Mt_kernels.Streams.loadstore_spec ~opcode:Mt_isa.Insn.MOVSS ~stride:4
       ~unroll:(1, 2) ~swap_after:false ())

let variant_u u = List.find (fun v -> v.Variant.unroll = u) kernel_variants

let quick_opts =
  {
    (Options.default cfg) with
    Options.array_bytes = 16 * 1024;
    repetitions = 2;
    experiments = 3;
  }

let test_profile_changes_no_numbers () =
  let launch opts =
    match Launcher.launch opts (Source.From_variant (variant_u 1)) with
    | Ok r -> r
    | Error msg -> Alcotest.fail msg
  in
  let off = launch quick_opts in
  let on = launch { quick_opts with Options.profile = true } in
  check_bool "unprofiled run carries no breakdown" true
    (off.Report.profile = None);
  Alcotest.(check (float 0.))
    "reported value identical with profiling on" off.Report.value
    on.Report.value;
  check_bool "per-experiment series identical" true
    (off.Report.experiments = on.Report.experiments);
  match on.Report.profile with
  | None -> Alcotest.fail "profiled run must carry a breakdown"
  | Some b ->
    check_bool "breakdown attributes cycles" true
      (b.Mt_profile.total_cycles > 0.);
    check_int "all categories present" Attribution.categories
      (List.length b.Mt_profile.cats)

(* The whole-study form of the check above: [mt_study
   descriptions/stencil.xml --array-kb 32] with and without [--profile]
   writes the same CSV, byte for byte.  Profiled calls take the
   attribution path through [Core.run], which books on the same reused
   port-booking rings. *)
let test_profile_changes_no_study_csv () =
  let opts =
    {
      (Options.default cfg) with
      Options.array_bytes = 32 * 1024;
      per = Options.Per_element;
      repetitions = 2;
      experiments = 5;
    }
  in
  let study =
    match
      Microtools.Study.of_description
        (read_file (Filename.concat corpus_dir "stencil.xml"))
        opts
    with
    | Ok study -> study
    | Error msg -> Alcotest.fail msg
  in
  let run profile =
    Microtools.Study.run
      ~config:{ Microtools.Study.Run_config.default with profile }
      study
  in
  let csv outcomes = Mt_stats.Csv.to_string (Microtools.Study.csv outcomes) in
  let plain = run false in
  check_int "every variant measured"
    (List.length (Microtools.Study.variants study))
    (List.length (Microtools.Study.successes plain));
  Alcotest.(check string) "study CSV" (csv plain) (csv (run true))

(* ------------------------------------------------------------------ *)
(* Snapshot schema 4 and diff localization                             *)
(* ------------------------------------------------------------------ *)

let stat ?(profile = []) key value =
  Mt_obsv.Snapshot.of_values ~key ~profile [| value |]

let snap variants =
  Mt_obsv.Snapshot.make ~created_at:0. ~kernel:("k", "kh") ~machine:("m", "mh")
    variants

let test_snapshot_profile_roundtrip () =
  let s =
    snap
      [
        stat ~profile:[ ("mem-L2", 0.625); ("frontend", 0.375) ] "a" 10.;
        stat "b" 20.;
      ]
  in
  match Mt_obsv.Snapshot.of_string (Mt_obsv.Snapshot.to_string s) with
  | Error msg -> Alcotest.fail msg
  | Ok loaded ->
    check_int "schema 4" 4 loaded.Mt_obsv.Snapshot.schema;
    (match loaded.Mt_obsv.Snapshot.variants with
    | [ a; b ] ->
      check_bool "profile survives the round trip" true
        (a.Mt_obsv.Snapshot.profile
        = [ ("mem-L2", 0.625); ("frontend", 0.375) ]);
      check_bool "unprofiled variant stays empty" true
        (b.Mt_obsv.Snapshot.profile = [])
    | _ -> Alcotest.fail "expected two variants")

let test_older_schema_loads_with_empty_profile () =
  (* A hand-written schema-3 document: no profile key anywhere. *)
  let doc =
    {|{"schema": 3, "tool": "mt_study", "variants":
       [{"key": "v", "median": 5.0}]}|}
  in
  match Mt_obsv.Snapshot.of_string doc with
  | Error msg -> Alcotest.fail msg
  | Ok s -> (
    match s.Mt_obsv.Snapshot.variants with
    | [ v ] ->
      check_bool "schema-3 variants load with an empty profile" true
        (v.Mt_obsv.Snapshot.profile = [])
    | _ -> Alcotest.fail "expected one variant")

let test_diff_localizes_regression () =
  let baseline =
    snap [ stat ~profile:[ ("port-alu", 0.45); ("mem-L2", 0.55) ] "v" 100. ]
  in
  let current =
    snap [ stat ~profile:[ ("port-alu", 0.375); ("mem-L2", 0.625) ] "v" 120. ]
  in
  let d = Mt_obsv.Diff.compare ~baseline current in
  (match d.Mt_obsv.Diff.entries with
  | [ e ] -> (
    check_bool "regression detected" true
      (e.Mt_obsv.Diff.verdict = Mt_obsv.Diff.Regression);
    match e.Mt_obsv.Diff.bottleneck with
    | None -> Alcotest.fail "regression with profiles must localize"
    | Some bn ->
      Alcotest.(check string)
        "blames the category whose cycles grew most" "mem-L2"
        bn.Mt_obsv.Diff.bn_category;
      (* mem-L2 went 55 -> 75 attributed cycles of a 20-cycle move. *)
      check_bool "fraction explains the move" true
        (Float.abs (bn.Mt_obsv.Diff.bn_fraction -. 1.0) < 1e-9))
  | _ -> Alcotest.fail "expected one entry");
  let rendered = Mt_obsv.Diff.render d in
  check_bool "render names the bottleneck" true
    (contains rendered "attributable to mem-L2 growth")

let test_diff_without_profiles_has_no_bottleneck () =
  let baseline = snap [ stat "v" 100. ] in
  let current = snap [ stat "v" 120. ] in
  let d = Mt_obsv.Diff.compare ~baseline current in
  match d.Mt_obsv.Diff.entries with
  | [ e ] ->
    check_bool "regression still detected" true
      (e.Mt_obsv.Diff.verdict = Mt_obsv.Diff.Regression);
    check_bool "no profiles, no localization" true
      (e.Mt_obsv.Diff.bottleneck = None)
  | _ -> Alcotest.fail "expected one entry"

let tests =
  [
    Alcotest.test_case "dependency chain dominates" `Quick
      test_dependency_chain_dominates;
    Alcotest.test_case "memory strides dominate" `Quick
      test_memory_strides_dominate;
    Alcotest.test_case "attribution accumulates across calls" `Quick
      test_attribution_accumulates_across_calls;
    Alcotest.test_case "critical path shape" `Quick test_critical_path_shape;
    Alcotest.test_case "golden corpus profiled" `Quick
      test_golden_corpus_profiled;
    QCheck_alcotest.to_alcotest prop_random_programs_profiled;
    Alcotest.test_case "breakdown shape" `Quick test_breakdown_shape;
    Alcotest.test_case "folded stack format" `Quick test_folded_format;
    Alcotest.test_case "--profile changes no numbers" `Quick
      test_profile_changes_no_numbers;
    Alcotest.test_case "--profile changes no study CSV byte" `Quick
      test_profile_changes_no_study_csv;
    Alcotest.test_case "snapshot profile round trip" `Quick
      test_snapshot_profile_roundtrip;
    Alcotest.test_case "older schema loads empty profile" `Quick
      test_older_schema_loads_with_empty_profile;
    Alcotest.test_case "diff localizes a regression" `Quick
      test_diff_localizes_regression;
    Alcotest.test_case "diff without profiles" `Quick
      test_diff_without_profiles_has_no_bottleneck;
  ]

open Mt_machine
open Mt_creator
open Mt_launcher
open Mt_kernels

let x5650 = Config.nehalem_x5650_2s

let x7550 = Config.nehalem_x7550_4s

let sandy = Config.sandy_bridge_e31240

let cell = Exp_table.cell_f

let fail fmt = Printf.ksprintf failwith fmt

let ok_or_fail where = function
  | Ok v -> v
  | Error msg -> fail "%s: %s" where msg

(* ------------------------------------------------------------------ *)
(* Run configuration                                                   *)
(* ------------------------------------------------------------------ *)

(* The run config every figure launch uses, set once by the binaries
   from the shared flags.  Launches shape their options through
   [Run_config.apply_options], as a study's do, and go through the
   config's cache: a full regeneration measures the same (variant,
   options, machine) triples over and over across figures and runs. *)
let run_config = ref Study.Run_config.default

let set_run_config config = run_config := config

(* Profiles collected from every launch, for the binary to render after
   the tables.  Figures measure from parallel domains, so collection is
   a lock-free push. *)
let collected_profiles : (string * Mt_profile.breakdown) list Atomic.t =
  Atomic.make []

let rec push_profile entry =
  let old = Atomic.get collected_profiles in
  if not (Atomic.compare_and_set collected_profiles old (entry :: old)) then
    push_profile entry

(* Sorted, not collection-ordered: domain interleaving must not make
   two identical runs print their profiles differently. *)
let profiles () =
  List.sort_uniq Stdlib.compare (Atomic.get collected_profiles)

let launch_variant opts variant =
  let config = !run_config in
  let opts = Study.Run_config.apply_options config opts in
  let result = Study.cached_launch ?cache:config.Study.Run_config.cache opts variant in
  (match result with
  | Ok r ->
    Option.iter
      (fun b ->
        (* One launch per (variant, array size): the same variant is
           measured at every hierarchy level, so the id alone would
           collide. *)
        push_profile
          ( Printf.sprintf "%s@%dKB" (Variant.id variant)
              (opts.Options.array_bytes / 1024),
            b ))
      r.Report.profile
  | Error _ -> ());
  result

(* ------------------------------------------------------------------ *)
(* Shared measurement helpers                                          *)
(* ------------------------------------------------------------------ *)

type level_spec = { level : string; bytes : int; cold : bool }

(* The paper's sizing rule (Section 5.1): a level's array is twice the
   size of the level below it; "L1" is half the L1 cache.  "RAM" data
   is measured on a cold traversal, which streams from memory no matter
   the array size — that keeps simulation costs bounded. *)
let hierarchy_levels ~quick (cfg : Config.t) =
  [
    { level = "L1"; bytes = cfg.Config.l1.Config.size_bytes / 2; cold = false };
    { level = "L2"; bytes = 2 * cfg.Config.l1.Config.size_bytes; cold = false };
    { level = "L3"; bytes = 2 * cfg.Config.l2.Config.size_bytes; cold = false };
    { level = "RAM"; bytes = (if quick then 1 else 4) * 1024 * 1024; cold = true };
  ]

let opts_for_level ~quick base (lvl : level_spec) =
  let base = { base with Options.array_bytes = lvl.bytes } in
  if lvl.cold then
    { base with Options.warmup = false; repetitions = 1; experiments = 1 }
  else if quick then { base with Options.repetitions = 1; experiments = 2 }
  else { base with Options.repetitions = 2; experiments = 3 }

let measure_value opts variant =
  (launch_variant opts variant |> ok_or_fail (Variant.id variant)).Report.value

(* Variants of the (Load|Store)+ description whose after-unroll swap
   pattern is uniform: all loads or all stores. *)
let pure_variants spec =
  let variants = Creator.generate spec in
  let uniform ch v =
    match List.assoc_opt "swB" v.Variant.decisions with
    | None -> ch = 'L' (* no swap decision: the kernel kept its load form *)
    | Some pattern -> String.for_all (fun c -> c = ch) pattern
  in
  let loads = List.filter (uniform 'L') variants in
  let stores = List.filter (uniform 'S') variants in
  (loads, stores)

let variant_with_unroll variants u =
  match List.find_opt (fun v -> v.Variant.unroll = u) variants with
  | Some v -> v
  | None -> fail "no variant with unroll %d" u

(* ------------------------------------------------------------------ *)
(* Figure 3: matmul size sweep                                         *)
(* ------------------------------------------------------------------ *)

let matmul_cycles ?alignments ?(warm_cols = 0) ~machine ~n ~unroll ~source ~rows ~cols () =
  let driver =
    match source with
    | `Original -> Matmul.make_driver ?alignments ~machine ~n (`Original unroll)
    | `Micro ->
      let variants = Creator.generate (Matmul.micro_spec ~n ~unroll:(unroll, unroll)) in
      (match variants with
      | [ v ] -> Matmul.make_driver ?alignments ~machine ~n (`Micro v)
      | vs -> fail "matmul micro: expected 1 variant, got %d" (List.length vs))
  in
  let driver = ok_or_fail "matmul driver" driver in
  (ok_or_fail "matmul sample" (Matmul.sample_run ~rows ~cols ~warm_cols driver))
    .Matmul.cycles_per_iteration

let fig03 ?(quick = false) () =
  let sizes =
    if quick then [ 50; 200; 500; 700 ]
    else [ 50; 100; 150; 200; 250; 300; 400; 500; 600; 700; 800 ]
  in
  let rows_n = if quick then 1 else 2 in
  let cols_n = if quick then 8 else 16 in
  let points =
    List.map
      (fun n ->
        ( n,
          matmul_cycles ~warm_cols:cols_n ~machine:x5650 ~n ~unroll:1
            ~source:`Original ~rows:rows_n ~cols:cols_n () ))
      sizes
  in
  let small =
    List.filter_map (fun (n, c) -> if n <= 200 then Some c else None) points
  in
  let large =
    List.filter_map (fun (n, c) -> if n >= 600 then Some c else None) points
  in
  let ratio =
    match small, large with
    | s :: _, l :: _ -> l /. s
    | _ -> 0.
  in
  Exp_table.make ~id:"fig03"
    ~title:"Matmul cycles/iteration vs matrix size (X5650)"
    ~columns:[ "size"; "cycles/iter" ]
    ~expectation:
      "cycles/iteration climbs as the working set leaves each cache level; \
       a clear cut-off around size 500"
    ~observations:
      [
        Printf.sprintf "size>=600 runs %.2fx slower per iteration than size<=200" ratio;
      ]
    (List.map (fun (n, c) -> [ string_of_int n; cell c ]) points)

(* ------------------------------------------------------------------ *)
(* Figure 4: matmul alignment sweep at 200x200                         *)
(* ------------------------------------------------------------------ *)

let fig04 ?(quick = false) () =
  let n = if quick then 100 else 200 in
  let candidates = if quick then [ 0; 1024 ] else [ 0; 16; 512; 1024; 2048 ] in
  let configs =
    List.concat_map
      (fun a ->
        List.concat_map
          (fun b -> List.map (fun c -> (a, b, c)) candidates)
          candidates)
      candidates
  in
  let configs =
    (* Keep the sweep representative but bounded. *)
    List.filteri (fun i _ -> i mod (if quick then 1 else 4) = 0) configs
  in
  let points =
    List.map
      (fun (a, b, c) ->
        ( (a, b, c),
          matmul_cycles ~alignments:(a, b, c) ~warm_cols:16 ~machine:x5650 ~n
            ~unroll:1 ~source:`Original ~rows:1 ~cols:(if quick then 8 else 16) () ))
      configs
  in
  let values = List.map snd points in
  let lo = List.fold_left Float.min infinity values in
  let hi = List.fold_left Float.max 0. values in
  let spread = if lo > 0. then (hi -. lo) /. lo *. 100. else 0. in
  Exp_table.make ~id:"fig04"
    ~title:(Printf.sprintf "Matmul %dx%d cycles/iteration vs matrix alignments" n n)
    ~columns:[ "align(res,B,C)"; "cycles/iter" ]
    ~expectation:"alignment does not matter at this size: variation below 3%"
    ~observations:[ Printf.sprintf "spread (max-min)/min = %.2f%%" spread ]
    (List.map
       (fun ((a, b, c), v) ->
         [ Printf.sprintf "%d/%d/%d" a b c; cell v ])
       points)

(* ------------------------------------------------------------------ *)
(* Figure 5: matmul unroll factors, original vs micro-benchmark        *)
(* ------------------------------------------------------------------ *)

let fig05 ?(quick = false) () =
  let n = if quick then 100 else 200 in
  let unrolls = if quick then [ 1; 2; 8 ] else [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let rows_n = if quick then 1 else 2 in
  let cols_n = if quick then 8 else 16 in
  let run source u =
    matmul_cycles ~warm_cols:cols_n ~machine:x5650 ~n ~unroll:u ~source
      ~rows:rows_n ~cols:cols_n ()
  in
  let points =
    List.map (fun u -> (u, run `Original u, run `Micro u)) unrolls
  in
  let improvement series =
    match series with
    | (_, first) :: _ ->
      let last = snd (List.nth series (List.length series - 1)) in
      (first -. last) /. first *. 100.
    | [] -> 0.
  in
  let orig_imp = improvement (List.map (fun (u, o, _) -> (u, o)) points) in
  let micro_imp = improvement (List.map (fun (u, _, m) -> (u, m)) points) in
  Exp_table.make ~id:"fig05"
    ~title:
      (Printf.sprintf
         "Matmul %dx%d cycles/iteration vs unroll factor, original code vs \
          MicroCreator kernel" n n)
    ~columns:[ "unroll"; "original"; "microbench" ]
    ~expectation:
      "unrolling 8x improves the original code by ~9% and the micro-benchmark \
       predicts a similar gain (8.2%); the two series track each other"
    ~observations:
      [
        Printf.sprintf "original improves %.1f%% from unroll 1 to %d" orig_imp
          (List.nth unrolls (List.length unrolls - 1));
        Printf.sprintf "micro-benchmark improves %.1f%%" micro_imp;
      ]
    (List.map (fun (u, o, m) -> [ string_of_int u; cell o; cell m ]) points)

(* ------------------------------------------------------------------ *)
(* Figures 11/12: stream kernels across the hierarchy                  *)
(* ------------------------------------------------------------------ *)

let stream_figure ~id ~quick ~opcode ~stride =
  let unrolls = if quick then [ 1; 2; 8 ] else [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let spec = Streams.loadstore_spec ~opcode ~stride () in
  let loads, stores = pure_variants spec in
  let base =
    {
      (Options.default x5650) with
      Options.per = Options.Per_instruction;
      element_bytes = stride;
    }
  in
  let levels = hierarchy_levels ~quick x5650 in
  let value_for lvl u =
    let opts = opts_for_level ~quick base lvl in
    let vload = measure_value opts (variant_with_unroll loads u) in
    let vstore = measure_value opts (variant_with_unroll stores u) in
    (* "For each unroll group, the minimum value was taken." *)
    Float.min vload vstore
  in
  let rows =
    List.map
      (fun u ->
        string_of_int u :: List.map (fun lvl -> cell (value_for lvl u)) levels)
      unrolls
  in
  let first_row = List.nth rows 0 in
  let last_row = List.nth rows (List.length rows - 1) in
  let nth_f row i = float_of_string (List.nth row i) in
  Exp_table.make ~id
    ~title:
      (Printf.sprintf
         "Cycles per load/store (%s) vs unroll factor and hierarchy level (X5650)"
         (Mt_isa.Insn.mnemonic opcode))
    ~columns:("unroll" :: List.map (fun l -> l.level) levels)
    ~expectation:
      (if opcode = Mt_isa.Insn.MOVAPS then
         "unrolling reduces cycles/instruction at every level; RAM stays \
          bandwidth-bound well above the cache levels; L3 under 2 cycles per \
          load at unroll 8"
       else
         "unrolling reduces cycles/instruction; movss moves 4x less data so \
          even RAM approaches ~1 cycle per load; L3 reaches one cycle per \
          load at unroll 8")
    ~observations:
      [
        Printf.sprintf "L1 improves from %.2f to %.2f cycles/instruction"
          (nth_f first_row 1) (nth_f last_row 1);
        Printf.sprintf "RAM at max unroll: %.2f cycles/instruction"
          (nth_f last_row 4);
        Printf.sprintf "L3 at max unroll: %.2f cycles/instruction"
          (nth_f last_row 3);
      ]
    rows

let fig11 ?(quick = false) () =
  stream_figure ~id:"fig11" ~quick ~opcode:Mt_isa.Insn.MOVAPS ~stride:16

let fig12 ?(quick = false) () =
  stream_figure ~id:"fig12" ~quick ~opcode:Mt_isa.Insn.MOVSS ~stride:4

(* ------------------------------------------------------------------ *)
(* Figure 13: frequency sweep                                          *)
(* ------------------------------------------------------------------ *)

let fig13 ?(quick = false) () =
  let freqs = if quick then [ 1.60; 2.67 ] else [ 1.60; 2.00; 2.27; 2.67 ] in
  let spec =
    Streams.loadstore_spec ~opcode:Mt_isa.Insn.MOVAPS ~unroll:(8, 8)
      ~swap_after:false ()
  in
  let variant =
    match Creator.generate spec with
    | [ v ] -> v
    | vs -> fail "fig13: expected 1 variant, got %d" (List.length vs)
  in
  let levels = hierarchy_levels ~quick x5650 in
  let value_for lvl freq =
    let base =
      {
        (Options.default x5650) with
        Options.per = Options.Per_instruction;
        frequency_ghz = Some freq;
        eval_method = Options.Rdtsc;
      }
    in
    measure_value (opts_for_level ~quick base lvl) variant
  in
  let rows =
    List.map
      (fun freq ->
        Printf.sprintf "%.2f" freq
        :: List.map (fun lvl -> cell (value_for lvl freq)) levels)
      freqs
  in
  let col_ratio i =
    let first = float_of_string (List.nth (List.nth rows 0) i) in
    let last =
      float_of_string (List.nth (List.nth rows (List.length rows - 1)) i)
    in
    first /. last
  in
  Exp_table.make ~id:"fig13"
    ~title:
      "rdtsc cycles per load (movaps x8) vs core frequency and hierarchy level"
    ~columns:("GHz" :: List.map (fun l -> l.level) levels)
    ~expectation:
      "in rdtsc (frequency-independent) cycles, L1/L2 latencies scale with \
       the core clock while L3/RAM stay constant: on-core frequency does not \
       affect the off-core side"
    ~observations:
      [
        Printf.sprintf "L1 rdtsc-cycles ratio lowest/highest frequency: %.2fx (clock ratio %.2fx)"
          (col_ratio 1)
          (List.nth freqs (List.length freqs - 1) /. List.nth freqs 0);
        Printf.sprintf "RAM rdtsc-cycles ratio lowest/highest frequency: %.2fx" (col_ratio 4);
      ]
    rows

(* ------------------------------------------------------------------ *)
(* Figure 14: fork-mode core sweep                                     *)
(* ------------------------------------------------------------------ *)

let fig14 ?(quick = false) () =
  let core_counts =
    if quick then [ 1; 4; 6; 8; 12 ] else [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12 ]
  in
  let spec =
    Streams.loadstore_spec ~opcode:Mt_isa.Insn.MOVAPS ~unroll:(8, 8)
      ~swap_after:false ()
  in
  let variant =
    match Creator.generate spec with
    | [ v ] -> v
    | vs -> fail "fig14: expected 1 variant, got %d" (List.length vs)
  in
  let value_for cores =
    let opts =
      {
        (Options.default x5650) with
        Options.per = Options.Per_pass;
        array_bytes = (if quick then 1 else 4) * 1024 * 1024;
        warmup = false;
        repetitions = 1;
        experiments = 1;
        cores;
      }
    in
    measure_value opts variant
  in
  let points = List.map (fun c -> (c, value_for c)) core_counts in
  let at n = List.assoc_opt n points in
  let obs =
    match at 1, at 6, at 12 with
    | Some one, Some six, Some twelve ->
      [
        Printf.sprintf "1->6 cores: %.2f -> %.2f cycles/iteration (%.0f%% change)"
          one six ((six -. one) /. one *. 100.);
        Printf.sprintf "6->12 cores: %.2f -> %.2f (%.2fx)" six twelve (twelve /. six);
      ]
    | _ -> []
  in
  Exp_table.make ~id:"fig14"
    ~title:
      "Fork mode: cycles/iteration of an 8-load movaps RAM kernel vs core \
       count (dual-socket X5650)"
    ~columns:[ "cores"; "cycles/iter" ]
    ~expectation:
      "the breaking point is six cores: below it latency is barely affected, \
       beyond it every added core degrades everyone (memory saturation)"
    ~observations:obs
    (List.map (fun (c, v) -> [ string_of_int c; cell v ]) points)

(* ------------------------------------------------------------------ *)
(* Figures 15/16: alignment sweeps under multi-core pressure           *)
(* ------------------------------------------------------------------ *)

let alignment_figure ~id ~quick ~arrays ~cores ~expectation ~title =
  let spec = Streams.multi_array_spec ~arrays () in
  let variants = Creator.generate spec in
  let variant =
    match variants with v :: _ -> v | [] -> fail "%s: no variants" id
  in
  let program = Variant.concrete_body variant in
  let abi = Option.get variant.Variant.abi in
  let opts =
    {
      (Options.default x7550) with
      Options.per = Options.Per_pass;
      array_bytes = (if quick then 64 else 256) * 1024;
      warmup = false;
      repetitions = 1;
      experiments = 1;
      cores;
      keep_failures = true;
    }
  in
  let configs =
    Alignment.stride_configs ~arrays ~step:(if quick then 512 else 128)
      ~modulus:4096
  in
  let points = ok_or_fail id (Alignment.sweep opts program abi ~configs) in
  let lo = (Alignment.best points).Alignment.report.Report.value in
  let hi = (Alignment.worst points).Alignment.report.Report.value in
  Exp_table.make ~id ~title
    ~columns:[ "config"; "offsets"; "cycles/iter" ]
    ~expectation
    ~observations:
      [
        Printf.sprintf "band: %.1f to %.1f cycles/iteration (%.2fx)" lo hi
          (if lo > 0. then hi /. lo else 0.);
      ]
    (List.mapi
       (fun i (p : Alignment.point) ->
         [
           string_of_int i;
           String.concat "/" (List.map string_of_int p.Alignment.offsets);
           cell p.Alignment.report.Report.value;
         ])
       points)

let fig15 ?(quick = false) () =
  alignment_figure ~id:"fig15" ~quick ~arrays:8 ~cores:8
    ~title:
      "Alignment sweep: 8-array movss traversal on 8 of 32 cores (X7550)"
    ~expectation:
      "cycles/iteration varies from 20 to 33 across alignment configurations"

let fig16 ?(quick = false) () =
  alignment_figure ~id:"fig16" ~quick ~arrays:4 ~cores:32
    ~title:"Alignment sweep: 4-array movss traversal on 32 cores (X7550)"
    ~expectation:
      "with full 32-core memory saturation the band moves to 60-90 \
       cycles/iteration"

(* ------------------------------------------------------------------ *)
(* Figures 17/18 + Table 2: sequential vs OpenMP                       *)
(* ------------------------------------------------------------------ *)

let seq_vs_openmp ~quick ~elements ~unrolls ~experiments =
  let array_bytes = elements * 4 in
  let base =
    {
      (Options.default sandy) with
      Options.per = Options.Per_element;
      array_bytes;
      repetitions = 1;
      experiments = (if quick then max 2 (experiments / 2) else experiments);
    }
  in
  List.map
    (fun u ->
      let spec = Streams.movss_unrolled_spec ~unroll:u () in
      let variant =
        match Creator.generate spec with
        | [ v ] -> v
        | vs -> fail "seq_vs_openmp: %d variants" (List.length vs)
      in
      let seq = launch_variant base variant |> ok_or_fail "sequential" in
      let omp =
        launch_variant { base with Options.openmp_threads = 4 } variant
        |> ok_or_fail "openmp"
      in
      (u, seq, omp))
    unrolls

let openmp_figure ~id ~quick ~elements ~title ~expectation =
  let unrolls = if quick then [ 1; 2; 8 ] else [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let points = seq_vs_openmp ~quick ~elements ~unrolls ~experiments:10 in
  let stability =
    List.fold_left
      (fun acc (_, seq, _) ->
        Float.max acc (Mt_stats.relative_spread seq.Report.experiments))
      0. points
  in
  let speedup_at u =
    List.find_map
      (fun (u', seq, omp) ->
        if u' = u then Some (seq.Report.value /. omp.Report.value) else None)
      points
  in
  Exp_table.make ~id ~title
    ~columns:
      [ "unroll"; "seq min"; "seq med"; "seq max"; "omp min"; "omp med"; "omp max" ]
    ~expectation
    ~observations:
      ([
         Printf.sprintf "max run-to-run spread across 10 sequential runs: %.2f%%"
           (stability *. 100.);
       ]
      @
      match speedup_at 1 with
      | Some s -> [ Printf.sprintf "OpenMP speedup at unroll 1: %.2fx" s ]
      | None -> [])
    (List.map
       (fun (u, seq, omp) ->
         let s = seq.Report.summary and o = omp.Report.summary in
         [
           string_of_int u;
           cell s.Mt_stats.minimum; cell s.Mt_stats.median; cell s.Mt_stats.maximum;
           cell o.Mt_stats.minimum; cell o.Mt_stats.median; cell o.Mt_stats.maximum;
         ])
       points)

let fig17 ?(quick = false) () =
  openmp_figure ~id:"fig17" ~quick ~elements:(128 * 1024)
    ~title:
      "movss loads, sequential vs OpenMP(4), 128k-element array (Sandy \
       Bridge): cycles per element"
    ~expectation:
      "OpenMP wins by a large factor on the cache-resident array; min/max of \
       ten runs are close together (stable measurements)"

let fig18 ?(quick = false) () =
  let elements = if quick then 2_500_000 else 3_000_000 in
  openmp_figure ~id:"fig18" ~quick ~elements
    ~title:
      "movss loads, sequential vs OpenMP(4), RAM-resident array (Sandy \
       Bridge): cycles per element"
    ~expectation:
      "with a RAM-resident array the OpenMP gain shrinks markedly compared \
       to the 128k case (bandwidth saturation)"

let tab01 ?quick:_ () =
  Exp_table.make ~id:"tab01" ~title:"Machines standing in for Table 1"
    ~columns:[ "preset"; "topology"; "GHz"; "figures" ]
    ~expectation:
      "Sandy Bridge E3-1240 -> Figs 17/18; dual-socket X5650 -> Figs 2-5 and \
       11-14; quad-socket X7550 -> Figs 15/16"
    [
      [ "sandy_bridge_e31240"; "1 socket x 4 cores"; "3.30"; "17, 18, tab02" ];
      [ "nehalem_x5650_2s"; "2 sockets x 6 cores"; "2.67"; "3, 4, 5, 11-14" ];
      [ "nehalem_x7550_4s"; "4 sockets x 8 cores"; "2.00"; "15, 16" ];
    ]

let tab02 ?(quick = false) () =
  let elements = if quick then 2_500_000 else 3_000_000 in
  let unrolls = if quick then [ 1; 2; 8 ] else [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  (* The paper does not give the total workload size behind its wall
     times; we extrapolate measured ns/element to a fixed 3e10-element
     job, which lands the sequential unroll-1 row in the paper's range
     and preserves every comparison. *)
  let total_elements = 3e10 in
  let base =
    {
      (Options.default sandy) with
      Options.per = Options.Per_element;
      eval_method = Options.Wallclock_ns;
      array_bytes = elements * 4;
      repetitions = 1;
      experiments = (if quick then 1 else 2);
    }
  in
  let points =
    List.map
      (fun u ->
        let spec = Streams.movss_unrolled_spec ~unroll:u () in
        let variant =
          match Creator.generate spec with
          | [ v ] -> v
          | vs -> fail "tab02: %d variants" (List.length vs)
        in
        let seconds opts =
          let r = launch_variant opts variant |> ok_or_fail "tab02" in
          r.Report.value *. total_elements /. 1e9
        in
        ( u,
          seconds { base with Options.openmp_threads = 4 },
          seconds base ))
      unrolls
  in
  let first = List.nth points 0 in
  let last = List.nth points (List.length points - 1) in
  let omp_flat (_, o1, _) (_, o2, _) = (o1 -. o2) /. o1 *. 100. in
  let seq_gain (_, _, s1) (_, _, s2) = (s1 -. s2) /. s1 *. 100. in
  Exp_table.make ~id:"tab02"
    ~title:
      "Execution time (s) of OpenMP(4) and sequential movss kernels per \
       unroll factor (extrapolated to a fixed 3e10-element job)"
    ~columns:[ "unroll"; "OpenMP time (s)"; "Seq. time (s)" ]
    ~expectation:
      "OpenMP stays flat (~9.3-9.4 s) across unroll factors while the \
       sequential version improves from 18.30 s to ~14.4 s"
    ~observations:
      [
        Printf.sprintf "OpenMP changes only %.1f%% from unroll 1 to 8"
          (omp_flat first last);
        Printf.sprintf "sequential improves %.1f%%" (seq_gain first last);
      ]
    (List.map
       (fun (u, omp, seq) ->
         [ string_of_int u; Printf.sprintf "%.2f" omp; Printf.sprintf "%.2f" seq ])
       points)

(* ------------------------------------------------------------------ *)
(* Generator-count claims                                              *)
(* ------------------------------------------------------------------ *)

let gen_counts ?quick:_ () =
  let loadstore = List.length (Creator.generate (Streams.loadstore_spec ())) in
  let movewidth = List.length (Creator.generate (Streams.move_width_spec ())) in
  let passes = List.length Passes.pass_names in
  Exp_table.make ~id:"gen_counts"
    ~title:"MicroCreator generation claims (Sections 3, 4.2, 5.1)"
    ~columns:[ "claim"; "paper"; "measured" ]
    ~expectation:
      "510 variants from the single (Load|Store)+ file; >2000 from one file \
       with four move widths; 19 compiler passes; >30 launcher options"
    [
      [ "(Load|Store)+ variants"; "510"; string_of_int loadstore ];
      [ "move-width variants"; "> 2000"; string_of_int movewidth ];
      [ "creator passes"; "19"; string_of_int passes ];
      [ "launcher options"; "> 30"; string_of_int Options.count ];
    ]

(* ------------------------------------------------------------------ *)
(* Extensions beyond the paper: ablations and energy                   *)
(* ------------------------------------------------------------------ *)

(* Each machine-model mechanism DESIGN.md section 5 relies on, measured
   with the mechanism on and off on the diagnostic workload whose shape
   it produces. *)
let ablation ?(quick = false) () =
  let with_feature flip cfg =
    Config.with_features cfg (flip cfg.Config.features)
  in
  let stream_value cfg variant ~bytes ~cold =
    let opts =
      {
        (Options.default cfg) with
        Options.per = Options.Per_instruction;
        array_bytes = bytes;
        warmup = not cold;
        repetitions = 1;
        experiments = (if cold then 1 else 2);
      }
    in
    measure_value opts variant
  in
  let movss8 =
    match
      Creator.generate
        (Streams.loadstore_spec ~opcode:Mt_isa.Insn.MOVSS ~stride:4
           ~unroll:(8, 8) ~swap_after:false ())
    with
    | [ v ] -> v
    | _ -> fail "ablation: variant"
  in
  let ram_bytes = (if quick then 1 else 2) * 1024 * 1024 in
  (* 1. Prefetcher: cold RAM stream cycles/load. *)
  let prefetch_on = stream_value x5650 movss8 ~bytes:ram_bytes ~cold:true in
  let prefetch_off =
    stream_value
      (with_feature (fun f -> { f with Config.prefetcher = false }) x5650)
      movss8 ~bytes:ram_bytes ~cold:true
  in
  (* 2. TLB: matmul past the page-stride cliff. *)
  let n = if quick then 550 else 600 in
  let tlb_on =
    matmul_cycles ~warm_cols:8 ~machine:x5650 ~n ~unroll:1 ~source:`Original
      ~rows:1 ~cols:8 ()
  in
  let tlb_off =
    matmul_cycles ~warm_cols:8
      ~machine:(with_feature (fun f -> { f with Config.tlb = false }) x5650)
      ~n ~unroll:1 ~source:`Original ~rows:1 ~cols:8 ()
  in
  (* 3. Alias interference: the Fig. 15 kernel at the worst alignment. *)
  let alias_value machine =
    let spec = Streams.multi_array_spec ~arrays:4 () in
    let variant = List.hd (Creator.generate spec) in
    let opts =
      {
        (Options.default machine) with
        Options.per = Options.Per_pass;
        array_bytes = 64 * 1024;
        warmup = false;
        repetitions = 1;
        experiments = 1;
        cores = 8;
        alignments = [ 0; 0; 0; 0 ];
      }
    in
    measure_value opts variant
  in
  let alias_on = alias_value x7550 in
  let alias_off =
    alias_value (with_feature (fun f -> { f with Config.alias_interference = false }) x7550)
  in
  (* 4. Split penalty: a deliberately line-straddling movups stream. *)
  let split_value machine =
    let spec =
      Streams.loadstore_spec ~name:"split" ~opcode:Mt_isa.Insn.MOVUPS
        ~stride:16 ~unroll:(4, 4) ~swap_after:false ()
    in
    let variant =
      match Creator.generate spec with [ v ] -> v | _ -> fail "ablation: split"
    in
    let opts =
      {
        (Options.default machine) with
        Options.per = Options.Per_instruction;
        array_bytes = 16 * 1024;
        alignments = [ 56 ] (* every movups crosses a line *);
        alignment_modulus = 64;
        repetitions = 2;
        experiments = 2;
      }
    in
    measure_value opts variant
  in
  let split_on = split_value x5650 in
  let split_off =
    split_value (with_feature (fun f -> { f with Config.split_penalty = false }) x5650)
  in
  Exp_table.make ~id:"ablation"
    ~title:"Model ablations: each mechanism on vs off on its diagnostic workload"
    ~columns:[ "mechanism"; "workload"; "on"; "off"; "effect" ]
    ~expectation:
      "each mechanism moves its diagnostic in the direction DESIGN.md claims: \
       prefetching cuts cold-stream cost, the TLB creates the matmul cliff, \
       alias replays inflate saturated multi-array passes, split accesses \
       cost extra"
    [
      [ "stream prefetcher"; "movss x8 cold RAM (cyc/load)"; cell prefetch_on;
        cell prefetch_off; Printf.sprintf "%.2fx without" (prefetch_off /. prefetch_on) ];
      [ "tlb + walker"; Printf.sprintf "matmul n=%d (cyc/iter)" n; cell tlb_on;
        cell tlb_off; Printf.sprintf "%.2fx with" (tlb_on /. tlb_off) ];
      [ "4K-alias replays"; "4-array movss, 8 cores (cyc/pass)"; cell alias_on;
        cell alias_off; Printf.sprintf "%.2fx with" (alias_on /. alias_off) ];
      [ "split penalty"; "straddling movups (cyc/load)"; cell split_on;
        cell split_off; Printf.sprintf "%.2fx with" (split_on /. split_off) ];
    ]

(* Energy per element across unroll factors and clocks — the paper's
   "performance or power utilization" axis (Section 7). *)
let energy ?(quick = false) () =
  let freqs = if quick then [ 1.6; 3.3 ] else [ 1.6; 2.4; 3.3 ] in
  let unrolls = [ 1; 8 ] in
  let measure ~freq ~unroll =
    let machine = Config.with_core_ghz sandy freq in
    let variant =
      match Creator.generate (Streams.movss_unrolled_spec ~unroll ()) with
      | [ v ] -> v
      | _ -> fail "energy: variant"
    in
    let opts =
      {
        (Options.default machine) with
        Options.array_bytes = (if quick then 64 else 256) * 1024;
        repetitions = 1;
        experiments = 1;
      }
    in
    let prepared =
      Protocol.prepare opts (Variant.concrete_body variant)
        (Option.get variant.Variant.abi)
      |> ok_or_fail "energy prepare"
    in
    ignore (Protocol.run_once prepared);
    let outcome = ok_or_fail "energy run" (Protocol.run_once prepared) in
    let elements = float_of_int (outcome.Core.rax * unroll) in
    let nj = Energy.joules machine outcome *. 1e9 /. elements in
    let ns = outcome.Core.cycles /. freq /. elements in
    (nj, ns)
  in
  let rows =
    List.concat_map
      (fun freq ->
        List.map
          (fun unroll ->
            let nj, ns = measure ~freq ~unroll in
            [
              Printf.sprintf "%.1f" freq;
              string_of_int unroll;
              Printf.sprintf "%.3f" ns;
              Printf.sprintf "%.3f" nj;
            ])
          unrolls)
      freqs
  in
  let nj_of row = float_of_string (List.nth row 3) in
  let first = List.nth rows 0 and last = List.nth rows (List.length rows - 1) in
  Exp_table.make ~id:"energy"
    ~title:
      "Energy per element (nJ) of the movss kernel across core clocks and \
       unroll factors (Sandy Bridge)"
    ~columns:[ "GHz"; "unroll"; "ns/element"; "nJ/element" ]
    ~expectation:
      "the tools evaluate power utilization as well as performance: unrolling \
       reduces energy (fewer overhead uops, less static time), and a faster \
       clock reduces static energy per element (race to idle)"
    ~observations:
      [
        Printf.sprintf
          "slow clock, unroll 1: %.3f nJ/element; fast clock, unroll 8: %.3f"
          (nj_of first) (nj_of last);
      ]
    rows

(* The Section 2 motivation's pay-off: "The optimal size for matrix
   multiplications is used by optimizations such as tiling."  Tiling
   keeps each block of the column matrix cache- and TLB-resident, which
   removes the Fig. 3 cliff. *)
let tiling ?(quick = false) () =
  let n = if quick then 400 else 600 in
  let tiles = (if quick then [ n; 100; 50 ] else [ n; 200; 100; 50; 25 ]) in
  let rows =
    List.map
      (fun tile ->
        let c =
          Matmul.tiled_cycles ~machine:x5650 ~n ~tile () |> ok_or_fail "tiling"
        in
        (tile, c))
      tiles
  in
  let naive = List.assoc n rows in
  let best =
    List.fold_left (fun acc (_, c) -> Float.min acc c) infinity rows
  in
  Exp_table.make ~id:"tiling"
    ~title:
      (Printf.sprintf
         "Tiled matmul at n=%d (X5650): cycles per inner iteration vs tile size"
         n)
    ~columns:[ "tile"; "cycles/iter" ]
    ~expectation:
      "Section 2: past the Fig. 3 cut-off, tiling restores cache/TLB locality \
       — the tiled multiply should run at the small-matrix rate while the \
       untiled one pays the cliff"
    ~observations:
      [
        Printf.sprintf "best tile runs %.1fx faster than untiled" (naive /. best);
      ]
    (List.map
       (fun (tile, c) ->
         [ (if tile = n then Printf.sprintf "%d (untiled)" tile else string_of_int tile);
           cell c ])
       rows)

(* All four execution modes on one kernel: sequential, fork (duplicated
   work per core, Section 5.2.1), OpenMP (decomposed, Section 5.2.3)
   and SPMD/MPI (decomposed with per-phase barriers, Section 7 future
   work). *)
let parmodes ?(quick = false) () =
  let variant =
    match Creator.generate (Streams.movss_unrolled_spec ~unroll:4 ()) with
    | [ v ] -> v
    | _ -> fail "parmodes: variant"
  in
  let base array_bytes =
    {
      (Options.default sandy) with
      Options.per = Options.Per_element;
      array_bytes;
      repetitions = (if quick then 1 else 2);
      experiments = (if quick then 2 else 3);
    }
  in
  let measure opts =
    (launch_variant opts variant |> ok_or_fail "parmodes").Report.value
  in
  let cached = (if quick then 64 else 128) * 1024 in
  let ram = (if quick then 9 else 12) * 1024 * 1024 in
  let row label f =
    [ label; cell (f (base cached)); cell (f (base ram)) ]
  in
  let rows =
    [
      row "sequential" measure;
      row "fork x4 (duplicated work)" (fun o -> measure { o with Options.cores = 4 });
      row "openmp x4" (fun o -> measure { o with Options.openmp_threads = 4 });
      row "mpi x4 (barrier/phase)" (fun o -> measure { o with Options.mpi_ranks = 4 });
    ]
  in
  let v r = float_of_string (List.nth r 2) in
  let seq = v (List.nth rows 0) and omp = v (List.nth rows 2) in
  Exp_table.make ~id:"parmodes"
    ~title:
      "All execution modes on the movss x4 kernel (Sandy Bridge): cycles per \
       element, cache-resident vs RAM-resident"
    ~columns:[ "mode"; "cached"; "RAM" ]
    ~expectation:
      "fork duplicates the work (per-element cost tracks sequential, worse \
       under RAM contention); OpenMP and MPI decompose it (lower per-element \
       cost, converging to the bandwidth wall on RAM data)"
    ~observations:
      [
        Printf.sprintf "RAM data: OpenMP ends at %.2fx the sequential per-element cost"
          (omp /. seq);
      ]
    rows

(* Section 4.7's stability machinery, feature by feature: "the
   launcher: modifies the alignment of data arrays, disables
   interruptions, and pins the experiments onto particular cores ...
   All these elements contribute to obtaining stable results." *)
let stability ?(quick = false) () =
  let variant =
    match Creator.generate (Streams.movss_unrolled_spec ~unroll:4 ()) with
    | [ v ] -> v
    | _ -> fail "stability: variant"
  in
  let spread ~pinned ~interrupts_masked ~warmup =
    let opts =
      {
        (Options.default x5650) with
        Options.array_bytes = 32 * 1024;
        repetitions = 1;
        experiments = (if quick then 8 else 20);
        pinned;
        interrupts_masked;
        warmup;
      }
    in
    let r = launch_variant opts variant |> ok_or_fail "stability" in
    ( Mt_stats.relative_spread r.Report.experiments *. 100.,
      Mt_quality.verdict_to_string r.Report.quality.Mt_quality.verdict )
  in
  let measured =
    [
      ("all stability features (default)", true, true, true);
      ("no core pinning", false, true, true);
      ("interrupts not masked", true, false, true);
      ("no cache warm-up", true, true, false);
      ("nothing controlled", false, false, false);
    ]
    |> List.map (fun (label, pinned, interrupts_masked, warmup) ->
           let pct, verdict = spread ~pinned ~interrupts_masked ~warmup in
           ([ label; Printf.sprintf "%.2f%%" pct ], verdict))
  in
  let rows = List.map fst measured in
  let verdicts = List.map snd measured in
  let pct row = float_of_string (String.sub (List.nth row 1) 0 (String.length (List.nth row 1) - 1)) in
  let stable = pct (List.nth rows 0) and hostile = pct (List.nth rows 4) in
  Exp_table.make ~id:"stability"
    ~title:"Run-to-run spread of the same measurement as stability features toggle"
    ~columns:[ "environment"; "spread (max-min)/min" ]
    ~expectation:
      "Section 4.7: pinning, masked interrupts and warm-up are what make        repeated executions agree; removing them widens the spread"
    ~observations:
      [
        Printf.sprintf "uncontrolled runs spread %.0fx wider than the default protocol"
          (hostile /. Float.max 0.001 stable);
      ]
    ~verdicts rows

(* Section 5's portability claim: "The MicroTools were deployed on
   each architecture without any additional work required ... the tools
   also generated the assembly and executed on the architectures also
   with no additional cost."  One description, all three machines. *)
let portability ?(quick = false) () =
  let spec =
    Streams.loadstore_spec ~opcode:Mt_isa.Insn.MOVSS ~stride:4
      ~unroll:((if quick then 2 else 8), (if quick then 2 else 8))
      ~swap_after:false ()
  in
  let variant =
    match Creator.generate spec with
    | [ v ] -> v
    | _ -> fail "portability: variant"
  in
  let measure machine level =
    let bytes =
      match level with
      | `L1 -> machine.Config.l1.Config.size_bytes / 2
      | `Ram -> (if quick then 1 else 2) * 1024 * 1024
    in
    let opts =
      {
        (Options.default machine) with
        Options.per = Options.Per_instruction;
        array_bytes = bytes;
        warmup = (level = `L1);
        repetitions = 1;
        experiments = (if level = `L1 then 2 else 1);
      }
    in
    measure_value opts variant
  in
  let rows =
    List.map
      (fun (name, machine) ->
        [
          name;
          Printf.sprintf "%d x %d @ %.2f GHz" machine.Config.sockets
            machine.Config.cores_per_socket machine.Config.core_ghz;
          cell (measure machine `L1);
          cell (measure machine `Ram);
        ])
      Config.presets
  in
  Exp_table.make ~id:"portability"
    ~title:
      "One description, every machine: movss x8 cycles/load, L1 vs cold RAM"
    ~columns:[ "machine"; "topology"; "L1"; "RAM" ]
    ~expectation:
      "Section 5: the tools deploy on each architecture with no additional        work — the same input file measures every preset, and the numbers        reflect each machine's own hierarchy"
    ~observations:
      [
        Printf.sprintf "%d machines measured from one description file"
          (List.length rows);
      ]
    rows

(* ------------------------------------------------------------------ *)
(* Index                                                               *)
(* ------------------------------------------------------------------ *)

let registry :
    (string * (?quick:bool -> unit -> Exp_table.t)) list =
  [
    ("fig03", fig03); ("fig04", fig04); ("fig05", fig05);
    ("fig11", fig11); ("fig12", fig12); ("fig13", fig13); ("fig14", fig14);
    ("fig15", fig15); ("fig16", fig16); ("fig17", fig17); ("fig18", fig18);
    ("tab01", tab01); ("tab02", tab02); ("gen_counts", gen_counts);
    ("ablation", ablation); ("energy", energy); ("parmodes", parmodes);
    ("tiling", tiling); ("portability", portability); ("stability", stability);
  ]

let ids = List.map fst registry

let by_id id = List.assoc_opt id registry

let all ?quick () = List.map (fun (_, f) -> f ?quick ()) registry

(* ------------------------------------------------------------------ *)
(* Supervised batch execution                                          *)
(* ------------------------------------------------------------------ *)

type table_outcome =
  | Table of Exp_table.t
  | Quarantined of Mt_resilience.Supervisor.quarantine
  | Unknown

(* One experiment = one unit of supervised work: a figure whose helper
   [failwith]s (they all funnel through [ok_or_fail]) quarantines that
   figure and the rest of the batch still prints.  Experiments are
   independent simulator batches, so they parallelise like variants. *)
let run_tables ?(quick = false) ~(config : Study.Run_config.t) ids =
  let open Study.Run_config in
  Mt_parallel.Pool.map_list ~domains:(effective_domains config)
    (fun (index, id) ->
      match by_id id with
      | None -> (id, Unknown)
      | Some f ->
        let fault =
          match Mt_resilience.Fault.find config.faults ~index with
          (* Corrupt-cache faults target variant cache entries, which
             experiments do not own individually; ignore them here. *)
          | Some { Mt_resilience.Fault.kind = Corrupt_cache_entry; _ } -> None
          | fl -> fl
        in
        (match
           Mt_resilience.Supervisor.supervise ?fault
             ?wall_budget_s:config.wall_budget_s ~key:id
             (fun () -> f ?quick:(Some quick) ())
         with
        | Mt_resilience.Supervisor.Done t -> (id, Table t)
        | Mt_resilience.Supervisor.Quarantined q -> (id, Quarantined q)))
    (List.mapi (fun i id -> (i, id)) ids)

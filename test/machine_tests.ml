(* Tests for the machine substrate: config, cache, TLB/memory pipeline,
   architectural execution, memmap and noise. *)

open Mt_machine

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let checkf = Alcotest.(check (float 1e-6))

let x5650 = Config.nehalem_x5650_2s

(* ------------------------------------------------------------------ *)
(* Config                                                              *)
(* ------------------------------------------------------------------ *)

let test_presets_valid () =
  List.iter
    (fun (name, cfg) ->
      match Config.validate cfg with
      | Ok () -> ()
      | Error msg -> Alcotest.fail (name ^ ": " ^ msg))
    Config.presets

let test_core_counts () =
  check_int "x5650" 12 (Config.core_count x5650);
  check_int "sandy" 4 (Config.core_count Config.sandy_bridge_e31240);
  check_int "x7550" 32 (Config.core_count Config.nehalem_x7550_4s)

let test_frequency_conversions () =
  checkf "cycles of ns" 26.7 (Config.cycles_of_ns x5650 10.);
  checkf "tsc ratio at nominal" 1. (Config.tsc_per_core_cycle x5650);
  let slow = Config.with_core_ghz x5650 1.335 in
  checkf "tsc ratio at half clock" 2. (Config.tsc_per_core_cycle slow)

let test_ram_share_monotone () =
  let share n = Config.ram_stream_bytes_per_cycle x5650 ~sharers:n in
  check_bool "1 core >= 6 cores" true (share 1 >= share 6);
  check_bool "6 cores > 12 cores" true (share 6 > share 12);
  (* The calibrated Fig. 14 knee: the fair share first drops below one
     core's own miss-parallelism limit right around 6 sharers. *)
  check_bool "no contention at 5" true (share 5 >= share 1 *. 0.999);
  check_bool "contention at 7" true (share 7 < share 1 *. 0.95)

let test_validate_catches () =
  let bad = { x5650 with Config.core_ghz = 0. } in
  check_bool "zero clock" true (Result.is_error (Config.validate bad));
  let bad = { x5650 with Config.l1 = { x5650.Config.l1 with Config.line_bytes = 48 } } in
  check_bool "non power-of-two line" true (Result.is_error (Config.validate bad));
  let bad = { x5650 with Config.load_ports = 0 } in
  check_bool "no load port" true (Result.is_error (Config.validate bad))

let test_find_preset () =
  check_bool "found" true (Config.find_preset "nehalem_x5650_2s" = Some x5650);
  check_bool "missing" true (Config.find_preset "pentium" = None)

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

let small_geom = { Config.size_bytes = 1024; associativity = 2; line_bytes = 64 }

let test_cache_miss_then_hit () =
  let c = Cache.create small_geom in
  check_bool "first is miss" false (Cache.access c 5);
  check_bool "second is hit" true (Cache.access c 5);
  check_int "hits" 1 (Cache.hits c);
  check_int "misses" 1 (Cache.misses c)

let test_cache_lru_eviction () =
  let c = Cache.create small_geom in
  (* 8 sets, 2 ways; lines 0, 8, 16 all map to set 0. *)
  check_int "same set" (Cache.set_of_line c 0) (Cache.set_of_line c 8);
  ignore (Cache.access c 0);
  ignore (Cache.access c 8);
  ignore (Cache.access c 16);
  (* line 0 was LRU, must be gone; 8 and 16 remain *)
  check_bool "0 evicted" false (Cache.probe c 0);
  check_bool "8 stays" true (Cache.probe c 8);
  check_bool "16 stays" true (Cache.probe c 16)

let test_cache_lru_promotion () =
  let c = Cache.create small_geom in
  ignore (Cache.access c 0);
  ignore (Cache.access c 8);
  ignore (Cache.access c 0);
  (* 0 was just used *)
  ignore (Cache.access c 16);
  (* now 8 is the LRU victim *)
  check_bool "0 stays (promoted)" true (Cache.probe c 0);
  check_bool "8 evicted" false (Cache.probe c 8)

let test_cache_probe_no_update () =
  let c = Cache.create small_geom in
  check_bool "probe miss" false (Cache.probe c 3);
  check_int "probe counts nothing" 0 (Cache.hits c + Cache.misses c);
  check_bool "still miss after probe" false (Cache.access c 3)

let test_cache_reset () =
  let c = Cache.create small_geom in
  ignore (Cache.access c 1);
  Cache.reset c;
  check_bool "gone" false (Cache.probe c 1);
  check_int "counters zeroed" 0 (Cache.misses c)

let test_cache_line_of_addr () =
  let c = Cache.create small_geom in
  check_int "line" 2 (Cache.line_of_addr c 128);
  check_int "line round down" 2 (Cache.line_of_addr c 191)

let test_cache_non_pow2_sets () =
  (* 12 MiB 16-way: 12288 sets — the X5650 L3 shape. *)
  let c = Cache.create { Config.size_bytes = 12 * 1024 * 1024; associativity = 16; line_bytes = 64 } in
  check_int "sets" 12288 (Cache.set_count c);
  ignore (Cache.access c 123456);
  check_bool "hit after fill" true (Cache.access c 123456)

let prop_cache_working_set_fits =
  (* Any working set no larger than one way per set, touched twice,
     hits on the second pass. *)
  QCheck.Test.make ~count:100 ~name:"cache: small working set always hits on re-touch"
    QCheck.(int_range 1 16)
    (fun n ->
      let c = Cache.create small_geom in
      let lines = List.init n (fun i -> i) in
      List.iter (fun l -> ignore (Cache.access c l)) lines;
      List.for_all (fun l -> Cache.probe c l) lines)

(* ------------------------------------------------------------------ *)
(* Memory pipeline                                                     *)
(* ------------------------------------------------------------------ *)

let test_memory_l1_hit_latency () =
  let m = Memory.create x5650 in
  let _ = Memory.access m ~now:0. ~addr:4096 ~bytes:8 ~write:false in
  let t = Memory.access m ~now:100. ~addr:4096 ~bytes:8 ~write:false in
  checkf "l1 hit" (100. +. float_of_int x5650.Config.l1_latency_cycles) t;
  check_bool "served by L1" true (Memory.level_of_last_access m = Memory.L1)

let test_memory_cold_miss_is_ram () =
  let m = Memory.create x5650 in
  let t = Memory.access m ~now:0. ~addr:65536 ~bytes:8 ~write:false in
  check_bool "cold goes to RAM" true (Memory.level_of_last_access m = Memory.Ram);
  check_bool "ram latency felt" true (t > Config.cycles_of_ns x5650 x5650.Config.ram_latency_ns *. 0.5)

let test_memory_split_access () =
  let m = Memory.create x5650 in
  (* Warm both lines. *)
  let _ = Memory.access m ~now:0. ~addr:4096 ~bytes:64 ~write:false in
  let _ = Memory.access m ~now:0. ~addr:4160 ~bytes:64 ~write:false in
  let aligned = Memory.access m ~now:1000. ~addr:4096 ~bytes:8 ~write:false in
  let split = Memory.access m ~now:1000. ~addr:4156 ~bytes:8 ~write:false in
  check_bool "split slower than aligned" true (split > aligned);
  check_int "split counted" 1 (Memory.counters m).Memory.split_accesses

let test_memory_stream_prefetch_hides_latency () =
  let m = Memory.create x5650 in
  (* Stream 64 sequential lines at a sustainable pace (a line every 30
     cycles is below the single-core DRAM fill rate); once the stream
     is established, per-access latency collapses to near the L1 time
     instead of the ~175-cycle RAM round trip. *)
  let last = ref 0. in
  for i = 0 to 63 do
    let now = float_of_int (i * 30) in
    last := Memory.access m ~now ~addr:(i * 64) ~bytes:8 ~write:false -. now
  done;
  let c = Memory.counters m in
  check_bool "prefetched fills happened" true (c.Memory.prefetched_fills > 32);
  check_bool "steady-state latency well under full RAM latency" true
    (!last < Config.cycles_of_ns x5650 x5650.Config.ram_latency_ns /. 2.)

let test_memory_large_stride_not_prefetched () =
  let m = Memory.create x5650 in
  (* Stride of 16 lines: beyond the streamer's reach. *)
  for i = 0 to 31 do
    ignore (Memory.access m ~now:(float_of_int (i * 4)) ~addr:(i * 1024) ~bytes:8 ~write:false)
  done;
  check_int "no prefetched fills" 0 (Memory.counters m).Memory.prefetched_fills

let test_memory_tlb_walks () =
  let m = Memory.create x5650 in
  (* Touch 600 distinct pages twice: more than both TLB levels hold,
     so the second pass still walks. *)
  for pass = 0 to 1 do
    ignore pass;
    for p = 0 to 599 do
      ignore (Memory.access m ~now:0. ~addr:(p * 4096) ~bytes:4 ~write:false)
    done
  done;
  let c = Memory.counters m in
  check_bool "tlb misses" true (c.Memory.tlb_misses > 600);
  check_bool "page walks" true (c.Memory.page_walks > 600)

let test_memory_tlb_capacity () =
  let m = Memory.create x5650 in
  (* 32 pages fit the first-level TLB: second pass has no new misses. *)
  for p = 0 to 31 do
    ignore (Memory.access m ~now:0. ~addr:(p * 4096) ~bytes:4 ~write:false)
  done;
  let first_pass = (Memory.counters m).Memory.tlb_misses in
  for p = 0 to 31 do
    ignore (Memory.access m ~now:0. ~addr:(p * 4096) ~bytes:4 ~write:false)
  done;
  check_int "no new tlb misses" first_pass (Memory.counters m).Memory.tlb_misses

let test_memory_ram_share_depends_on_sharers () =
  let alone = Memory.create ~ram_sharers:1 x5650 in
  let crowded = Memory.create ~ram_sharers:12 x5650 in
  check_bool "crowded share smaller" true
    (Memory.ram_share_bytes_per_cycle crowded < Memory.ram_share_bytes_per_cycle alone)

let test_memory_l3_partitioned_by_sharers () =
  (* A 1 MiB working set fits an exclusive L3 slice but not a 1/6th
     slice on the X5650 (12 MiB / 6 = 2 MiB — still fits; use 12
     sharers per socket by pretending 12 sharers on one socket). *)
  let single = Memory.create ~ram_sharers:1 x5650 in
  let shared = Memory.create ~ram_sharers:12 x5650 in
  let touch m bytes =
    let lines = bytes / 64 in
    for pass = 0 to 1 do
      ignore pass;
      for i = 0 to lines - 1 do
        ignore (Memory.access m ~now:0. ~addr:(i * 64) ~bytes:8 ~write:false)
      done
    done;
    (Memory.counters m).Memory.ram_accesses
  in
  let bytes = 4 * 1024 * 1024 in
  let ram_single = touch single bytes in
  let ram_shared = touch shared bytes in
  check_bool "sharing the L3 causes more RAM traffic" true (ram_shared > ram_single)

let test_memory_drain_keeps_cache () =
  let m = Memory.create x5650 in
  ignore (Memory.access m ~now:0. ~addr:8192 ~bytes:8 ~write:false);
  Memory.drain m;
  ignore (Memory.access m ~now:0. ~addr:8192 ~bytes:8 ~write:false);
  check_bool "still cached after drain" true (Memory.level_of_last_access m = Memory.L1)

let test_memory_reset_clears_cache () =
  let m = Memory.create x5650 in
  ignore (Memory.access m ~now:0. ~addr:8192 ~bytes:8 ~write:false);
  Memory.reset m;
  ignore (Memory.access m ~now:0. ~addr:8192 ~bytes:8 ~write:false);
  check_bool "cold after reset" true (Memory.level_of_last_access m = Memory.Ram)

(* ------------------------------------------------------------------ *)
(* Exec                                                                *)
(* ------------------------------------------------------------------ *)

open Mt_isa

let step_all e instrs = List.iter (Exec.step e) instrs

let rsi = Reg.gpr64 Reg.RSI

let rdi = Reg.gpr64 Reg.RDI

let test_exec_mov_add_sub () =
  let e = Exec.create () in
  step_all e
    [
      Insn.make Insn.MOV [ Operand.imm 100; Operand.reg rsi ];
      Insn.make Insn.ADD [ Operand.imm 48; Operand.reg rsi ];
      Insn.make Insn.SUB [ Operand.imm 8; Operand.reg rsi ];
    ];
  check_int "rsi" 140 (Exec.get e rsi)

let test_exec_reg_to_reg () =
  let e = Exec.create () in
  Exec.set e rdi 7;
  Exec.step e (Insn.make Insn.MOV [ Operand.reg rdi; Operand.reg rsi ]);
  check_int "copied" 7 (Exec.get e rsi)

let test_exec_lea () =
  let e = Exec.create () in
  Exec.set e rsi 1000;
  Exec.set e rdi 3;
  Exec.step e
    (Insn.make Insn.LEA
       [ Operand.mem ~base:rsi ~index:rdi ~scale:8 ~disp:16 (); Operand.reg (Reg.gpr64 Reg.RAX) ]);
  check_int "lea" (1000 + 24 + 16) (Exec.get e (Reg.gpr64 Reg.RAX))

let test_exec_inc_dec_neg () =
  let e = Exec.create () in
  Exec.set e rsi 5;
  Exec.step e (Insn.make Insn.INC [ Operand.reg rsi ]);
  check_int "inc" 6 (Exec.get e rsi);
  Exec.step e (Insn.make Insn.DEC [ Operand.reg rsi ]);
  check_int "dec" 5 (Exec.get e rsi);
  Exec.step e (Insn.make Insn.NEG [ Operand.reg rsi ]);
  check_int "neg" (-5) (Exec.get e rsi)

let test_exec_bitops () =
  let e = Exec.create () in
  Exec.set e rsi 0b1100;
  Exec.step e (Insn.make Insn.AND [ Operand.imm 0b1010; Operand.reg rsi ]);
  check_int "and" 0b1000 (Exec.get e rsi);
  Exec.step e (Insn.make Insn.OR [ Operand.imm 0b0011; Operand.reg rsi ]);
  check_int "or" 0b1011 (Exec.get e rsi);
  Exec.step e (Insn.make Insn.XOR [ Operand.reg rsi; Operand.reg rsi ]);
  check_int "xor zero" 0 (Exec.get e rsi);
  Exec.set e rsi 3;
  Exec.step e (Insn.make Insn.SHL [ Operand.imm 4; Operand.reg rsi ]);
  check_int "shl" 48 (Exec.get e rsi);
  Exec.step e (Insn.make Insn.SHR [ Operand.imm 2; Operand.reg rsi ]);
  check_int "shr" 12 (Exec.get e rsi)

let test_exec_flags_and_branches () =
  let e = Exec.create () in
  Exec.set e rdi 5;
  Exec.step e (Insn.make Insn.SUB [ Operand.imm 5; Operand.reg rdi ]);
  check_bool "jge after zero" true (Exec.branch_taken e Insn.GE);
  check_bool "je after zero" true (Exec.branch_taken e Insn.E);
  check_bool "jg after zero" false (Exec.branch_taken e Insn.G);
  Exec.step e (Insn.make Insn.SUB [ Operand.imm 3; Operand.reg rdi ]);
  check_bool "jl after negative" true (Exec.branch_taken e Insn.L);
  check_bool "jge after negative" false (Exec.branch_taken e Insn.GE)

let test_exec_cmp_direction () =
  (* AT&T: cmp src, dst sets flags from dst - src. *)
  let e = Exec.create () in
  Exec.set e rdi 10;
  Exec.step e (Insn.make Insn.CMP [ Operand.imm 3; Operand.reg rdi ]);
  check_bool "10 > 3" true (Exec.branch_taken e Insn.G);
  Exec.step e (Insn.make Insn.CMP [ Operand.imm 30; Operand.reg rdi ]);
  check_bool "10 < 30" true (Exec.branch_taken e Insn.L)

let test_exec_address_of () =
  let e = Exec.create () in
  Exec.set e rsi 4096;
  check_int "plain base" 4096 (Exec.address_of e { Operand.base = Some rsi; index = None; scale = 1; disp = 0 });
  check_int "disp" 4112 (Exec.address_of e { Operand.base = Some rsi; index = None; scale = 1; disp = 16 })

let test_exec_logical_rejected () =
  let e = Exec.create () in
  check_bool "logical get raises" true
    (try
       ignore (Exec.get e (Reg.logical "r1"));
       false
     with Invalid_argument _ -> true)

let test_exec_xmm_ignored () =
  let e = Exec.create () in
  Exec.set e (Reg.xmm 3) 42;
  check_int "xmm reads 0" 0 (Exec.get e (Reg.xmm 3))

(* ------------------------------------------------------------------ *)
(* Memmap                                                              *)
(* ------------------------------------------------------------------ *)

let test_memmap_alignment_and_offset () =
  let mm = Memmap.create () in
  let r = Memmap.alloc mm ~size:100 ~align:4096 ~offset:48 in
  check_int "offset" 48 (r.Memmap.base mod 4096)

let test_memmap_no_overlap () =
  let mm = Memmap.create () in
  let a = Memmap.alloc mm ~size:1000 ~align:64 ~offset:0 in
  let b = Memmap.alloc mm ~size:1000 ~align:64 ~offset:0 in
  check_bool "disjoint" true (b.Memmap.base >= a.Memmap.base + a.Memmap.size)

let test_memmap_guard_gap () =
  let mm = Memmap.create () in
  let a = Memmap.alloc mm ~size:10 ~align:64 ~offset:0 in
  let b = Memmap.alloc mm ~size:10 ~align:64 ~offset:0 in
  check_bool "page gap between arrays" true (b.Memmap.base - (a.Memmap.base + a.Memmap.size) >= 4096)

let test_memmap_bad_args () =
  let mm = Memmap.create () in
  check_bool "bad align" true
    (try ignore (Memmap.alloc mm ~size:8 ~align:3 ~offset:0); false
     with Invalid_argument _ -> true);
  check_bool "offset out of range" true
    (try ignore (Memmap.alloc mm ~size:8 ~align:64 ~offset:64); false
     with Invalid_argument _ -> true)

let test_memmap_reset () =
  let mm = Memmap.create () in
  let a = Memmap.alloc mm ~size:64 ~align:64 ~offset:0 in
  Memmap.reset mm;
  let b = Memmap.alloc mm ~size:64 ~align:64 ~offset:0 in
  check_int "same base after reset" a.Memmap.base b.Memmap.base

let prop_memmap_honours_alignment =
  QCheck.Test.make ~count:200 ~name:"memmap: base mod align = offset"
    QCheck.(triple (int_range 1 100000) (int_range 0 11) (int_range 0 4095))
    (fun (size, align_log, off) ->
      let align = 1 lsl align_log in
      let offset = off mod align in
      let mm = Memmap.create () in
      let r = Memmap.alloc mm ~size ~align ~offset in
      r.Memmap.base mod align = offset)

(* ------------------------------------------------------------------ *)
(* Noise                                                               *)
(* ------------------------------------------------------------------ *)

let test_noise_deterministic () =
  let a = Noise.create ~seed:7 Noise.stable_env in
  let b = Noise.create ~seed:7 Noise.stable_env in
  let sa = List.init 10 (fun _ -> Noise.perturb a 1000.) in
  let sb = List.init 10 (fun _ -> Noise.perturb b 1000.) in
  check_bool "same seed, same sequence" true (sa = sb)

let test_noise_seed_matters () =
  let a = Noise.create ~seed:1 Noise.stable_env in
  let b = Noise.create ~seed:2 Noise.stable_env in
  let sa = List.init 10 (fun _ -> Noise.perturb a 1000.) in
  let sb = List.init 10 (fun _ -> Noise.perturb b 1000.) in
  check_bool "different sequences" true (sa <> sb)

let test_noise_only_adds () =
  let n = Noise.create ~seed:3 Noise.hostile_env in
  for _ = 1 to 100 do
    check_bool "never speeds up" true (Noise.perturb n 500. >= 500.)
  done

let test_noise_stability_hierarchy () =
  check_bool "stable env is quietest" true
    (Noise.relative_amplitude Noise.stable_env < Noise.relative_amplitude Noise.hostile_env);
  let unpinned = { Noise.stable_env with Noise.pinned = false } in
  check_bool "unpinning adds noise" true
    (Noise.relative_amplitude Noise.stable_env < Noise.relative_amplitude unpinned)

let test_traceview_collects_and_renders () =
  let view = Traceview.create ~limit:4 () in
  Alcotest.(check string) "empty" "(no trace events collected)\n" (Traceview.render view);
  let compiled =
    match
      Core.compile
        [
          Mt_isa.Insn.Insn (Mt_isa.Insn.make Mt_isa.Insn.NOP []);
          Mt_isa.Insn.Insn (Mt_isa.Insn.make Mt_isa.Insn.NOP []);
          Mt_isa.Insn.Insn (Mt_isa.Insn.make Mt_isa.Insn.RET []);
        ]
    with
    | Ok c -> c
    | Error e -> Alcotest.fail (Core.error_to_string e)
  in
  let memory = Memory.create x5650 in
  (match Core.run ~trace:(Traceview.hook view) x5650 memory compiled with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Core.error_to_string e));
  check_int "three events" 3 (Traceview.events view);
  let text = Traceview.render ~width:20 view in
  check_bool "has bars" true (String.contains text '#');
  Traceview.reset view;
  check_int "reset" 0 (Traceview.events view)

let test_traceview_limit () =
  let view = Traceview.create ~limit:2 () in
  let insn = Mt_isa.Insn.make Mt_isa.Insn.NOP [] in
  for k = 0 to 9 do
    Traceview.hook view k insn ~issue:(float_of_int k) ~completion:(float_of_int (k + 1))
  done;
  check_int "capped" 2 (Traceview.events view);
  check_int "dropped counted" 8 (Traceview.dropped view);
  let text = Traceview.render view in
  check_bool "footer reports the drop" true
    (Telemetry_tests.contains text "(8 later events dropped at limit 2)");
  Traceview.reset view;
  check_int "reset clears dropped" 0 (Traceview.dropped view);
  (* A run under the limit renders without the footer. *)
  Traceview.hook view 0 insn ~issue:0. ~completion:1.;
  check_bool "no footer under the limit" false
    (Telemetry_tests.contains (Traceview.render view) "dropped")

let test_noise_amplitude_bound () =
  let n = Noise.create ~seed:5 Noise.stable_env in
  let amp = Noise.relative_amplitude Noise.stable_env in
  for _ = 1 to 200 do
    check_bool "within amplitude" true (Noise.perturb n 1000. <= 1000. *. (1. +. amp))
  done

let tests =
  [
    Alcotest.test_case "presets validate" `Quick test_presets_valid;
    Alcotest.test_case "core counts" `Quick test_core_counts;
    Alcotest.test_case "frequency conversions" `Quick test_frequency_conversions;
    Alcotest.test_case "ram share monotone, knee near 6" `Quick test_ram_share_monotone;
    Alcotest.test_case "validate catches bad configs" `Quick test_validate_catches;
    Alcotest.test_case "find preset" `Quick test_find_preset;
    Alcotest.test_case "cache miss then hit" `Quick test_cache_miss_then_hit;
    Alcotest.test_case "cache LRU eviction" `Quick test_cache_lru_eviction;
    Alcotest.test_case "cache LRU promotion" `Quick test_cache_lru_promotion;
    Alcotest.test_case "cache probe is pure" `Quick test_cache_probe_no_update;
    Alcotest.test_case "cache reset" `Quick test_cache_reset;
    Alcotest.test_case "cache line_of_addr" `Quick test_cache_line_of_addr;
    Alcotest.test_case "cache with non-pow2 sets" `Quick test_cache_non_pow2_sets;
    QCheck_alcotest.to_alcotest prop_cache_working_set_fits;
    Alcotest.test_case "memory L1 hit latency" `Quick test_memory_l1_hit_latency;
    Alcotest.test_case "memory cold miss is RAM" `Quick test_memory_cold_miss_is_ram;
    Alcotest.test_case "memory split access" `Quick test_memory_split_access;
    Alcotest.test_case "memory stream prefetch" `Quick test_memory_stream_prefetch_hides_latency;
    Alcotest.test_case "memory large stride not prefetched" `Quick test_memory_large_stride_not_prefetched;
    Alcotest.test_case "memory TLB walks" `Quick test_memory_tlb_walks;
    Alcotest.test_case "memory TLB capacity" `Quick test_memory_tlb_capacity;
    Alcotest.test_case "memory ram share vs sharers" `Quick test_memory_ram_share_depends_on_sharers;
    Alcotest.test_case "memory L3 partitioned by sharers" `Quick test_memory_l3_partitioned_by_sharers;
    Alcotest.test_case "memory drain keeps cache" `Quick test_memory_drain_keeps_cache;
    Alcotest.test_case "memory reset clears cache" `Quick test_memory_reset_clears_cache;
    Alcotest.test_case "exec mov/add/sub" `Quick test_exec_mov_add_sub;
    Alcotest.test_case "exec reg-to-reg move" `Quick test_exec_reg_to_reg;
    Alcotest.test_case "exec lea" `Quick test_exec_lea;
    Alcotest.test_case "exec inc/dec/neg" `Quick test_exec_inc_dec_neg;
    Alcotest.test_case "exec bitops" `Quick test_exec_bitops;
    Alcotest.test_case "exec flags and branches" `Quick test_exec_flags_and_branches;
    Alcotest.test_case "exec cmp direction" `Quick test_exec_cmp_direction;
    Alcotest.test_case "exec address_of" `Quick test_exec_address_of;
    Alcotest.test_case "exec rejects logical registers" `Quick test_exec_logical_rejected;
    Alcotest.test_case "exec ignores xmm values" `Quick test_exec_xmm_ignored;
    Alcotest.test_case "memmap alignment and offset" `Quick test_memmap_alignment_and_offset;
    Alcotest.test_case "memmap no overlap" `Quick test_memmap_no_overlap;
    Alcotest.test_case "memmap guard gap" `Quick test_memmap_guard_gap;
    Alcotest.test_case "memmap bad arguments" `Quick test_memmap_bad_args;
    Alcotest.test_case "memmap reset" `Quick test_memmap_reset;
    QCheck_alcotest.to_alcotest prop_memmap_honours_alignment;
    Alcotest.test_case "noise deterministic" `Quick test_noise_deterministic;
    Alcotest.test_case "noise seed matters" `Quick test_noise_seed_matters;
    Alcotest.test_case "noise only adds time" `Quick test_noise_only_adds;
    Alcotest.test_case "noise stability hierarchy" `Quick test_noise_stability_hierarchy;
    Alcotest.test_case "noise amplitude bound" `Quick test_noise_amplitude_bound;
    Alcotest.test_case "traceview collects and renders" `Quick test_traceview_collects_and_renders;
    Alcotest.test_case "traceview limit" `Quick test_traceview_limit;
  ]

(* Tests for the Domain pool and the result cache: ordering, exception
   propagation, parallel == sequential determinism, and "a second run
   re-simulates nothing". *)

open Mt_machine
open Mt_launcher

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let test_pool_order () =
  let items = Array.init 103 (fun i -> i) in
  let doubled = Mt_parallel.Pool.map ~domains:4 (fun i -> 2 * i) items in
  Array.iteri (fun i v -> check_int "slot" (2 * i) v) doubled

let test_pool_degenerate () =
  check_bool "empty input" true
    (Mt_parallel.Pool.map ~domains:4 (fun i -> i) [||] = [||]);
  (* More domains than items is clamped, not an error. *)
  check_bool "one item, many domains" true
    (Mt_parallel.Pool.map ~domains:16 string_of_int [| 7 |] = [| "7" |]);
  check_bool "lists too" true
    (Mt_parallel.Pool.map_list ~domains:3 succ [ 1; 2; 3 ] = [ 2; 3; 4 ])

let test_pool_exception () =
  match
    Mt_parallel.Pool.map ~domains:4
      (fun i -> if i = 5 then failwith "boom" else i)
      (Array.init 16 (fun i -> i))
  with
  | _ -> Alcotest.fail "expected the worker's exception to re-raise"
  | exception Failure msg -> check_string "message survives" "boom" msg

exception Custom of int

let test_pool_single_failure_preserves_exception () =
  (* A single failing shard re-raises the original exception — type and
     payload intact, backtrace carried over via raise_with_backtrace. *)
  Printexc.record_backtrace true;
  match
    Mt_parallel.Pool.map ~domains:4
      (fun i -> if i = 2 then raise (Custom 17) else i)
      (Array.init 16 (fun i -> i))
  with
  | _ -> Alcotest.fail "expected Custom to re-raise"
  | exception Custom n -> check_int "payload survives" 17 n

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let test_pool_multi_failure_reports_count () =
  (* Items 0 and 1 live on shards 0 and 1: two shards fail, and the
     raised Failure says so instead of silently surfacing only one. *)
  match
    Mt_parallel.Pool.map ~domains:4
      (fun i -> if i < 2 then failwith (Printf.sprintf "boom-%d" i) else i)
      (Array.init 16 (fun i -> i))
  with
  | _ -> Alcotest.fail "expected a Failure naming the shard count"
  | exception Failure msg ->
    check_bool "counts the failed shards" true (contains msg "2 of 4 shards failed");
    check_bool "carries the first exception" true (contains msg "boom-0")

let test_try_map_siblings_survive () =
  (* One exploding item must not take down the results of the other
     items on its shard, nor any other shard. *)
  let results =
    Mt_parallel.Pool.try_map ~domains:4
      (fun i -> if i = 5 then failwith "boom" else 2 * i)
      (Array.init 16 (fun i -> i))
  in
  Array.iteri
    (fun i r ->
      match r with
      | Ok v -> check_int "sibling result" (2 * i) v
      | Error (e, _) ->
        check_int "only item 5 fails" 5 i;
        check_bool "original exception" true (e = Failure "boom"))
    results

let test_try_map_all_fail () =
  let results =
    Mt_parallel.Pool.try_map_list ~domains:2
      (fun _ -> failwith "everything is on fire")
      [ 1; 2; 3 ]
  in
  check_int "every item reports" 3 (List.length results);
  check_bool "all errors" true
    (List.for_all (function Error _ -> true | Ok _ -> false) results)

(* ------------------------------------------------------------------ *)
(* Cache primitive                                                     *)
(* ------------------------------------------------------------------ *)

let temp_dir () =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mt-cache-test-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir d 0o700;
  d

let test_cache_memory () =
  let c = Mt_parallel.Cache.create () in
  let key = Mt_parallel.Cache.digest_key [ "a"; "b" ] in
  check_bool "miss first" true (Mt_parallel.Cache.find c key = None);
  Mt_parallel.Cache.store c key "payload";
  check_bool "hit after store" true
    (Mt_parallel.Cache.find c key = Some "payload");
  check_int "hits" 1 (Mt_parallel.Cache.hits c);
  check_int "misses" 1 (Mt_parallel.Cache.misses c)

let test_cache_key_injective () =
  (* ["ab"; "c"] and ["a"; "bc"] must not collide: components are
     length-prefixed before digesting. *)
  check_bool "length-prefixed" true
    (Mt_parallel.Cache.digest_key [ "ab"; "c" ]
    <> Mt_parallel.Cache.digest_key [ "a"; "bc" ])

let test_cache_disk_persistence () =
  let dir = temp_dir () in
  let key = Mt_parallel.Cache.digest_key [ "persist" ] in
  let c1 = Mt_parallel.Cache.create ~dir () in
  Mt_parallel.Cache.store c1 key "42";
  (* A brand-new handle over the same directory sees the entry. *)
  let c2 = Mt_parallel.Cache.create ~dir () in
  check_bool "disk hit" true (Mt_parallel.Cache.find c2 key = Some "42");
  check_int "counted as hit" 1 (Mt_parallel.Cache.hits c2)

let test_cache_store_tmp_collision () =
  let dir = temp_dir () in
  let key = Mt_parallel.Cache.digest_key [ "collide" ] in
  let path = Filename.concat dir (key ^ ".bin") in
  (* Pre-plant the first temp name this process would pick (a stale
     file left by a crashed twin whose pid got recycled): O_EXCL must
     skip to the next suffix, never truncate into the planted file. *)
  let planted =
    Printf.sprintf "%s.%d.%d.0.tmp" path (Unix.getpid ())
      (Domain.self () :> int)
  in
  let oc = open_out_bin planted in
  output_string oc "stale";
  close_out oc;
  let c = Mt_parallel.Cache.create ~dir () in
  Mt_parallel.Cache.store c key "fresh";
  let c2 = Mt_parallel.Cache.create ~dir () in
  check_bool "stored around the stale tmp" true
    (Mt_parallel.Cache.find c2 key = Some "fresh");
  check_string "planted file untouched" "stale"
    (In_channel.with_open_bin planted In_channel.input_all)

(* The writer half of the multi-process stress test.  OCaml 5 forbids
   Unix.fork once domains exist (the pool tests above spawn some), so
   the test re-execs its own binary with MT_CACHE_STRESS_WRITER set —
   test_microtools.ml dispatches here before Alcotest ever runs. *)
let stress_payload_size = 4096

let cache_stress_writer spec =
  match String.split_on_char '|' spec with
  | [ dir; key; ch; rounds ] when String.length ch = 1 ->
    let c = Mt_parallel.Cache.create ~dir () in
    let payload = String.make stress_payload_size ch.[0] in
    for _ = 1 to int_of_string rounds do
      Mt_parallel.Cache.store c key payload
    done;
    exit 0
  | _ ->
    prerr_endline ("bad MT_CACHE_STRESS_WRITER spec: " ^ spec);
    exit 2

let test_cache_multiprocess_stress () =
  (* N processes hammer the same key in one shared directory while this
     process keeps reading it cold: every observed value must be one
     writer's complete payload (single repeated byte), never an
     interleaving, and the final entry must decode cleanly. *)
  let dir = temp_dir () in
  let key = Mt_parallel.Cache.digest_key [ "shared" ] in
  let writers = 8 and rounds = 50 and size = stress_payload_size in
  let done_flag = Filename.concat dir "writers-done" in
  (* system() forks at the C level (exec immediately after), which is
     the one fork flavour still legal with live domains. *)
  let cmd =
    Printf.sprintf
      "{ for w in a b c d e f g h; do MT_CACHE_STRESS_WRITER=\"%s|%s|$w|%d\" \
       %s & done; wait; : > %s; } &"
      dir key rounds
      (Filename.quote Sys.executable_name)
      (Filename.quote done_flag)
  in
  check_int "writers launched" 0 (Sys.command cmd);
  ignore writers;
  let torn = ref 0 in
  let deadline = Unix.gettimeofday () +. 60. in
  while (not (Sys.file_exists done_flag)) && Unix.gettimeofday () < deadline do
    (* A fresh handle per read defeats the in-memory promotion — every
       lookup really goes to disk, concurrent with the writers. *)
    let c = Mt_parallel.Cache.create ~dir () in
    (match Mt_parallel.Cache.find c key with
    | None -> ()
    | Some data ->
      if
        String.length data <> size
        || String.exists (fun ch -> ch <> data.[0]) data
      then incr torn);
    ignore (Unix.sleepf 0.001)
  done;
  check_bool "writers finished in time" true (Sys.file_exists done_flag);
  check_int "no torn reads" 0 !torn;
  let c = Mt_parallel.Cache.create ~dir () in
  let v =
    Mt_parallel.Cache.with_cache (Some c)
      ~key:(fun () -> key)
      (fun () -> Alcotest.fail "entry must exist after the writers exit")
      ~encode:Fun.id
      ~decode:(fun data ->
        if String.exists (fun ch -> ch <> data.[0]) data then failwith "torn"
        else data)
  in
  check_int "decode failures" 0 (Mt_parallel.Cache.decode_failures c);
  check_int "payload intact" size (String.length v)

let test_cache_eviction_lru () =
  let dir = temp_dir () in
  let kb = 1024 in
  let c = Mt_parallel.Cache.create ~dir ~max_bytes:(3 * kb) () in
  let key i = Mt_parallel.Cache.digest_key [ "evict"; string_of_int i ] in
  let path k = Filename.concat dir (k ^ ".bin") in
  Mt_parallel.Cache.store c (key 1) (String.make kb 'x');
  Mt_parallel.Cache.store c (key 2) (String.make kb 'y');
  (* Age entries 1 and 2 explicitly so the LRU order is deterministic
     regardless of filesystem timestamp granularity. *)
  let now = Unix.gettimeofday () in
  Unix.utimes (path (key 1)) (now -. 200.) (now -. 200.);
  Unix.utimes (path (key 2)) (now -. 100.) (now -. 100.);
  Mt_parallel.Cache.store c (key 3) (String.make kb 'z');
  check_bool "under budget keeps everything" true
    (Sys.file_exists (path (key 1)));
  check_int "no evictions yet" 0 (Mt_parallel.Cache.evictions c);
  Mt_parallel.Cache.store c (key 4) (String.make kb 'w');
  check_bool "oldest entry evicted" false (Sys.file_exists (path (key 1)));
  check_bool "second-oldest survives" true (Sys.file_exists (path (key 2)));
  check_bool "newest survives" true (Sys.file_exists (path (key 4)));
  check_int "one eviction counted" 1 (Mt_parallel.Cache.evictions c);
  (* An entry larger than the whole budget still lands: the entry just
     written is exempt from its own eviction pass. *)
  let c2 = Mt_parallel.Cache.create ~dir ~max_bytes:kb () in
  Mt_parallel.Cache.store c2 (key 5) (String.make (2 * kb) 'v');
  check_bool "oversized store survives" true (Sys.file_exists (path (key 5)));
  check_bool "older entries trimmed" false (Sys.file_exists (path (key 2)))

(* ------------------------------------------------------------------ *)
(* Study integration: determinism and zero re-simulation               *)
(* ------------------------------------------------------------------ *)

let x5650 = Config.nehalem_x5650_2s

let quick_opts =
  {
    (Options.default x5650) with
    Options.array_bytes = 16 * 1024;
    repetitions = 1;
    experiments = 2;
  }

(* Sum of 2^u for u in 1..6 = 126 variants: comfortably past the
   64-variant floor the acceptance criterion asks for. *)
let big_spec =
  Mt_kernels.Streams.loadstore_spec ~opcode:Mt_isa.Insn.MOVSS ~stride:4
    ~unroll:(1, 6) ()

let run_config ?cache domains =
  { Microtools.Study.Run_config.default with Microtools.Study.Run_config.domains; cache }

let test_parallel_matches_sequential () =
  let study = Microtools.Study.create big_spec quick_opts in
  check_bool "enough variants" true
    (List.length (Microtools.Study.variants study) >= 64);
  let seq = Microtools.Study.run ~config:(run_config 1) study in
  let par = Microtools.Study.run ~config:(run_config 4) study in
  check_string "byte-identical CSV"
    (Mt_stats.Csv.to_string (Microtools.Study.csv seq))
    (Mt_stats.Csv.to_string (Microtools.Study.csv par))

let test_second_run_fully_cached () =
  let cache = Mt_parallel.Cache.create () in
  let study = Microtools.Study.create big_spec quick_opts in
  let n = List.length (Microtools.Study.variants study) in
  let config = run_config ~cache 2 in
  let first = Microtools.Study.run ~config study in
  check_int "cold run misses everything" n (Mt_parallel.Cache.misses cache);
  check_int "cold run hits nothing" 0 (Mt_parallel.Cache.hits cache);
  let second = Microtools.Study.run ~config study in
  (* Zero simulator invocations the second time: every lookup hits and
     the miss counter does not move. *)
  check_int "warm run all hits" n (Mt_parallel.Cache.hits cache);
  check_int "warm run no new misses" n (Mt_parallel.Cache.misses cache);
  check_string "replayed results identical"
    (Mt_stats.Csv.to_string (Microtools.Study.csv first))
    (Mt_stats.Csv.to_string (Microtools.Study.csv second))

let test_cache_key_sensitivity () =
  let study = Microtools.Study.create big_spec quick_opts in
  let v = List.hd (Microtools.Study.variants study) in
  let base = Microtools.Study.cache_key quick_opts v in
  (* Changing a measurement-relevant option changes the key... *)
  check_bool "array size matters" true
    (base
    <> Microtools.Study.cache_key
         { quick_opts with Options.array_bytes = 32 * 1024 }
         v);
  (* ...but output-only settings (where the CSV goes) do not. *)
  check_string "csv path is not part of the key" base
    (Microtools.Study.cache_key
       { quick_opts with Options.csv_path = Some "/tmp/elsewhere.csv" }
       v)

let tests =
  [
    Alcotest.test_case "pool preserves order" `Quick test_pool_order;
    Alcotest.test_case "pool degenerate inputs" `Quick test_pool_degenerate;
    Alcotest.test_case "pool re-raises worker exception" `Quick
      test_pool_exception;
    Alcotest.test_case "pool single failure keeps exception type" `Quick
      test_pool_single_failure_preserves_exception;
    Alcotest.test_case "pool multi failure reports shard count" `Quick
      test_pool_multi_failure_reports_count;
    Alcotest.test_case "try_map keeps sibling results" `Quick
      test_try_map_siblings_survive;
    Alcotest.test_case "try_map total failure still reports per item" `Quick
      test_try_map_all_fail;
    Alcotest.test_case "cache memory round-trip" `Quick test_cache_memory;
    Alcotest.test_case "cache key injective" `Quick test_cache_key_injective;
    Alcotest.test_case "cache disk persistence" `Quick
      test_cache_disk_persistence;
    Alcotest.test_case "cache tmp collision" `Quick
      test_cache_store_tmp_collision;
    Alcotest.test_case "cache multi-process stress" `Quick
      test_cache_multiprocess_stress;
    Alcotest.test_case "cache LRU eviction" `Quick test_cache_eviction_lru;
    Alcotest.test_case "parallel CSV == sequential CSV" `Slow
      test_parallel_matches_sequential;
    Alcotest.test_case "second run re-simulates nothing" `Slow
      test_second_run_fully_cached;
    Alcotest.test_case "cache key sensitivity" `Quick
      test_cache_key_sensitivity;
  ]

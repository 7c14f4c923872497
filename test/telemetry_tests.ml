(* Tests for mt_telemetry: counters, histograms, span nesting, the
   disabled no-op, counter atomicity under the Domain pool, and
   well-formed Chrome-trace JSON. *)

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let validate_json s =
  match Mt_stats.Json.of_string s with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "malformed JSON: %s" msg

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Counters and histograms                                             *)
(* ------------------------------------------------------------------ *)

let test_counters () =
  let t = Mt_telemetry.create () in
  Mt_telemetry.incr t "b.count";
  Mt_telemetry.add t "a.count" 41;
  Mt_telemetry.incr t "a.count";
  check_int "accumulated" 42 (Mt_telemetry.counter t "a.count");
  check_int "unknown name" 0 (Mt_telemetry.counter t "nope");
  check_bool "sorted by name" true
    (Mt_telemetry.counters t = [ ("a.count", 42); ("b.count", 1) ])

let test_histograms () =
  let t = Mt_telemetry.create () in
  List.iter (Mt_telemetry.observe t "lat") [ 4.; 1.; 7. ];
  match Mt_telemetry.histograms t with
  | [ ("lat", h) ] ->
    check_int "count" 3 h.Mt_telemetry.count;
    Alcotest.(check (float 1e-9)) "sum" 12. h.Mt_telemetry.sum;
    Alcotest.(check (float 1e-9)) "min" 1. h.Mt_telemetry.minimum;
    Alcotest.(check (float 1e-9)) "max" 7. h.Mt_telemetry.maximum
  | other -> Alcotest.fail (Printf.sprintf "%d histograms" (List.length other))

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  let t = Mt_telemetry.create () in
  let r =
    Mt_telemetry.span t "outer" (fun () ->
        Mt_telemetry.span t "inner" (fun () -> 7))
  in
  check_int "span returns the body's value" 7 r;
  match Mt_telemetry.events t with
  | [ inner; outer ] ->
    (* Completion order: the inner span finishes first. *)
    Alcotest.(check string) "inner name" "inner" inner.Mt_telemetry.name;
    Alcotest.(check string) "outer name" "outer" outer.Mt_telemetry.name;
    check_int "outer depth" 0 outer.Mt_telemetry.depth;
    check_int "inner depth" 1 inner.Mt_telemetry.depth;
    check_bool "inner starts after outer" true
      (inner.Mt_telemetry.start_us >= outer.Mt_telemetry.start_us);
    check_bool "inner ends before outer" true
      (inner.Mt_telemetry.start_us +. inner.Mt_telemetry.dur_us
      <= outer.Mt_telemetry.start_us +. outer.Mt_telemetry.dur_us)
  | other -> Alcotest.fail (Printf.sprintf "%d events" (List.length other))

let test_span_records_on_exception () =
  let t = Mt_telemetry.create () in
  (match Mt_telemetry.span t "doomed" (fun () -> failwith "boom") with
  | () -> Alcotest.fail "expected the exception to re-raise"
  | exception Failure msg -> Alcotest.(check string) "message" "boom" msg);
  check_int "span still recorded" 1 (List.length (Mt_telemetry.events t));
  (* the nesting depth unwinds even on the exception path *)
  Mt_telemetry.span t "after" (fun () -> ());
  match Mt_telemetry.events t with
  | [ _; after ] -> check_int "depth restored" 0 after.Mt_telemetry.depth
  | _ -> Alcotest.fail "expected two events"

(* ------------------------------------------------------------------ *)
(* Disabled handle: strictly a no-op                                   *)
(* ------------------------------------------------------------------ *)

let test_disabled_noop () =
  let t = Mt_telemetry.disabled in
  check_bool "not enabled" false (Mt_telemetry.enabled t);
  Mt_telemetry.incr t "x";
  Mt_telemetry.add t "x" 100;
  Mt_telemetry.observe t "h" 1.;
  check_int "counter stays 0" 0 (Mt_telemetry.counter t "x");
  check_int "span passes the value through" 9
    (Mt_telemetry.span t "s" (fun () -> 9));
  check_bool "no counters" true (Mt_telemetry.counters t = []);
  check_bool "no histograms" true (Mt_telemetry.histograms t = []);
  check_bool "no events" true (Mt_telemetry.events t = []);
  validate_json (Mt_telemetry.chrome_trace t);
  Alcotest.(check string) "empty metrics" "key,value\n" (Mt_telemetry.metrics_csv t)

(* What a daemon writing no trace file holds: every metric it serves,
   but no event list growing with each span. *)
let test_metrics_only_handle () =
  let t = Mt_telemetry.create ~events:false () in
  check_bool "enabled" true (Mt_telemetry.enabled t);
  for _ = 1 to 3 do
    Mt_telemetry.span t "job" (fun () -> ())
  done;
  Mt_telemetry.emit t "lane" ~start_us:0. ~dur_us:1.;
  Mt_telemetry.series t "cache.L1" [ ("hit", 1.) ];
  Mt_telemetry.incr t "jobs";
  check_int "counters kept" 1 (Mt_telemetry.counter t "jobs");
  (match List.assoc_opt "span.job.us" (Mt_telemetry.histograms t) with
  | Some h -> check_int "span histogram kept" 3 h.Mt_telemetry.count
  | None -> Alcotest.fail "no span histogram");
  check_bool "quantiles kept" true
    (Mt_telemetry.quantile t "span.job.us" 50. <> None);
  check_int "no events" 0 (List.length (Mt_telemetry.events t));
  check_int "no samples" 0 (List.length (Mt_telemetry.samples t))

let test_global_defaults_disabled () =
  check_bool "global starts disabled" false
    (Mt_telemetry.enabled (Mt_telemetry.global ()))

(* ------------------------------------------------------------------ *)
(* Domain-safety: concurrent increments under Pool.map                 *)
(* ------------------------------------------------------------------ *)

let test_counter_atomicity_under_pool () =
  let t = Mt_telemetry.create () in
  Mt_telemetry.set_global t;
  Fun.protect
    ~finally:(fun () -> Mt_telemetry.set_global Mt_telemetry.disabled)
    (fun () ->
      let items = Array.init 1000 Fun.id in
      ignore
        (Mt_parallel.Pool.map ~domains:4
           (fun _ -> Mt_telemetry.incr (Mt_telemetry.global ()) "test.hits")
           items);
      check_int "no lost increments" 1000 (Mt_telemetry.counter t "test.hits");
      (* the pool's own instrumentation agrees *)
      check_int "pool.items" 1000 (Mt_telemetry.counter t "pool.items");
      check_int "pool.shards" 4 (Mt_telemetry.counter t "pool.shards"))

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

let test_chrome_trace_is_valid_json () =
  let t = Mt_telemetry.create () in
  Mt_telemetry.span t "quote\"back\\slash\ttab"
    ~args:[ ("variant", "load\"store-u_8") ]
    (fun () -> Mt_telemetry.span t "inner" (fun () -> ()));
  let json = Mt_telemetry.chrome_trace t in
  validate_json json;
  check_bool "has traceEvents" true (contains json "\"traceEvents\"");
  check_bool "complete events" true (contains json "\"ph\":\"X\"");
  check_bool "escaped quote" true (contains json "quote\\\"back\\\\slash")

let test_metrics_csv_content () =
  let t = Mt_telemetry.create () in
  Mt_telemetry.add t "sim.variants" 510;
  Mt_telemetry.observe t "gen.us" 2.;
  Mt_telemetry.observe t "gen.us" 4.;
  let csv = Mt_telemetry.metrics_csv t in
  check_bool "header" true (contains csv "key,value\n");
  check_bool "counter row" true (contains csv "sim.variants,510\n");
  check_bool "histogram count" true (contains csv "gen.us.count,2\n");
  check_bool "histogram mean" true (contains csv "gen.us.mean,3\n")

(* The one-shot binaries' --metrics-out FILE.prom path: the handle's
   counters and histograms render as Prometheus text exposition, and
   the sample values parse back to exactly what the handle holds. *)
let test_metrics_prometheus_roundtrip () =
  let t = Mt_telemetry.create () in
  Mt_telemetry.add t "sim.variants" 510;
  Mt_telemetry.incr t "cache.hits";
  Mt_telemetry.observe t "gen.us" 2.;
  Mt_telemetry.observe t "gen.us" 4.;
  let text = Mt_telemetry.metrics_prometheus t in
  check_bool "counter type line" true
    (contains text "# TYPE sim_variants counter\n");
  check_bool "summary type line" true (contains text "# TYPE gen_us summary\n");
  (* Parse every non-comment line back into (name, value). *)
  let samples =
    List.filter_map
      (fun line ->
        if line = "" || String.length line >= 1 && line.[0] = '#' then None
        else
          match String.rindex_opt line ' ' with
          | None -> None
          | Some idx ->
            Some
              ( String.sub line 0 idx,
                float_of_string (String.sub line (idx + 1) (String.length line - idx - 1)) ))
      (String.split_on_char '\n' text)
  in
  let value name = List.assoc name samples in
  check_bool "counter value round-trips" true (value "sim_variants" = 510.);
  check_bool "second counter round-trips" true (value "cache_hits" = 1.);
  check_bool "summary sum round-trips" true (value "gen_us_sum" = 6.);
  check_bool "summary count round-trips" true (value "gen_us_count" = 2.);
  check_bool "median quantile present" true
    (List.mem_assoc "gen_us{quantile=\"0.5\"}" samples);
  (* The serve-protocol encoder is the same code: reshaping the same
     data through the generic entry point produces identical text. *)
  let generic =
    Mt_telemetry.prometheus_exposition
      ~summaries:[ ("gen.us", (2, 6., [ (0.5, value "gen_us{quantile=\"0.5\"}") ])) ]
      [ ("cache.hits", 1); ("sim.variants", 510) ]
  in
  check_bool "generic encoder emits the same sample lines" true
    (contains generic "sim_variants 510\n"
    && contains generic "gen_us_sum 6\n")

let test_metrics_csv_quotes_fields () =
  let t = Mt_telemetry.create () in
  Mt_telemetry.incr t "weird,name";
  Mt_telemetry.incr t "has\"quote";
  let csv = Mt_telemetry.metrics_csv t in
  (* RFC 4180: fields containing separators or quotes are quoted, with
     embedded quotes doubled — and the document parses back. *)
  check_bool "comma field quoted" true (contains csv "\"weird,name\",1\n");
  check_bool "quote field escaped" true (contains csv "\"has\"\"quote\",1\n");
  match Mt_stats.Csv.parse_string csv with
  | Ok rows ->
    check_bool "round-trips through the CSV parser" true
      (List.mem [ "weird,name"; "1" ] rows && List.mem [ "has\"quote"; "1" ] rows)
  | Error msg -> Alcotest.fail msg

let test_emit_and_series () =
  let t = Mt_telemetry.create () in
  Mt_telemetry.emit t "movss (%rsi), %xmm0"
    ~args:[ ("pc", "3") ]
    ~tid:1_000_000 ~start_us:10. ~dur_us:4.;
  Mt_telemetry.series ~ts_us:14. ~tid:1_000_000 t "cache.L1"
    [ ("hit", 1_234_567.); ("miss", 2.) ];
  (match Mt_telemetry.events t with
  | [ e ] ->
    Alcotest.(check string) "explicit name" "movss (%rsi), %xmm0" e.Mt_telemetry.name;
    check_int "explicit tid" 1_000_000 e.Mt_telemetry.tid;
    Alcotest.(check (float 1e-9)) "explicit start" 10. e.Mt_telemetry.start_us;
    Alcotest.(check (float 1e-9)) "explicit duration" 4. e.Mt_telemetry.dur_us
  | other -> Alcotest.fail (Printf.sprintf "%d events" (List.length other)));
  (match Mt_telemetry.samples t with
  | [ s ] ->
    Alcotest.(check string) "series name" "cache.L1" s.Mt_telemetry.series_name;
    Alcotest.(check (float 1e-9)) "series ts" 14. s.Mt_telemetry.ts_us;
    check_bool "values kept" true
      (s.Mt_telemetry.values = [ ("hit", 1_234_567.); ("miss", 2.) ])
  | other -> Alcotest.fail (Printf.sprintf "%d samples" (List.length other)));
  let json = Mt_telemetry.chrome_trace t in
  validate_json json;
  check_bool "counter event" true (contains json "\"ph\":\"C\"");
  (* Counter values print exactly, not rounded to 6 significant digits. *)
  check_bool "counter args exact" true (contains json "\"hit\":1234567,\"miss\":2");
  (* disabled handle drops both *)
  Mt_telemetry.emit Mt_telemetry.disabled "x" ~start_us:0. ~dur_us:1.;
  Mt_telemetry.series Mt_telemetry.disabled "s" [ ("v", 1.) ];
  check_bool "disabled records nothing" true
    (Mt_telemetry.samples Mt_telemetry.disabled = [])

let test_detail_levels () =
  check_int "off stride" 0 (Mt_telemetry.sample_stride Mt_telemetry.Off);
  check_int "sampled stride" 64 (Mt_telemetry.sample_stride Mt_telemetry.Sampled);
  check_int "full stride" 1 (Mt_telemetry.sample_stride Mt_telemetry.Full);
  check_bool "default is off" true (Mt_telemetry.detail () = Mt_telemetry.Off);
  List.iter
    (fun d ->
      match Mt_telemetry.detail_of_string (Mt_telemetry.detail_to_string d) with
      | Ok d' -> check_bool "name round-trips" true (d = d')
      | Error msg -> Alcotest.fail msg)
    [ Mt_telemetry.Off; Mt_telemetry.Sampled; Mt_telemetry.Full ];
  (match Mt_telemetry.detail_of_string "bogus" with
  | Ok _ -> Alcotest.fail "accepted bogus detail"
  | Error _ -> ());
  Mt_telemetry.set_detail Mt_telemetry.Sampled;
  Fun.protect
    ~finally:(fun () -> Mt_telemetry.set_detail Mt_telemetry.Off)
    (fun () ->
      check_bool "set_detail sticks" true
        (Mt_telemetry.detail () = Mt_telemetry.Sampled))

let test_timestamps_are_monotonic () =
  let t = Mt_telemetry.create () in
  Mt_telemetry.span t "a" (fun () -> ());
  Mt_telemetry.span t "b" (fun () -> ());
  match Mt_telemetry.events t with
  | [ a; b ] ->
    check_bool "non-negative since epoch" true (a.Mt_telemetry.start_us >= 0.);
    check_bool "second span not earlier" true
      (b.Mt_telemetry.start_us >= a.Mt_telemetry.start_us)
  | other -> Alcotest.fail (Printf.sprintf "%d events" (List.length other))

let tests =
  [
    Alcotest.test_case "counters accumulate" `Quick test_counters;
    Alcotest.test_case "histograms summarize" `Quick test_histograms;
    Alcotest.test_case "spans nest" `Quick test_span_nesting;
    Alcotest.test_case "span records on exception" `Quick
      test_span_records_on_exception;
    Alcotest.test_case "disabled handle is a no-op" `Quick test_disabled_noop;
    Alcotest.test_case "metrics-only handle keeps no events" `Quick
      test_metrics_only_handle;
    Alcotest.test_case "global defaults to disabled" `Quick
      test_global_defaults_disabled;
    Alcotest.test_case "counter atomicity under Pool.map" `Quick
      test_counter_atomicity_under_pool;
    Alcotest.test_case "chrome trace is valid JSON" `Quick
      test_chrome_trace_is_valid_json;
    Alcotest.test_case "metrics CSV content" `Quick test_metrics_csv_content;
    Alcotest.test_case "metrics CSV quotes fields" `Quick
      test_metrics_csv_quotes_fields;
    Alcotest.test_case "metrics Prometheus round trip" `Quick
      test_metrics_prometheus_roundtrip;
    Alcotest.test_case "emit and series record lanes" `Quick
      test_emit_and_series;
    Alcotest.test_case "detail levels" `Quick test_detail_levels;
    Alcotest.test_case "timestamps are monotonic" `Quick
      test_timestamps_are_monotonic;
  ]

(* Self-tests of the benchmark's own machinery: the tail-percentile
   rule, self-time conservation in the tracer, and the CSV checks
   catching an injected mismatch. *)

open Perfbench

let close = Alcotest.float 1e-9

let ramp n = List.init n (fun i -> float_of_int (i + 1))

let tail_rule () =
  let expect n pct value =
    let t = Stats.tail (ramp n) in
    Alcotest.(check close) (Printf.sprintf "pct at n=%d" n) pct t.Stats.pct;
    Alcotest.(check close) (Printf.sprintf "value at n=%d" n) value t.Stats.value;
    Alcotest.(check int) "sample count" n t.Stats.samples
  in
  expect 200 95. 190.;
  expect 100 90. 90.;
  expect 1000 95. 950.;
  (* Too few samples for any tail: the median, never below it. *)
  expect 20 50. 10.5;
  expect 5 50. 3.;
  for n = 1 to 400 do
    let xs = List.rev (ramp n) in
    let t = Stats.tail xs in
    let beyond = List.length (List.filter (fun x -> x > t.Stats.value) xs) in
    if t.Stats.pct > 50. then
      Alcotest.(check bool) (Printf.sprintf "n=%d keeps >= 10 beyond" n) true (beyond >= 10);
    Alcotest.(check bool) (Printf.sprintf "n=%d tail >= median" n) true
      (t.Stats.value >= Stats.median xs);
    Alcotest.(check bool) (Printf.sprintf "n=%d capped at p95" n) true (t.Stats.pct <= 95.)
  done

let conservation () =
  let now = ref 0. in
  let advance dt = now := !now +. dt in
  let tr = Tracer.create (fun () -> !now) in
  advance 1.;
  Tracer.span tr "a" (fun () ->
      advance 2.;
      Tracer.span tr "b" (fun () -> advance 3.);
      Tracer.untimed tr (fun () -> advance 100.);
      Tracer.span tr "c" (fun () ->
          advance 1.;
          Tracer.span tr "b" (fun () -> advance 0.5));
      advance 0.25);
  advance 4.;
  (try Tracer.span tr "d" (fun () -> advance 1.; failwith "boom") with Failure _ -> ());
  Alcotest.(check close) "a self" 2.25 (Tracer.self tr "a");
  Alcotest.(check close) "b self" 3.5 (Tracer.self tr "b");
  Alcotest.(check close) "c self" 1. (Tracer.self tr "c");
  Alcotest.(check close) "d closes on raise" 1. (Tracer.self tr "d");
  let total, unattributed = Tracer.totals tr in
  Alcotest.(check close) "unattributed" 5. unattributed;
  Alcotest.(check close) "total excludes untimed" 12.75 total;
  let sum = List.fold_left (fun acc (_, s) -> acc +. s) unattributed (Tracer.layers tr) in
  Alcotest.(check close) "layers + unattributed = total" total sum

let injected_mismatch () =
  let machine = Option.get (Mt_machine.Config.find_preset "nehalem_x5650_2s") in
  let opts = { (Mt_launcher.Options.default machine) with Mt_launcher.Options.array_bytes = 4096 } in
  let xml = In_channel.with_open_bin "../descriptions/movss_u8.xml" In_channel.input_all in
  let study = Result.get_ok (Microtools.Study.of_description xml opts) in
  let doc = Microtools.Study.csv (Microtools.Study.run study) in
  let text = Mt_stats.Csv.to_string doc in
  Alcotest.(check (option string)) "identical" None (Checks.csv_mismatch ~expected:text ~actual:text);
  let rows = Mt_stats.Csv.rows doc in
  let injected = Mt_stats.Csv.create ~header:(Mt_stats.Csv.header doc) in
  List.iteri
    (fun i row ->
      Mt_stats.Csv.add_row injected
        (if i = 0 then List.mapi (fun j cell -> if j = 3 then cell ^ "1" else cell) row else row))
    rows;
  (match Checks.csv_mismatch ~expected:text ~actual:(Mt_stats.Csv.to_string injected) with
  | Some msg -> Alcotest.(check bool) ("names the row: " ^ msg) true (String.starts_with ~prefix:"line 2:" msg)
  | None -> Alcotest.fail "injected mismatch not caught");
  (match Checks.csv_mismatch ~expected:text ~actual:(text ^ "extra\n") with
  | Some _ -> ()
  | None -> Alcotest.fail "appended row not caught");
  let table = [ (("study_cold", "movss_u8"), Checks.digest text) ] in
  Alcotest.(check bool) "committed digest matches" true
    (Result.is_ok (Checks.check_committed table ~workload:"study_cold" ~name:"movss_u8" text));
  Alcotest.(check bool) "injected digest mismatch" true
    (Result.is_error
       (Checks.check_committed table ~workload:"study_cold" ~name:"movss_u8"
          (Mt_stats.Csv.to_string injected)))

let () =
  Alcotest.run "perfbench"
    [
      ( "harness",
        [
          Alcotest.test_case "tail percentile rule" `Quick tail_rule;
          Alcotest.test_case "self-time conservation" `Quick conservation;
          Alcotest.test_case "injected CSV mismatch" `Quick injected_mismatch;
        ] );
    ]

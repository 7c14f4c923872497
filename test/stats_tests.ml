(* Tests for the statistics and CSV substrate. *)

module S = Mt_stats

let checkf = Alcotest.(check (float 1e-9))

let check_int = Alcotest.(check int)

let xs = [| 4.; 1.; 3.; 2. |]

let test_min_max () =
  checkf "min" 1. (S.min_of xs);
  checkf "max" 4. (S.max_of xs)

let test_mean () = checkf "mean" 2.5 (S.mean xs)

let test_median_even () = checkf "median even" 2.5 (S.median xs)

let test_median_odd () = checkf "median odd" 2. (S.median [| 5.; 1.; 2. |])

let test_median_single () = checkf "median single" 7. (S.median [| 7. |])

let test_stddev () =
  (* Sample stddev of 1,2,3,4 = sqrt(5/3). *)
  checkf "stddev" (sqrt (5. /. 3.)) (S.stddev xs)

let test_stddev_short () = checkf "stddev n=1" 0. (S.stddev [| 3. |])

let test_cv () =
  checkf "cv" (sqrt (5. /. 3.) /. 2.5) (S.coefficient_of_variation xs)

let test_cv_zero_mean () =
  checkf "cv zero mean" 0. (S.coefficient_of_variation [| 1.; -1. |])

let test_cv_negative_mean () =
  (* Dispersion has no sign: a negated series has exactly the CoV of
     the original, not its negation (which would flip the noise band in
     Mt_obsv.Diff and flag every comparison as a regression). *)
  let neg = Array.map (fun x -> -.x) xs in
  checkf "cv of negated series"
    (S.coefficient_of_variation xs)
    (S.coefficient_of_variation neg);
  Alcotest.(check bool)
    "cv non-negative" true
    (S.coefficient_of_variation neg >= 0.)

let test_pooled_cov_negative_mean () =
  let groups = [ (10, 5., 2.); (10, 7., 3.) ] in
  let negated = List.map (fun (n, m, s) -> (n, -.m, s)) groups in
  checkf "pooled cov sign-invariant" (S.pooled_cov groups)
    (S.pooled_cov negated);
  Alcotest.(check bool)
    "pooled cov non-negative" true
    (S.pooled_cov negated >= 0.)

let test_relative_spread_negative_min () =
  (* min = -4, max = -1: spread 3 relative to |min|. *)
  checkf "spread negative series" 0.75
    (S.relative_spread [| -4.; -1.; -3.; -2. |])

let test_pooled_stddev () =
  (* Equal groups with equal spread pool to that spread. *)
  checkf "equal groups" 5. (S.pooled_stddev [ (10, 5.); (10, 5.) ]);
  (* Weighted by degrees of freedom: sqrt((9*4^2 + 1*8^2)/10). *)
  checkf "dof weighting"
    (sqrt ((9. *. 16.) +. 64.) /. sqrt 10.)
    (S.pooled_stddev [ (10, 4.); (2, 8.) ]);
  checkf "no degrees of freedom" 0. (S.pooled_stddev [ (1, 3.); (1, 9.) ]);
  checkf "empty" 0. (S.pooled_stddev [])

let test_pooled_cov () =
  (* Two runs of the same noisy measurement: pooled spread over the
     grand mean. *)
  checkf "two runs" (5. /. 101.) (S.pooled_cov [ (10, 100., 5.); (10, 102., 5.) ]);
  checkf "zero variance" 0. (S.pooled_cov [ (10, 100., 0.); (10, 100., 0.) ]);
  checkf "zero grand mean" 0. (S.pooled_cov [ (4, 1., 1.); (4, -1., 1.) ]);
  checkf "empty" 0. (S.pooled_cov [])

let test_relative_spread () =
  checkf "spread" 3. (S.relative_spread xs);
  checkf "spread flat" 0. (S.relative_spread [| 2.; 2. |])

let test_percentile () =
  checkf "p0" 1. (S.percentile xs 0.);
  checkf "p100" 4. (S.percentile xs 100.);
  checkf "p50" 2.5 (S.percentile xs 50.)

let test_percentile_out_of_range () =
  Alcotest.check_raises "p>100"
    (Invalid_argument "Mt_stats.percentile: p out of [0,100]") (fun () ->
      ignore (S.percentile xs 101.))

let test_empty_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Mt_stats.summarize: empty array")
    (fun () -> ignore (S.summarize [||]))

let test_summary_consistency () =
  let s = S.summarize xs in
  check_int "count" 4 s.S.count;
  checkf "min" 1. s.S.minimum;
  checkf "max" 4. s.S.maximum;
  checkf "median" 2.5 s.S.median

let test_csv_render () =
  let doc = S.Csv.create ~header:[ "a"; "b" ] in
  S.Csv.add_row doc [ "1"; "x" ];
  S.Csv.add_floats doc [ 2.5; 3.0 ];
  Alcotest.(check string) "render" "a,b\n1,x\n2.5,3\n" (S.Csv.to_string doc)

let test_csv_quoting () =
  let doc = S.Csv.create ~header:[ "v" ] in
  S.Csv.add_row doc [ "has,comma" ];
  S.Csv.add_row doc [ "has\"quote" ];
  Alcotest.(check string) "quoting" "v\n\"has,comma\"\n\"has\"\"quote\"\n"
    (S.Csv.to_string doc)

let test_csv_width_mismatch () =
  let doc = S.Csv.create ~header:[ "a"; "b" ] in
  Alcotest.check_raises "width"
    (Invalid_argument "Mt_stats.Csv.add_row: row width 1, header width 2")
    (fun () -> S.Csv.add_row doc [ "only one" ])

let test_csv_row_count () =
  let doc = S.Csv.create ~header:[ "a" ] in
  check_int "empty" 0 (S.Csv.row_count doc);
  S.Csv.add_row doc [ "1" ];
  S.Csv.add_row doc [ "2" ];
  check_int "two" 2 (S.Csv.row_count doc)

let test_csv_bare_cr () =
  (* A \r not followed by \n terminates the record (old-Mac line
     endings, or a final \r with no newline after it) — it must never
     survive as cell data. *)
  Alcotest.(check (result (list (list string)) string))
    "CR-separated records"
    (Ok [ [ "a"; "b" ]; [ "c"; "d" ] ])
    (S.Csv.parse_string "a,b\rc,d");
  Alcotest.(check (result (list (list string)) string))
    "file-final CR"
    (Ok [ [ "a"; "b" ] ])
    (S.Csv.parse_string "a,b\r");
  Alcotest.(check (result (list (list string)) string))
    "mixed terminators"
    (Ok [ [ "a" ]; [ "b" ]; [ "c" ]; [ "d" ] ])
    (S.Csv.parse_string "a\rb\r\nc\nd\r");
  (* Inside quotes a CR is still data, exactly like \n. *)
  Alcotest.(check (result (list (list string)) string))
    "quoted CR is data"
    (Ok [ [ "a\rb" ] ])
    (S.Csv.parse_string "\"a\rb\"")

let test_csv_roundtrip () =
  (* Every RFC-4180 special case in one document: commas, quotes,
     embedded newlines (LF and CRLF), empty cells. *)
  let header = [ "name"; "note" ] in
  let rows =
    [
      [ "plain"; "ordinary" ];
      [ "comma,inside"; "a,b,c" ];
      [ "quote\"inside"; "she said \"hi\"" ];
      [ "newline\ninside"; "line1\r\nline2" ];
      [ ""; "" ];
    ]
  in
  let doc = S.Csv.create ~header in
  List.iter (S.Csv.add_row doc) rows;
  match S.Csv.of_string (S.Csv.to_string doc) with
  | Error msg -> Alcotest.fail msg
  | Ok parsed ->
    Alcotest.(check (list string)) "header" header (S.Csv.header parsed);
    Alcotest.(check (list (list string))) "rows" rows (S.Csv.rows parsed);
    (* And the re-render is byte-identical: quoting is canonical. *)
    Alcotest.(check string) "re-render" (S.Csv.to_string doc)
      (S.Csv.to_string parsed)

let test_csv_parse_errors () =
  (match S.Csv.parse_string "a,\"unterminated\n" with
  | Ok _ -> Alcotest.fail "unterminated quote accepted"
  | Error _ -> ());
  match S.Csv.of_string "a,b\nonly-one\n" with
  | Ok _ -> Alcotest.fail "ragged row accepted"
  | Error _ -> ()

let test_csv_save () =
  let doc = S.Csv.create ~header:[ "x" ] in
  S.Csv.add_row doc [ "42" ];
  let path = Filename.temp_file "mtcsv" ".csv" in
  S.Csv.save doc path;
  let ic = open_in path in
  let content = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "saved" "x\n42\n" content

let nonempty_floats =
  QCheck.(list_of_size Gen.(1 -- 40) (float_range (-1e6) 1e6))

let prop_min_le_median_le_max =
  QCheck.Test.make ~count:300 ~name:"min <= median <= max" nonempty_floats
    (fun l ->
      let a = Array.of_list l in
      let s = S.summarize a in
      s.S.minimum <= s.S.median && s.S.median <= s.S.maximum)

let prop_mean_bounded =
  QCheck.Test.make ~count:300 ~name:"mean within [min, max]" nonempty_floats
    (fun l ->
      let a = Array.of_list l in
      let s = S.summarize a in
      s.S.minimum -. 1e-9 <= s.S.mean && s.S.mean <= s.S.maximum +. 1e-9)

let prop_percentile_monotone =
  QCheck.Test.make ~count:200 ~name:"percentile is monotone in p"
    QCheck.(pair nonempty_floats (pair (float_range 0. 100.) (float_range 0. 100.)))
    (fun (l, (p1, p2)) ->
      let a = Array.of_list l in
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      S.percentile a lo <= S.percentile a hi +. 1e-9)

let prop_stddev_nonneg =
  QCheck.Test.make ~count:300 ~name:"stddev >= 0" nonempty_floats (fun l ->
      S.stddev (Array.of_list l) >= 0.)

(* The published SplitMix64 reference outputs for state 0: every seeded
   stream in the project (noise, bootstrap, random selection)
   draws from this one generator. *)
let test_splitmix_reference () =
  let rng = S.Splitmix.create 0L in
  List.iter
    (fun expected ->
      Alcotest.(check string) "next" (Printf.sprintf "%016Lx" expected)
        (Printf.sprintf "%016Lx" (S.Splitmix.next rng)))
    [ 0xe220a8397b1dcdafL; 0x6e789e6aa1b965f4L; 0x06c45d188009454fL ];
  let rng = S.Splitmix.create 0L in
  Alcotest.(check (float 0.)) "next_unit is the top 53 bits"
    (Int64.to_float (Int64.shift_right_logical 0xe220a8397b1dcdafL 11)
    /. 9007199254740992.)
    (S.Splitmix.next_unit rng)

let tests =
  [
    Alcotest.test_case "min/max" `Quick test_min_max;
    Alcotest.test_case "mean" `Quick test_mean;
    Alcotest.test_case "median even" `Quick test_median_even;
    Alcotest.test_case "median odd" `Quick test_median_odd;
    Alcotest.test_case "median single" `Quick test_median_single;
    Alcotest.test_case "stddev" `Quick test_stddev;
    Alcotest.test_case "stddev short" `Quick test_stddev_short;
    Alcotest.test_case "coefficient of variation" `Quick test_cv;
    Alcotest.test_case "cv zero mean" `Quick test_cv_zero_mean;
    Alcotest.test_case "cv negative mean" `Quick test_cv_negative_mean;
    Alcotest.test_case "pooled cov negative mean" `Quick
      test_pooled_cov_negative_mean;
    Alcotest.test_case "relative spread negative min" `Quick
      test_relative_spread_negative_min;
    Alcotest.test_case "pooled stddev" `Quick test_pooled_stddev;
    Alcotest.test_case "pooled cov" `Quick test_pooled_cov;
    Alcotest.test_case "relative spread" `Quick test_relative_spread;
    Alcotest.test_case "percentile" `Quick test_percentile;
    Alcotest.test_case "percentile bounds" `Quick test_percentile_out_of_range;
    Alcotest.test_case "empty rejected" `Quick test_empty_rejected;
    Alcotest.test_case "summary consistency" `Quick test_summary_consistency;
    Alcotest.test_case "csv render" `Quick test_csv_render;
    Alcotest.test_case "csv quoting" `Quick test_csv_quoting;
    Alcotest.test_case "csv width mismatch" `Quick test_csv_width_mismatch;
    Alcotest.test_case "csv row count" `Quick test_csv_row_count;
    Alcotest.test_case "csv bare CR" `Quick test_csv_bare_cr;
    Alcotest.test_case "csv round-trip" `Quick test_csv_roundtrip;
    Alcotest.test_case "csv parse errors" `Quick test_csv_parse_errors;
    Alcotest.test_case "csv save" `Quick test_csv_save;
    Alcotest.test_case "splitmix reference sequence" `Quick
      test_splitmix_reference;
    QCheck_alcotest.to_alcotest prop_min_le_median_le_max;
    QCheck_alcotest.to_alcotest prop_mean_bounded;
    QCheck_alcotest.to_alcotest prop_percentile_monotone;
    QCheck_alcotest.to_alcotest prop_stddev_nonneg;
  ]

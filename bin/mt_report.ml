(* Compare run snapshots with a CoV noise gate — the CI regression
   check:

     mt_report baseline.json current.json
     mt_report --threshold 4 --json report.json old.json new.json
     mt_report --history runs/                 # classify the archive
     mt_report --history runs/ current.json    # gate vs windowed baseline

   A run trimmed with --experiments 2 --adaptive-experiments still
   measures every variant, so it gates like any other run.

   Two-file mode diffs exactly two snapshots.  With --history the
   baseline side comes from a snapshot archive (written by
   --history-append / mt_serve --history-dir): alone, the archive's
   newest lineage is trend-classified per variant (sparkline, drift,
   changepoint); with a CURRENT snapshot, it is gated against the
   median of the last K stationary-regime archived runs instead of a
   single baseline file — so one lucky or unlucky baseline run cannot
   flip the gate.

   Exit 0 when every matched variant's median delta sits inside the
   pooled noise band (and no timeline worsened), 1 when a regression or
   worsening trend escapes it, 3 when the medians held but a variant's
   measurement-quality verdict regressed (e.g. stable -> unstable). *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Timeline analysis (--history without CURRENT)                       *)
(* ------------------------------------------------------------------ *)

let trend_row hist entries key =
  let points = Mt_obsv.History.series ~entries hist ~variant:key in
  let medians =
    Array.of_list
      (List.map (fun (_, v) -> v.Mt_obsv.Snapshot.median) points)
  in
  (key, points, medians, Mt_obsv.History.trend points)

(* A timeline "fails" when the latest regime is worse than the previous
   one: a step regression, or an upward drift that escaped the band.
   Step improvements and downward drift are good news, not gate
   failures. *)
let trend_worsened (tr : Mt_stats.Trend.result) =
  match tr.Mt_stats.Trend.classification with
  | Mt_stats.Trend.Step_regression -> true
  | Mt_stats.Trend.Drifting -> tr.Mt_stats.Trend.drift > 0.
  | Mt_stats.Trend.Stationary | Mt_stats.Trend.Step_improvement -> false

let render_timeline hist entries rows =
  let buf = Buffer.create 1024 in
  (match entries with
  | [] -> ()
  | e :: _ ->
    Buffer.add_string buf
      (Printf.sprintf
         "history: %s — %d comparable runs of %s on %s (%d archived)\n\n"
         (Mt_obsv.History.dir hist) (List.length entries)
         e.Mt_obsv.History.kernel_name e.Mt_obsv.History.machine_name
         (Mt_obsv.History.length hist)));
  let key_w =
    List.fold_left (fun acc (k, _, _, _) -> max acc (String.length k)) 7 rows
  in
  Buffer.add_string buf
    (Printf.sprintf "  %-*s  %-16s %9s %9s  %s\n" key_w "variant"
       "classification" "shift" "drift" "timeline");
  List.iter
    (fun (key, points, medians, (tr : Mt_stats.Trend.result)) ->
      let mark =
        match tr.Mt_stats.Trend.classification with
        | Mt_stats.Trend.Step_regression -> " <-- regression"
        | Mt_stats.Trend.Drifting when tr.Mt_stats.Trend.drift > 0. ->
          " <-- worsening"
        | _ -> ""
      in
      let changepoint =
        match tr.Mt_stats.Trend.changepoint with
        | Some k -> (
          match List.nth_opt points k with
          | Some (e, _) ->
            Printf.sprintf " (step at %s)" e.Mt_obsv.History.label
          | None -> "")
        | None -> ""
      in
      Buffer.add_string buf
        (Printf.sprintf "  %-*s  %-16s %+8.1f%% %+8.1f%%  %s%s%s\n" key_w key
           (Mt_stats.Trend.classification_to_string
              tr.Mt_stats.Trend.classification)
           (100. *. tr.Mt_stats.Trend.shift)
           (100. *. tr.Mt_stats.Trend.drift)
           (Microtools.Ascii_plot.sparkline medians)
           changepoint mark))
    rows;
  Buffer.contents buf

let timeline_json rows =
  Mt_obsv.Json.List
    (List.map
       (fun (key, _, medians, (tr : Mt_stats.Trend.result)) ->
         Mt_obsv.Json.Obj
           [
             ("key", Mt_obsv.Json.Str key);
             ( "classification",
               Mt_obsv.Json.Str
                 (Mt_stats.Trend.classification_to_string
                    tr.Mt_stats.Trend.classification) );
             ( "changepoint",
               match tr.Mt_stats.Trend.changepoint with
               | Some k -> Mt_obsv.Json.Num (float_of_int k)
               | None -> Mt_obsv.Json.Null );
             ("shift", Mt_obsv.Json.Num tr.Mt_stats.Trend.shift);
             ("drift", Mt_obsv.Json.Num tr.Mt_stats.Trend.drift);
             ("band", Mt_obsv.Json.Num tr.Mt_stats.Trend.band);
             ( "medians",
               Mt_obsv.Json.List
                 (List.map (fun m -> Mt_obsv.Json.Num m) (Array.to_list medians))
             );
           ])
       rows)

let write_json path json =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Mt_obsv.Json.to_string ~indent:true json))

(* Comparable lineage = the archive filtered to the newest entry's
   kernel and machine hashes (or, when gating a CURRENT snapshot, to
   that snapshot's hashes). *)
let lineage hist ~kernel_hash ~machine_hash =
  Mt_obsv.History.matching ~kernel_hash ~machine_hash hist

let run_timeline dir threshold min_band json_out quiet =
  match Mt_obsv.History.load dir with
  | Error msg ->
    Printf.eprintf "mt_report: %s\n" msg;
    2
  | Ok hist -> (
    match Mt_obsv.History.latest hist with
    | None ->
      Printf.eprintf "mt_report: %s: empty history archive\n" dir;
      2
    | Some newest ->
      let entries =
        lineage hist ~kernel_hash:newest.Mt_obsv.History.kernel_hash
          ~machine_hash:newest.Mt_obsv.History.machine_hash
      in
      let rows =
        List.map
          (fun key -> trend_row hist entries key)
          (Mt_obsv.History.keys ~entries hist)
      in
      let rows =
        List.map
          (fun (key, points, medians, _) ->
            ( key,
              points,
              medians,
              Mt_obsv.History.trend ~threshold ~min_band points ))
          rows
      in
      if not quiet then print_string (render_timeline hist entries rows);
      Option.iter (fun path -> write_json path (timeline_json rows)) json_out;
      if List.exists (fun (_, _, _, tr) -> trend_worsened tr) rows then 1
      else 0)

let run_gate dir window current threshold min_band json_out quiet =
  match (Mt_obsv.History.load dir, Mt_obsv.Snapshot.load current) with
  | Error msg, _ | _, Error msg ->
    Printf.eprintf "mt_report: %s\n" msg;
    2
  | Ok hist, Ok cur -> (
    let entries =
      lineage hist ~kernel_hash:cur.Mt_obsv.Snapshot.kernel_hash
        ~machine_hash:cur.Mt_obsv.Snapshot.machine_hash
    in
    if entries = [] then begin
      Printf.eprintf
        "mt_report: %s: no archived runs match %s on %s (archive has %d \
         runs of other lineages)\n"
        dir cur.Mt_obsv.Snapshot.kernel_name cur.Mt_obsv.Snapshot.machine_name
        (Mt_obsv.History.length hist);
      2
    end
    else
      match Mt_obsv.History.baseline ~window ~threshold ~min_band hist entries with
      | Error msg ->
        Printf.eprintf "mt_report: %s\n" msg;
        2
      | Ok base ->
        let diff =
          Mt_obsv.Diff.compare ~threshold ~min_band ~baseline:base cur
        in
        if not quiet then begin
          Printf.printf
            "baseline: median of last %d stationary-regime runs (%d archived \
             in %s)\n\n"
            (min window (List.length entries))
            (List.length entries) dir;
          print_string (Mt_obsv.Diff.render diff);
          (* The longitudinal view alongside the verdict: each gated
             variant's archived medians plus the incoming run. *)
          let rows =
            List.map
              (fun key ->
                let _, points, medians, tr =
                  trend_row hist entries key
                in
                let with_cur =
                  match
                    List.find_opt
                      (fun (v : Mt_obsv.Snapshot.variant_stat) ->
                        v.Mt_obsv.Snapshot.key = key)
                      cur.Mt_obsv.Snapshot.variants
                  with
                  | Some v ->
                    Array.append medians [| v.Mt_obsv.Snapshot.median |]
                  | None -> medians
                in
                (key, points, with_cur, tr))
              (Mt_obsv.History.keys ~entries hist)
          in
          print_newline ();
          print_string (render_timeline hist entries rows)
        end;
        Option.iter
          (fun path -> write_json path (Mt_obsv.Diff.to_json diff))
          json_out;
        if Mt_obsv.Diff.has_regressions diff then 1
        else if Mt_obsv.Diff.has_quality_regressions diff then 3
        else 0)

(* ------------------------------------------------------------------ *)
(* Entry                                                               *)
(* ------------------------------------------------------------------ *)

let run history window first second threshold min_band json_out quiet =
  match (history, first, second) with
  | None, Some baseline, Some current -> (
    match (Mt_obsv.Snapshot.load baseline, Mt_obsv.Snapshot.load current) with
    | Error msg, _ | _, Error msg ->
      Printf.eprintf "mt_report: %s\n" msg;
      2
    | Ok base, Ok cur ->
      let diff =
        Mt_obsv.Diff.compare ~threshold ~min_band ~baseline:base cur
      in
      if not quiet then print_string (Mt_obsv.Diff.render diff);
      Option.iter
        (fun path -> write_json path (Mt_obsv.Diff.to_json diff))
        json_out;
      (* Perf regressions dominate the exit code; a quality-only failure
         gets its own value so CI can distinguish "the code got slower"
         from "the measurement got untrustworthy". *)
      if Mt_obsv.Diff.has_regressions diff then 1
      else if Mt_obsv.Diff.has_quality_regressions diff then 3
      else 0
    )
  | None, _, _ ->
    Printf.eprintf
      "mt_report: need BASELINE and CURRENT snapshots (or --history DIR)\n";
    2
  | Some dir, None, None ->
    run_timeline dir threshold min_band json_out quiet
  | Some dir, Some current, None ->
    run_gate dir window current threshold min_band json_out quiet
  | Some _, _, Some _ ->
    Printf.eprintf
      "mt_report: --history takes at most one snapshot (the current run)\n";
    2

(* Plain strings, not Arg.file: a missing file must be our documented
   exit 2, not cmdliner's usage error.  Both positionals are optional at
   the parser level so the --history modes can omit them; the mode
   dispatch above enforces the real arity. *)
let first_arg =
  Arg.(value & pos 0 (some string) None
       & info [] ~docv:"BASELINE"
           ~doc:"Baseline snapshot (JSON).  With $(b,--history), this is \
                 the $(i,current) snapshot gated against the archive.")

let second_arg =
  Arg.(value & pos 1 (some string) None
       & info [] ~docv:"CURRENT" ~doc:"Current snapshot (JSON).")

let history_arg =
  Arg.(value & opt (some string) None
       & info [ "history" ] ~docv:"DIR"
           ~doc:"Snapshot archive written by $(b,--history-append) or \
                 mt_serve $(b,--history-dir).  Alone: classify each \
                 variant's timeline (stationary / drifting / step).  With \
                 a snapshot argument: gate it against the median of the \
                 last $(b,--history-window) stationary-regime runs.")

let window_arg =
  Arg.(value & opt int Mt_obsv.History.default_window
       & info [ "history-window" ] ~docv:"K"
           ~doc:"Archived runs per windowed baseline.")

let threshold_arg =
  Arg.(value & opt float Mt_obsv.Diff.default_threshold
       & info [ "threshold" ] ~docv:"K"
           ~doc:"Noise-gate multiplier: a median delta must exceed $(docv) \
                 times the pooled coefficient of variation of the two runs \
                 to be flagged.")

let min_band_arg =
  Arg.(value & opt float Mt_obsv.Diff.default_min_band
       & info [ "min-band" ] ~docv:"FRAC"
           ~doc:"Floor under the noise band as a fraction of the baseline \
                 median (the simulator can measure with zero variance).")

let json_arg =
  Arg.(value & opt (some string) None
       & info [ "json" ] ~docv:"FILE"
           ~doc:"Also write the full comparison as machine-readable JSON.")

let quiet_arg =
  Arg.(value & flag
       & info [ "quiet"; "q" ] ~doc:"Suppress the table; exit code only.")

let cmd =
  let doc = "compare run snapshots and flag perf and quality regressions" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Loads two snapshots written by mt_study/mt_experiments/bench \
         $(b,--snapshot-out), matches variants by key, and judges each \
         median delta against a noise band pooled from both runs' own \
         variance.  Deltas inside the band are reported as unchanged, so a \
         CI gate built on the exit code does not flap on measurement noise. \
         Each variant's measurement-quality verdict (stable/noisy/unstable, \
         snapshot schema 2+) is compared independently: a verdict that \
         worsened is a quality regression with its own note and exit code, \
         even when the median held.  Variants quarantined by the resilience \
         supervisor (schema 3) are called out in the notes so their missing \
         stats are not mistaken for deleted variants.";
      `P
        "With $(b,--history), the baseline side is a longitudinal snapshot \
         archive instead of a single file.  The archive is filtered to the \
         comparable lineage (same kernel and machine content hashes as the \
         newest entry, or as the snapshot being gated), each variant's \
         median timeline is classified by a noise-gated changepoint \
         detector, and gating uses the median of the last K \
         stationary-regime runs — so one lucky baseline run cannot flip \
         the gate, and a step that already landed does not poison it.";
      `S Manpage.s_exit_status;
      `P "0 on no regressions, 1 when a median regression (or, with \
          $(b,--history), a step regression or worsening drift) escapes \
          the noise band, 2 on unreadable snapshots or an unusable \
          archive, 3 when only measurement quality regressed (verdict \
          worsened, medians inside the band).";
    ]
  in
  Cmd.v (Cmd.info "mt_report" ~doc ~man)
    Term.(
      const run $ history_arg $ window_arg $ first_arg $ second_arg
      $ threshold_arg $ min_band_arg $ json_arg $ quiet_arg)

let () = exit (Cmd.eval' cmd)

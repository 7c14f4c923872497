(* The whole MicroTools workflow as one command (Section 2's tuning
   loop): an XML kernel description in, every generated variant
   measured, the ranking and the winner out.

     mt_study descriptions/loadstore.xml --array-kb 32 --per element

   Run-shaping flags (--jobs, --cache-dir, --timeout, --inject-fault,
   --journal/--resume, --trace-out, ...) are the shared Mt_cli set.

   Exit codes, the same locally and with --submit: 0 success, 1 nothing
   succeeded, 2 bad machine, 4 partial success (some variants
   succeeded, some were quarantined). *)

open Cmdliner
open Mt_launcher

let read_file path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  text

(* Client mode: the same flags, round-tripped into an mt_serve
   submission.  The daemon streams back the header and per-variant CSV
   rows; rebuilding the document with the same Mt_stats.Csv renderer
   makes --csv output byte-identical to a local run's. *)
let submit_run ~socket input machine machine_file array_kb per repetitions
    experiments csv config =
  let machine =
    match machine_file with
    | Some path -> Mt_serve.Protocol.Inline_xml (read_file path)
    | None -> Mt_serve.Protocol.Preset machine
  in
  let submission =
    {
      Mt_serve.Protocol.kernel_xml = read_file input;
      machine;
      array_kb;
      per;
      repetitions;
      experiments;
      run = Mt_serve.Protocol.run_options_of_config config;
    }
  in
  let on_response = function
    | Mt_serve.Protocol.Accepted { job; queue_depth } ->
      Printf.printf "submitted to %s: job %d (queue depth %d)\n%!" socket job
        queue_depth
    | _ -> ()
  in
  match Mt_serve.Client.submit ~socket ~on_response submission with
  | Error msg ->
    Printf.eprintf "mt_study: submit: %s\n" msg;
    1
  | Ok summary ->
    (match (csv, summary.Mt_serve.Client.csv) with
    | Some path, Some doc ->
      Mt_stats.Csv.save doc path;
      Printf.printf "full results written to %s\n" path
    | Some _, None ->
      Printf.eprintf "mt_study: daemon streamed no result rows\n"
    | None, _ -> ());
    (match
       (config.Microtools.Study.Run_config.snapshot_out,
        summary.Mt_serve.Client.snapshot)
     with
    | Some path, Some doc ->
      let oc = open_out path in
      output_string oc (Mt_obsv.Json.to_string ~indent:true doc);
      close_out oc;
      Printf.printf "run snapshot written to %s (compare with mt_report)\n" path
    | _ -> ());
    (* The daemon streams the snapshot back as JSON; --history-append in
       client mode archives it locally (the daemon may additionally keep
       its own archive via mt_serve --history-dir). *)
    (match
       (config.Microtools.Study.Run_config.history_append,
        summary.Mt_serve.Client.snapshot)
     with
    | Some _, Some doc -> (
      match Mt_obsv.Snapshot.of_json doc with
      | Ok snap ->
        Mt_cli.append_history ~label:(Filename.basename input) config snap
      | Error msg -> Printf.eprintf "mt_study: history: %s\n" msg)
    | Some _, None ->
      Printf.eprintf "mt_study: history: daemon streamed no snapshot\n"
    | None, _ -> ());
    Printf.printf "job %d done: %d quarantined, daemon cache hit rate %.1f%%\n"
      summary.Mt_serve.Client.job summary.Mt_serve.Client.quarantined
      (100. *. summary.Mt_serve.Client.cache_hit_rate);
    (* The exit code a local run of the same study gives: only the
       streamed rows say whether any variant succeeded. *)
    let succeeded =
      match summary.Mt_serve.Client.csv with
      | None -> false
      | Some doc -> (
        let header = Mt_stats.Csv.header doc in
        match List.find_index (String.equal "status") header with
        | None -> false
        | Some i ->
          List.exists
            (fun row -> List.nth_opt row i = Some "ok")
            (Mt_stats.Csv.rows doc))
    in
    if not succeeded then begin
      prerr_endline "mt_study: no variant succeeded";
      1
    end
    else if summary.Mt_serve.Client.quarantined > 0 then 4
    else 0

let run input machine machine_file array_kb per repetitions experiments top
    csv submit config =
  (* Resolved before choosing local or client mode, so a bad machine
     exits 2 either way. *)
  let resolved =
    match machine_file with
    | Some path -> Mt_machine.Config_io.of_file path
    | None -> (
      match Mt_machine.Config.find_preset machine with
      | Some cfg -> Ok cfg
      | None ->
        Error
          (Printf.sprintf "unknown machine %s (known: %s)" machine
             (String.concat ", " (List.map fst Mt_machine.Config.presets))))
  in
  match (resolved, submit) with
  | Error msg, _ ->
    Printf.eprintf "mt_study: %s\n" msg;
    2
  | Ok _, Some socket ->
    submit_run ~socket input machine machine_file array_kb per repetitions
      experiments csv config
  | Ok cfg, None -> (
    let tel = Mt_cli.setup config in
    let per =
      match per with
      | "pass" -> Options.Per_pass
      | "instruction" -> Options.Per_instruction
      | "element" -> Options.Per_element
      | _ -> Options.Per_call
    in
    let opts =
      {
        (Options.default cfg) with
        Options.array_bytes = array_kb * 1024;
        per;
        repetitions;
        experiments;
      }
    in
    let ic = open_in_bin input in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Microtools.Study.of_description text opts with
    | Error msg ->
      Printf.eprintf "mt_study: %s: %s\n" input msg;
      1
    | Ok study -> (
      let variants = Microtools.Study.variants study in
      Printf.printf "generated %d variants; measuring on %s (%s)...\n"
        (List.length variants) cfg.Mt_machine.Config.name
        (Mt_cli.run_summary config);
      print_newline ();
      match Microtools.Study.run ~config study with
      | exception Failure msg ->
        Printf.eprintf "mt_study: %s\n" msg;
        1
      | outcomes ->
        let ok = Microtools.Study.successes outcomes in
        let ranked =
          List.sort
            (fun (_, a) (_, b) -> Float.compare a.Report.value b.Report.value)
            ok
        in
        let shown = if top > 0 then top else List.length ranked in
        List.iteri
          (fun i (v, r) ->
            if i < shown then
              Printf.printf "%3d. %-44s %10.3f %s/%s\n" (i + 1)
                (Mt_creator.Variant.id v) r.Report.value r.Report.unit_label
                r.Report.per_label)
          ranked;
        if List.length ranked > shown then
          Printf.printf "     ... and %d more (use --top 0 for all)\n"
            (List.length ranked - shown);
        Printf.printf "\nper-unroll minima:\n";
        List.iter
          (fun (u, v) -> Printf.printf "  unroll %d: %.3f\n" u v)
          (Microtools.Study.min_per_unroll outcomes);
        let stable, noisy, unstable =
          Microtools.Study.quality_summary outcomes
        in
        Printf.printf "measurement quality: %d stable, %d noisy, %d unstable\n"
          stable noisy unstable;
        (match
           Microtools.Analysis.recommend_unroll
             (Microtools.Study.min_per_unroll outcomes)
         with
        | Some u -> Printf.printf "recommended unroll factor: %d\n" u
        | None -> ());
        (match config.Microtools.Study.Run_config.resume_from with
        | Some path ->
          Printf.printf "journal: resumed %d of %d variants from %s\n"
            (Microtools.Study.resumed_count outcomes)
            (List.length outcomes) path
        | None -> ());
        Mt_cli.report_profiles config
          (List.filter_map
             (fun (v, r) ->
               Option.map
                 (fun b -> (Mt_creator.Variant.id v, b))
                 r.Mt_launcher.Report.profile)
             ranked);
        let quarantined = Microtools.Study.quarantined outcomes in
        List.iter
          (fun (v, q) ->
            Printf.printf "quarantined: %s: %s\n" (Mt_creator.Variant.id v)
              (Mt_resilience.Supervisor.quarantine_to_string q))
          quarantined;
        (match csv with
        | Some path ->
          Mt_stats.Csv.save (Microtools.Study.csv outcomes) path;
          Printf.printf "full results written to %s\n" path
        | None -> ());
        Mt_cli.print_cache_stats config;
        (match
           ( config.Microtools.Study.Run_config.snapshot_out,
             config.Microtools.Study.Run_config.history_append )
         with
        | None, None -> ()
        | snapshot_out, _ ->
          let snap = Microtools.Study.snapshot ~config study outcomes in
          (match snapshot_out with
          | Some path ->
            Mt_obsv.Snapshot.save snap path;
            Printf.printf
              "run snapshot written to %s (compare with mt_report)\n" path
          | None -> ());
          Mt_cli.append_history ~label:(Filename.basename input) config snap);
        let code =
          match Microtools.Study.best outcomes with
          | Some (v, r) ->
            Printf.printf "\nbest variant: %s at %.3f %s/%s\n"
              (Mt_creator.Variant.id v) r.Report.value r.Report.unit_label
              r.Report.per_label;
            if quarantined = [] then 0 else 4
          | None ->
            prerr_endline "mt_study: no variant succeeded";
            1
        in
        Mt_cli.finish tel config;
        code))

let input_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"DESCRIPTION" ~doc:"XML kernel description.")

let machine_arg =
  Arg.(value & opt string "nehalem_x5650_2s" & info [ "machine" ] ~doc:"Machine preset.")

let machine_file_arg =
  Arg.(value & opt (some file) None & info [ "machine-file" ] ~docv:"XML" ~doc:"Machine description file.")

let array_arg = Arg.(value & opt int 64 & info [ "array-kb" ] ~doc:"Array size in KiB.")

let per_arg =
  Arg.(value & opt (enum [ ("pass", "pass"); ("instruction", "instruction"); ("element", "element"); ("call", "call") ]) "element"
       & info [ "per" ] ~doc:"Normalisation unit.")

let reps_arg = Arg.(value & opt int 2 & info [ "repetitions" ] ~doc:"Calls per experiment.")

let exps_arg = Arg.(value & opt int 5 & info [ "experiments" ] ~doc:"Experiments per variant.")

let top_arg = Arg.(value & opt int 10 & info [ "top" ] ~doc:"Ranked variants to print (0 = all).")

let csv_arg = Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc:"Write all results as CSV.")

let cmd =
  let doc = "generate a kernel's variation space and rank every variant" in
  Cmd.v (Cmd.info "mt_study" ~doc ~exits:(Cmd.Exit.info 4 ~doc:"partial success: some variants were quarantined." :: Cmd.Exit.defaults))
    Term.(
      const run $ input_arg $ machine_arg $ machine_file_arg $ array_arg
      $ per_arg $ reps_arg $ exps_arg $ top_arg $ csv_arg $ Mt_cli.submit_arg
      $ Mt_cli.term)

let () = exit (Cmd.eval' cmd)

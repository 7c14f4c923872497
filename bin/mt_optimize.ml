(* Derive a study plan of per-variant experiment budgets from a
   history archive — the μOpTime move, turned into a tool:

     mt_optimize --history runs/ --out plan.json
     mt_optimize --history runs/ --kernel-hash H --machine-hash M
     mt_optimize --history runs/ --min-experiments 3

   Reads the archive's newest lineage (or the one selected by
   --kernel-hash/--machine-hash), scores every variant's median series
   for stability (pooled CoV, worst-run RCIW, trend classification),
   and writes a plan that floors the stable variants' experiment
   counts.  mt_study / mt_experiments / mt_serve replay it with --plan;
   every variant is still measured, so mt_report gates the run as
   usual.

   Exit 0 on a written plan, 2 on an unusable archive or lineage or a
   floor below 1 experiment. *)

open Cmdliner

let select_lineage hist kernel_hash machine_hash =
  match (kernel_hash, machine_hash) with
  | None, None -> Mt_obsv.History.latest_lineage hist
  | _ ->
    List.find_opt
      (fun (l : Mt_obsv.History.lineage) ->
        (match kernel_hash with
        | Some h -> l.Mt_obsv.History.l_kernel_hash = h
        | None -> true)
        &&
        match machine_hash with
        | Some h -> l.Mt_obsv.History.l_machine_hash = h
        | None -> true)
      (Mt_obsv.History.lineages hist)

let run dir out kernel_hash machine_hash min_runs cov_stable rciw_stable
    min_experiments quiet =
  match Mt_obsv.History.load dir with
  | Error msg ->
    Printf.eprintf "mt_optimize: %s\n" msg;
    2
  | Ok hist -> (
    match select_lineage hist kernel_hash machine_hash with
    | None ->
      Printf.eprintf
        "mt_optimize: %s: no matching lineage (%d runs archived)\n" dir
        (Mt_obsv.History.length hist);
      2
    | Some lineage -> (
      let knobs =
        { Mt_optimize.Plan.min_runs; cov_stable; rciw_stable; min_experiments }
      in
      match Mt_optimize.Optimizer.optimize ~knobs hist lineage with
      | Error msg ->
        Printf.eprintf "mt_optimize: %s\n" msg;
        2
      | Ok plan ->
        if not quiet then begin
          Printf.printf
            "optimizing %s — %d runs of %s on %s\n\n"
            dir plan.Mt_optimize.Plan.runs
            plan.Mt_optimize.Plan.kernel_name
            plan.Mt_optimize.Plan.machine_name;
          print_string (Mt_optimize.Optimizer.render plan)
        end;
        (match out with
        | None -> ()
        | Some path ->
          Mt_optimize.Plan.save plan path;
          Printf.printf "plan written to %s (replay with --plan)\n" path);
        0))

let history_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "history" ] ~docv:"DIR"
        ~doc:
          "Snapshot archive written by $(b,--history-append) or mt_serve \
           $(b,--history-dir); the plan is derived from one of its \
           lineages.")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out"; "o" ] ~docv:"FILE"
        ~doc:"Write the study plan as JSON to $(docv).")

let kernel_hash_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "kernel-hash" ] ~docv:"HASH"
        ~doc:
          "Select the lineage with this kernel content hash (default: the \
           archive's newest lineage).")

let machine_hash_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "machine-hash" ] ~docv:"HASH"
        ~doc:"Select the lineage with this machine content hash.")

let min_runs_arg =
  Arg.(
    value
    & opt int Mt_optimize.Optimizer.default_knobs.Mt_optimize.Plan.min_runs
    & info [ "min-runs" ] ~docv:"N"
        ~doc:
          "Lineage length below which nothing is floored — too little \
           history to judge stability.")

let cov_arg =
  Arg.(
    value
    & opt float Mt_optimize.Optimizer.default_knobs.Mt_optimize.Plan.cov_stable
    & info [ "cov-stable" ] ~docv:"FRAC"
        ~doc:"Pooled within-run CoV at or below which a series is stable.")

let rciw_arg =
  Arg.(
    value
    & opt float
        Mt_optimize.Optimizer.default_knobs.Mt_optimize.Plan.rciw_stable
    & info [ "rciw-stable" ] ~docv:"FRAC"
        ~doc:
          "Worst per-run RCIW at or below which a series stays stable \
           (snapshot schema 2+).")

let min_exps_arg =
  Arg.(
    value
    & opt int
        Mt_optimize.Optimizer.default_knobs.Mt_optimize.Plan.min_experiments
    & info [ "min-experiments" ] ~docv:"N"
        ~doc:
          "The floor experiment count stable variants drop to, at least 1 \
           (noisy ones keep their full adaptive budget).")

let quiet_arg =
  Arg.(
    value & flag
    & info [ "quiet"; "q" ] ~doc:"Suppress the table; write the plan only.")

let cmd =
  let doc =
    "derive a study plan of experiment budgets from a history archive"
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Extracts each variant's median time series along one kernel + \
         machine lineage of the archive and scores it for stability \
         (pooled coefficient of variation, worst-run bootstrap RCIW, \
         noise-gated trend classification).  Stable variants drop to a \
         floor experiment count.  Noisy, drifting or partially-missing \
         variants always keep their full budget — the plan never cuts a \
         series the archive cannot vouch for.  No variant is ever \
         dropped: a planned run measures every variant.";
      `P
        "The written plan is replayed with mt_study/mt_experiments \
         $(b,--plan), locally or through an mt_serve submission.  The \
         planned run's snapshot gates with mt_report like any other.";
      `S Manpage.s_exit_status;
      `P
        "0 on a written plan, 2 on an unusable archive or lineage or a \
         $(b,--min-experiments) below 1.";
    ]
  in
  Cmd.v (Cmd.info "mt_optimize" ~doc ~man)
    Term.(
      const run $ history_arg $ out_arg $ kernel_hash_arg $ machine_hash_arg
      $ min_runs_arg $ cov_arg $ rciw_arg $ min_exps_arg
      $ quiet_arg)

let () = exit (Cmd.eval' cmd)

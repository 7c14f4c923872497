(* Reproduce the paper's figures and tables on the machine model:
   `mt_experiments fig11`, `mt_experiments --all`, etc.

   Run-shaping flags (--jobs, --cache-dir, --timeout, --inject-fault,
   --trace-out, ...) are the shared Mt_cli set.  Exit 4 = partial
   success: some experiments completed, some were quarantined. *)

open Cmdliner

let run_ids ids quick csv_dir config =
  let fmt = Format.std_formatter in
  (* Tables are computed in parallel (each experiment is an independent
     batch of simulator runs) but printed strictly in request order.
     A crashing figure degrades to a quarantine note, not an abort. *)
  let outcomes = Microtools.Experiments.run_tables ~quick ~config ids in
  let tables = ref [] in
  let quarantined = ref 0 in
  List.iter
    (fun (id, outcome) ->
      match outcome with
      | Microtools.Experiments.Unknown ->
        Format.fprintf fmt "unknown experiment %s (known: %s)@." id
          (String.concat ", " Microtools.Experiments.ids)
      | Microtools.Experiments.Quarantined q ->
        incr quarantined;
        Format.fprintf fmt "experiment %s: %s@." id
          (Mt_resilience.Supervisor.quarantine_to_string q)
      | Microtools.Experiments.Table table ->
        tables := table :: !tables;
        Microtools.Exp_table.print fmt table;
        (match csv_dir with
        | None -> ()
        | Some dir ->
          if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
          Mt_stats.Csv.save
            (Microtools.Exp_table.to_csv table)
            (Filename.concat dir (id ^ ".csv"))))
    outcomes;
  Mt_cli.print_cache_stats config;
  let code =
    if !quarantined = 0 then 0 else if !tables = [] then 1 else 4
  in
  (code, List.rev !tables)

(* One snapshot for the whole batch: every numeric table cell becomes a
   single-observation variant stat keyed "id/row/column", so two runs of
   the same experiments diff cell-by-cell in mt_report. *)
let snapshot_of_tables ids tables =
  let variants =
    List.concat_map
      (fun t ->
        List.map
          (fun (key, v) -> Mt_obsv.Snapshot.point_stat ~key v)
          (Microtools.Exp_table.stat_entries t))
      tables
  in
  Mt_obsv.Snapshot.make ~tool:"mt_experiments"
    ~kernel:(String.concat "+" ids, Mt_obsv.Snapshot.content_hash ids)
    ~machine:
      ( "table1-presets",
        Mt_obsv.Snapshot.content_hash
          [ Marshal.to_string Mt_machine.Config.presets [] ] )
    ~counters:(Mt_telemetry.counters (Mt_telemetry.global ()))
    variants

let ids_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc:"Experiment ids (fig03..fig18, tab01, tab02, gen_counts).")

let all_arg = Arg.(value & flag & info [ "all" ] ~doc:"Run every experiment in paper order.")

let quick_arg =
  Arg.(value & flag & info [ "quick" ] ~doc:"Shrink sizes and sweeps for a fast smoke run.")

let csv_arg =
  Arg.(value & opt (some string) None & info [ "csv-dir" ] ~doc:"Also write one CSV per experiment into $(docv).")

let list_arg = Arg.(value & flag & info [ "list" ] ~doc:"List experiments and exit.")

let descriptions =
  [
    ("fig03", "matmul cycles/iter vs matrix size (the hierarchy staircase)");
    ("fig04", "matmul alignment sweep at 200x200 (<3% variation)");
    ("fig05", "matmul unroll factors, original vs micro-benchmark");
    ("fig11", "movaps streams: cycles/instruction across unroll and hierarchy");
    ("fig12", "movss streams: same, 4x less data per instruction");
    ("fig13", "frequency sweep: on-core scales, off-core does not (rdtsc)");
    ("fig14", "fork mode contention: the 6-core knee");
    ("fig15", "alignment sweep, 8 arrays on 8 of 32 cores");
    ("fig16", "alignment sweep, 4 arrays on all 32 cores");
    ("fig17", "sequential vs OpenMP, cache-resident array");
    ("fig18", "sequential vs OpenMP, RAM-resident array");
    ("tab01", "the three Table 1 machines");
    ("tab02", "OpenMP flat vs sequential improving (wall time)");
    ("gen_counts", "510/2040 variants, 19 passes, >30 options");
    ("ablation", "[ext] each model mechanism on/off");
    ("energy", "[ext] power utilization across clocks and unrolls");
    ("parmodes", "[ext] seq vs fork vs OpenMP vs MPI");
    ("tiling", "[ext] tiling removes the Fig. 3 cliff");
    ("portability", "[ext] one description on every machine");
    ("stability", "[ext] run-to-run spread per stability feature");
  ]

let list_experiments () =
  List.iter
    (fun id ->
      let doc = Option.value ~default:"" (List.assoc_opt id descriptions) in
      Printf.printf "%-12s %s\n" id doc)
    Microtools.Experiments.ids;
  0

let main ids all quick csv_dir list config =
  if list then list_experiments ()
  else begin
    let tel = Mt_cli.setup config in
    let ids = if all || ids = [] then Microtools.Experiments.ids else ids in
    Microtools.Experiments.set_run_config config;
    let code, tables = run_ids ids quick csv_dir config in
    Mt_cli.report_profiles config (Microtools.Experiments.profiles ());
    (match
       ( config.Microtools.Study.Run_config.snapshot_out,
         config.Microtools.Study.Run_config.history_append )
     with
    | None, None -> ()
    | snapshot_out, _ ->
      let snap = snapshot_of_tables ids tables in
      Option.iter
        (fun path ->
          Mt_obsv.Snapshot.save snap path;
          Printf.printf "run snapshot written to %s (compare with mt_report)\n"
            path)
        snapshot_out;
      Mt_cli.append_history ~label:(String.concat "+" ids) config snap);
    Mt_cli.finish tel config;
    code
  end

let cmd =
  let doc = "reproduce the MicroTools paper's figures and tables" in
  Cmd.v (Cmd.info "mt_experiments" ~doc ~exits:(Cmd.Exit.info 4 ~doc:"partial success: some experiments were quarantined." :: Cmd.Exit.defaults))
    Term.(
      const main $ ids_arg $ all_arg $ quick_arg $ csv_arg $ list_arg
      $ Mt_cli.term)

let () = exit (Cmd.eval' cmd)

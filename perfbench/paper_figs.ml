(* paper_figs: the quick reproductions of the figures that drive the
   fork, OpenMP, MPI and alignment launcher modes and the matmul
   kernels, on one domain with no cache.  Each launch uses
   Options.default's 41 calls rather than mt_study's 11, and DRAM is
   shared, so a launcher change tuned to study_cold shows here whether
   it helps or hurts the other modes.  fig18 is left out: it alone takes
   ~14 s.  The workload seed does not change it. *)

open Microtools
module Csv = Mt_stats.Csv

let name = "paper_figs"

let ids = [ "fig05"; "fig12"; "fig14"; "fig15"; "fig16"; "fig17"; "parmodes"; "tiling" ]

let config = Study.Run_config.make ~domains:1 ()

let setup (_ : Outcome.ctx) =
  Experiments.set_run_config config;
  List.iter (fun id -> if Experiments.by_id id = None then failwith ("unknown experiment " ^ id)) ids

let run_fig id =
  match Experiments.run_tables ~quick:true ~config [ id ] with
  | [ (_, Experiments.Table t) ] -> Ok t
  | [ (_, Experiments.Quarantined q) ] ->
    Error (id ^ ": " ^ Mt_resilience.Supervisor.quarantine_to_string q)
  | _ -> Error (id ^ ": unknown experiment")

let cells t = Csv.to_string (Exp_table.to_csv t)

(* Checks one figure against a reference table (the first iteration's,
   or the untraced run's), or without one against the committed digest;
   returns the table text. *)
let check ctx out ~reference id result =
  let text, problems =
    match (result, reference) with
    | Error msg, _ -> ("", [ msg ])
    | Ok t, None ->
      let text = cells t in
      (text, Outcome.digest out ctx ~workload:name ~name:id text)
    | Ok t, Some expected ->
      let text = cells t in
      ( text,
        Option.fold ~none:[] ~some:(fun m -> [ id ^ ": " ^ m ])
          (Checks.csv_mismatch ~expected ~actual:text) )
  in
  Outcome.record out ~attempted:1 ~failed:(if problems = [] then 0 else 1) problems;
  text

let iteration span =
  List.map (fun id -> (id, Host.time (fun () -> span id (fun () -> run_fig id)))) ids

(* A job is the whole batch, as one mt_experiments call; table rows
   stand in for variants, each being one measured point. *)
let run ctx out =
  setup ctx;
  let reference = Hashtbl.create 8 in
  let units = ref [] and rows = ref 0 in
  let stop_sampler = Host.sampler ctx.Outcome.meter in
  let t0 = Host.now () in
  let n = ref 0 in
  while !n = 0 || Host.now () -. t0 < ctx.Outcome.seconds do
    incr n;
    let since = Host.mark ctx.Outcome.meter in
    Host.reset_peak_rss 0;
    let results = iteration (fun _ f -> Host.sample ctx.Outcome.meter; f ()) in
    let wall = List.fold_left (fun acc (_, (_, dt)) -> acc +. dt) 0. results in
    units :=
      { Outcome.wall; jobs = [ wall ]; scale = Host.scale ~since ctx.Outcome.meter;
        rss = Host.peak_rss_mb 0 }
      :: !units;
    List.iter
      (fun (id, (result, _)) ->
        let text = check ctx out ~reference:(Hashtbl.find_opt reference id) id result in
        if !n = 1 then begin
          Hashtbl.replace reference id text;
          match result with Ok t -> rows := !rows + List.length t.Exp_table.rows | Error _ -> ()
        end)
      results
  done;
  stop_sampler ();
  Outcome.end_to_end out ctx ~results:!rows !units;
  Outcome.note out "iterations: %d of %d figures (%d table rows)" !n (List.length ids) !rows

let traced ctx out =
  setup ctx;
  let gc0 = Host.gc () in
  let plain = iteration (fun _ f -> f ()) in
  Outcome.gc_metrics out gc0 (Host.gc ());
  let wall_u = List.fold_left (fun acc (_, (_, dt)) -> acc +. dt) 0. plain in
  let tr = Tracer.create Host.now in
  let traced = iteration (fun id f -> Tracer.span tr ("figs." ^ id) f) in
  let total, unattributed = Tracer.totals tr in
  List.iter2
    (fun (id, (result, _)) (_, (traced, _)) ->
      let text = check ctx out ~reference:None id result in
      ignore (check ctx out ~reference:(Some text) id traced))
    plain traced;
  List.iter (fun id -> Outcome.metric out ("figs." ^ id ^ "_s") "s" (Tracer.self tr ("figs." ^ id))) ids;
  Outcome.metric out "unattributed_frac" "fraction" (unattributed /. total);
  Outcome.metric out "trace_overhead_frac" "fraction" ((total -. wall_u) /. wall_u)

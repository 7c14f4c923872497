module History = Mt_obsv.History
module Snapshot = Mt_obsv.Snapshot

let default_knobs =
  {
    Plan.min_runs = 4;
    cov_stable = 0.01;
    rciw_stable = 0.02;
    min_experiments = 2;
  }

(* One variant's budget, computed in a single sweep over its archived
   series. *)
let score ~knobs ~runs hist entries key =
  let series = History.series ~entries hist ~variant:key in
  let cov = History.pooled_noise series in
  let rciw =
    List.fold_left
      (fun acc (_, (v : Snapshot.variant_stat)) -> Float.max acc v.Snapshot.rciw)
      0. series
  in
  let trend = History.trend series in
  (* Stability demands the full picture: present in every run of the
     lineage, stationary across runs, quiet within them.  A variant
     that misses runs (quarantine, kernel churn) keeps its budget — the
     archive cannot vouch for it. *)
  let stable =
    runs >= knobs.Plan.min_runs
    && List.length series = runs
    && trend.Mt_stats.Trend.classification = Mt_stats.Trend.Stationary
    && cov <= knobs.Plan.cov_stable
    && rciw <= knobs.Plan.rciw_stable
  in
  {
    Plan.variant = key;
    experiments = (if stable then Some knobs.Plan.min_experiments else None);
    stable;
    cov;
    rciw;
    trend =
      Mt_stats.Trend.classification_to_string
        trend.Mt_stats.Trend.classification;
  }

let optimize ?(knobs = default_knobs) ?created_at hist
    (lineage : History.lineage) =
  let entries = lineage.History.l_entries in
  if entries = [] then Error "optimize: empty lineage"
  else if knobs.Plan.min_experiments < 1 then
    Error
      (Printf.sprintf
         "optimize: the experiment floor must be at least 1, not %d"
         knobs.Plan.min_experiments)
  else begin
    let runs = List.length entries in
    let keep =
      List.map (score ~knobs ~runs hist entries) (History.keys ~entries hist)
    in
    let created_at =
      match created_at with Some t -> t | None -> Unix.gettimeofday ()
    in
    Ok
      {
        Plan.schema = Plan.schema_version;
        created_at;
        history_dir = History.dir hist;
        runs;
        kernel_name = lineage.History.l_kernel_name;
        kernel_hash = lineage.History.l_kernel_hash;
        machine_name = lineage.History.l_machine_name;
        machine_hash = lineage.History.l_machine_hash;
        knobs;
        keep;
      }
  end

let render (plan : Plan.t) =
  let buf = Buffer.create 1024 in
  let key_w =
    List.fold_left
      (fun acc (k : Plan.keep) -> max acc (String.length k.Plan.variant))
      7 plan.Plan.keep
  in
  Buffer.add_string buf
    (Printf.sprintf "  %-*s  %-6s %9s %8s %8s  %s\n" key_w "variant" "action"
       "exps" "cov" "rciw" "trend");
  List.iter
    (fun (k : Plan.keep) ->
      let action, exps =
        match k.Plan.experiments with
        | Some n -> ("floor", string_of_int n)
        | None -> ("keep", "adaptive")
      in
      Buffer.add_string buf
        (Printf.sprintf "  %-*s  %-6s %9s %8.4f %8.4f  %s\n" key_w
           k.Plan.variant action exps k.Plan.cov k.Plan.rciw k.Plan.trend))
    plan.Plan.keep;
  Buffer.add_string buf ("\n" ^ Plan.summary plan ^ "\n");
  Buffer.contents buf

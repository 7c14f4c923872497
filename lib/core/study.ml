open Mt_creator
open Mt_launcher

type t = {
  spec : Spec.t;
  options : Options.t;
  ctx : Pass.context;
  pipeline : Pass.pipeline option;
  mutable generated : Variant.t list option;
}

let create ?(ctx = Pass.default_context) ?pipeline spec options =
  { spec; options; ctx; pipeline; generated = None }

let of_description ?ctx text options =
  match Description.of_string text with
  | Error msg -> Error msg
  | Ok spec -> Ok (create ?ctx spec options)

let variants t =
  match t.generated with
  | Some vs -> vs
  | None ->
    let vs =
      Mt_telemetry.span (Mt_telemetry.global ()) "study.generate" (fun () ->
          Creator.generate ~ctx:t.ctx ?pipeline:t.pipeline t.spec)
    in
    t.generated <- Some vs;
    vs

(* ------------------------------------------------------------------ *)
(* Run configuration                                                   *)
(* ------------------------------------------------------------------ *)

module Run_config = struct
  type t = {
    domains : int;
    cache : Mt_parallel.Cache.t option;
    seed : int option;
    adaptive : (float * int) option;
    policy : Mt_resilience.Policy.t;
    faults : Mt_resilience.Fault.t list;
    journal_out : string option;
    resume_from : string option;
    trace_out : string option;
    metrics_out : string option;
    snapshot_out : string option;
    history_append : string option;
    trace_detail : Mt_telemetry.detail;
    profile : bool;
    profile_folded : string option;
    plan : Mt_optimize.Plan.t option;
  }

  let default =
    {
      domains = 1;
      cache = None;
      seed = None;
      adaptive = None;
      policy = Mt_resilience.Policy.default;
      faults = [];
      journal_out = None;
      resume_from = None;
      trace_out = None;
      metrics_out = None;
      snapshot_out = None;
      history_append = None;
      trace_detail = Mt_telemetry.Off;
      profile = false;
      profile_folded = None;
      plan = None;
    }

  let make ?(domains = default.domains) ?cache ?seed ?adaptive
      ?(policy = default.policy) ?(faults = []) ?journal_out ?resume_from
      ?trace_out ?metrics_out ?snapshot_out ?history_append
      ?(trace_detail = default.trace_detail) ?(profile = default.profile)
      ?profile_folded ?plan () =
    {
      domains;
      cache;
      seed;
      adaptive;
      policy;
      faults;
      journal_out;
      resume_from;
      trace_out;
      metrics_out;
      snapshot_out;
      history_append;
      trace_detail;
      profile;
      profile_folded;
      plan;
    }

  let effective_domains t =
    if t.domains <= 0 then Mt_parallel.Pool.available_domains ()
    else t.domains

  (* The run-shaping knobs (seed, adaptive budget, sim fuel) are
     applied to the launcher options at run time, in one place, so the
     cache keys and the measurements always agree on what ran. *)
  let apply_options t (opts : Options.t) =
    let opts = if t.profile then { opts with Options.profile = true } else opts in
    let opts =
      match t.seed with
      | None -> opts
      | Some s -> { opts with Options.quality_seed = s }
    in
    let opts =
      match t.adaptive with
      | None -> opts
      | Some (rciw_target, max_experiments) ->
        {
          opts with
          Options.adaptive_experiments = true;
          rciw_target;
          max_experiments = max max_experiments opts.Options.experiments;
        }
    in
    match t.policy.Mt_resilience.Policy.sim_budget with
    | None -> opts
    | Some fuel ->
      { opts with Options.max_instructions = min fuel opts.Options.max_instructions }

  (* The plan's per-variant floor: an exact experiment count for a
     variant the optimizer judged stable.  Under the adaptive
     controller this is the starting (minimum) count — the controller
     can still grow a series that turns noisy. *)
  let plan_options t ~variant_id (opts : Options.t) =
    match Option.bind t.plan (fun p ->
              Mt_optimize.Plan.experiments_override p variant_id)
    with
    | None -> opts
    | Some n -> { opts with Options.experiments = max 1 n }
end

(* ------------------------------------------------------------------ *)
(* Outcomes                                                            *)
(* ------------------------------------------------------------------ *)

type exec = {
  attempts : int;
  quarantined : Mt_resilience.Supervisor.quarantine option;
  resumed : bool;
}

type outcome = {
  variant : Variant.t;
  result : (Report.t, string) result;
  exec : exec;
}

(* ------------------------------------------------------------------ *)
(* Result caching                                                      *)
(* ------------------------------------------------------------------ *)

(* Everything a measurement depends on and nothing it doesn't: the
   side-effect options (csv_path, verbose) are normalised away so a
   re-run that only redirects its CSV still hits. *)
let options_fingerprint (opts : Options.t) =
  Marshal.to_string { opts with Options.csv_path = None; verbose = false } []

(* The machine config is embedded in Options.t, but frequency overrides
   are applied late; fingerprint the effective machine explicitly. *)
let machine_fingerprint opts = Marshal.to_string (Options.effective_machine opts) []

let variant_fingerprint v =
  let body =
    match v.Variant.body with
    | Variant.Concrete program -> Mt_isa.Insn.program_to_string program
    | Variant.Abstract _ -> "abstract"
  in
  Marshal.to_string (Variant.id v, v.Variant.unroll, body, v.Variant.abi) []

let cache_key opts variant =
  Mt_parallel.Cache.digest_key
    [
      variant_fingerprint variant;
      options_fingerprint opts;
      machine_fingerprint opts;
    ]

(* [key] is forced only when there is a cache to look in. *)
let launch ?cache ~key opts variant =
  Mt_parallel.Cache.with_cache cache ~key
    (fun () -> Launcher.launch opts (Source.From_variant variant))
    ~encode:(fun result -> Marshal.to_string result [])
    ~decode:(fun data : (Report.t, string) result -> Marshal.from_string data 0)

let cached_launch ?cache opts variant =
  launch ?cache ~key:(fun () -> cache_key opts variant) opts variant

(* ------------------------------------------------------------------ *)
(* Supervised, journalled execution                                    *)
(* ------------------------------------------------------------------ *)

(* The journal payload: the variant's result plus its quarantine state,
   so a resumed run replays not just the measurement but the verdict —
   the final CSV of interrupted-then-resumed equals uninterrupted. *)
type journal_payload =
  (Report.t, string) result * Mt_resilience.Supervisor.quarantine option

let encode_payload (p : journal_payload) = Marshal.to_string p []

let decode_payload data : journal_payload option =
  match Marshal.from_string data 0 with
  | p -> Some p
  | exception _ -> None

(* Garbage planted at a variant's cache key by corrupt-cache-entry
   faults; anything Marshal refuses to read back works. *)
let corrupt_bytes = "!! corrupt cache entry (injected fault) !!"

let run_variant ~(config : Run_config.t) ~options ~journal ~resumed ~index
    variant =
  let tel = Mt_telemetry.global () in
  let options =
    Run_config.plan_options config ~variant_id:(Variant.id variant) options
  in
  (* The variant's one digest: journal lookup and record, the
     corrupt-cache fault and the cache lookup all use it. *)
  let key = cache_key options variant in
  match Mt_resilience.Journal.find resumed ~key with
  | Some entry when decode_payload entry.Mt_resilience.Journal.data <> None ->
    let result, quarantined =
      Option.get (decode_payload entry.Mt_resilience.Journal.data)
    in
    Mt_telemetry.incr tel "resilience.resume.skipped";
    { variant; result; exec = { attempts = 0; quarantined; resumed = true } }
  | _ ->
    Mt_telemetry.span tel "study.variant"
      ~args:[ ("variant", Variant.id variant) ]
      (fun () ->
        Mt_telemetry.incr tel "sim.variants";
        let fault = Mt_resilience.Fault.find config.Run_config.faults ~index in
        (* Corrupt-cache faults are planted here (the supervisor has no
           cache handle): garbage at the variant's key before the first
           lookup, exercising the cache's decode recovery. *)
        let fault =
          match fault with
          | Some { Mt_resilience.Fault.kind = Corrupt_cache_entry; _ } ->
            (match config.Run_config.cache with
            | Some cache ->
              Mt_telemetry.incr tel "resilience.fault.injected";
              Mt_parallel.Cache.store cache key corrupt_bytes
            | None -> ());
            None (* nothing left to inject at the supervision layer *)
          | f -> f
        in
        let result, exec =
          match
            Mt_resilience.Supervisor.supervise ?fault
              ~policy:config.Run_config.policy ~key:(Variant.id variant)
              (fun () ->
                launch ?cache:config.Run_config.cache ~key:(fun () -> key)
                  options variant)
          with
          | Mt_resilience.Supervisor.Done (result, attempts) ->
            (result, { attempts; quarantined = None; resumed = false })
          | Mt_resilience.Supervisor.Quarantined q ->
            ( Error (Mt_resilience.Supervisor.quarantine_to_string q),
              { attempts = q.Mt_resilience.Supervisor.attempts;
                quarantined = Some q;
                resumed = false } )
        in
        Option.iter
          (fun w ->
            Mt_resilience.Journal.record w ~key ~id:(Variant.id variant)
              ~data:(encode_payload (result, exec.quarantined)))
          journal;
        { variant; result; exec })

let run ?(config = Run_config.default) t =
  let options = Run_config.apply_options config t.options in
  let tel = Mt_telemetry.global () in
  let vs = variants t in
  (* Plan filtering happens here, not in [variants]: the generated
     space stays cached whole, so the same study value can run pruned
     and unpruned.  Unknown variants stay in (Plan.selects). *)
  let vs =
    match config.Run_config.plan with
    | None -> vs
    | Some plan ->
      let kept, pruned =
        List.partition
          (fun v -> Mt_optimize.Plan.selects plan (Variant.id v))
          vs
      in
      Mt_telemetry.add tel "plan.kept" (List.length kept);
      Mt_telemetry.add tel "plan.dropped" (List.length pruned);
      kept
  in
  let resumed =
    match config.Run_config.resume_from with
    | None -> []
    | Some path -> (
      match Mt_resilience.Journal.load path with
      | Ok entries -> entries
      | Error msg -> failwith (Printf.sprintf "Study.run: resume %s: %s" path msg))
  in
  let journal =
    match config.Run_config.journal_out with
    | None -> None
    | Some path ->
      (* Resuming into the same file appends, so the journal ends up
         covering the whole study; otherwise start fresh. *)
      let append = config.Run_config.resume_from = Some path in
      Some (Mt_resilience.Journal.create ~append path)
  in
  Fun.protect
    ~finally:(fun () -> Option.iter Mt_resilience.Journal.close journal)
    (fun () ->
      Mt_telemetry.span tel "study.run" (fun () ->
          Mt_parallel.Pool.map_list
            ~domains:(Run_config.effective_domains config)
            (fun (index, variant) ->
              run_variant ~config ~options ~journal ~resumed ~index variant)
            (List.mapi (fun i v -> (i, v)) vs)))

let resumed_count outcomes =
  List.length (List.filter (fun o -> o.exec.resumed) outcomes)

let quarantined outcomes =
  List.filter_map
    (fun o ->
      Option.map (fun q -> (o.variant, q)) o.exec.quarantined)
    outcomes

let successes outcomes =
  List.filter_map
    (fun o -> match o.result with Ok r -> Some (o.variant, r) | Error _ -> None)
    outcomes

let best outcomes =
  List.fold_left
    (fun acc (v, r) ->
      match acc with
      | Some (_, b) when b.Report.value <= r.Report.value -> acc
      | Some _ | None -> Some (v, r))
    None (successes outcomes)

let by_unroll outcomes =
  let ok = successes outcomes in
  let unrolls =
    List.sort_uniq Int.compare (List.map (fun (v, _) -> v.Variant.unroll) ok)
  in
  List.map
    (fun u -> (u, List.filter (fun (v, _) -> v.Variant.unroll = u) ok))
    unrolls

let min_per_unroll outcomes =
  List.filter_map
    (fun (u, group) ->
      match group with
      | [] -> None
      | group ->
        Some
          ( u,
            List.fold_left
              (fun acc (_, r) -> Float.min acc r.Report.value)
              infinity group ))
    (by_unroll outcomes)

(* ------------------------------------------------------------------ *)
(* Run provenance                                                      *)
(* ------------------------------------------------------------------ *)

let spec_fingerprint spec = Marshal.to_string spec []

let kernel_hash t = Mt_obsv.Snapshot.content_hash [ spec_fingerprint t.spec ]

let machine_hash t =
  Mt_obsv.Snapshot.content_hash [ machine_fingerprint t.options ]

let snapshot ?(tool = "mt_study") ?(config = Run_config.default) t outcomes =
  let opts = Run_config.apply_options config t.options in
  let variants =
    List.filter_map
      (fun o ->
        match o.result with
        | Error _ -> None
        | Ok r ->
          let profile =
            match r.Report.profile with
            | Some b -> Mt_profile.vector b
            | None -> []
          in
          Some
            (Mt_obsv.Snapshot.of_assessment
               ~key:(Variant.id o.variant)
               ~unroll:o.variant.Variant.unroll
               ~unit_label:r.Report.unit_label ~per_label:r.Report.per_label
               ~profile r.Report.summary r.Report.quality))
      outcomes
  in
  Mt_obsv.Snapshot.make ~tool
    ~kernel:(t.spec.Spec.name, kernel_hash t)
    ~machine:
      ( (Options.effective_machine opts).Mt_machine.Config.name,
        machine_hash t )
    ~options:(Options.summary opts) ~seed:opts.Options.noise_seed
    ~variant_count:(List.length outcomes)
    ~quarantined:(List.map (fun (v, _) -> Variant.id v) (quarantined outcomes))
    ~counters:(Mt_telemetry.counters (Mt_telemetry.global ()))
    variants

let quality_summary outcomes =
  List.fold_left
    (fun (stable, noisy, unstable) o ->
      match o.result with
      | Error _ -> (stable, noisy, unstable)
      | Ok r -> (
        match r.Report.quality.Mt_quality.verdict with
        | Mt_quality.Stable -> (stable + 1, noisy, unstable)
        | Mt_quality.Noisy _ -> (stable, noisy + 1, unstable)
        | Mt_quality.Unstable _ -> (stable, noisy, unstable + 1)))
    (0, 0, 0) outcomes

let csv outcomes =
  let doc =
    Mt_stats.Csv.create
      ~header:
        [ "variant"; "unroll"; "status"; "value"; "min"; "max"; "verdict"; "flags" ]
  in
  List.iter
    (fun o ->
      let id = Variant.id o.variant in
      let unroll = string_of_int o.variant.Variant.unroll in
      (* Only quarantine makes the flags cell: attempts and resume are
         execution history, and keeping them out is what makes an
         interrupted-then-resumed run's CSV byte-identical to an
         uninterrupted one. *)
      let flags =
        match o.exec.quarantined with
        | Some q ->
          Report.quarantine_flag ~kind:q.Mt_resilience.Supervisor.kind
        | None -> ""
      in
      match o.result with
      | Ok r ->
        Mt_stats.Csv.add_row doc
          [
            id; unroll; "ok";
            Printf.sprintf "%.6g" r.Report.value;
            Printf.sprintf "%.6g" r.Report.summary.Mt_stats.minimum;
            Printf.sprintf "%.6g" r.Report.summary.Mt_stats.maximum;
            Mt_quality.verdict_to_string r.Report.quality.Mt_quality.verdict;
            flags;
          ]
      | Error msg ->
        Mt_stats.Csv.add_row doc
          [ id; unroll; "error: " ^ msg; ""; ""; ""; ""; flags ])
    outcomes;
  doc

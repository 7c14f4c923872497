(* study_cold: a first-time study of every corpus description except
   movewidth (its 2,040 variants take ~23 s cold), with mt_study's
   defaults — nehalem_x5650_2s, 64 KiB arrays, per element, 2
   repetitions x 5 experiments — on one domain, with a fresh cache dir
   (writes only), a journal, and the CSV and snapshot saved.  The
   simulator dominates it. *)

open Microtools
module Options = Mt_launcher.Options
module Protocol = Mt_launcher.Protocol
module Run_config = Study.Run_config
module Cache = Mt_parallel.Cache
module Journal = Mt_resilience.Journal
module Csv = Mt_stats.Csv

let name = "study_cold"

type input = { id : string; text : string }

let inputs () =
  Sys.readdir "descriptions" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".xml" && f <> "movewidth.xml")
  |> List.sort compare
  |> List.map (fun f ->
         { id = Filename.chop_suffix f ".xml";
           text = Host.read_file (Filename.concat "descriptions" f) })

(* The seed drives the noise and the quality bootstrap; the default seed
   (42) reproduces a plain mt_study run. *)
let options seed =
  let machine = Option.get (Mt_machine.Config.find_preset "nehalem_x5650_2s") in
  {
    (Options.default machine) with
    Options.array_bytes = 64 * 1024;
    per = Options.Per_element;
    repetitions = 2;
    experiments = 5;
    noise_seed = seed;
  }

let path dir input ext = Filename.concat dir (input.id ^ ext)

let config ~seed ~dir input =
  Run_config.make ~domains:1 ~seed
    ~cache:(Cache.create ~dir:(path dir input ".cache") ())
    ~journal_out:(path dir input ".journal") ()

(* What a probe process does before it could start timing. *)
let setup ctx =
  let inputs = inputs () in
  let dir = Filename.concat ctx.Outcome.work "probe" in
  ignore (Run_config.make ~cache:(Cache.create ~dir ()) ());
  ignore (options ctx.Outcome.seed);
  inputs

(* One job as mt_study runs it. *)
let run_job ~opts ~seed ~dir input =
  match Study.of_description input.text opts with
  | Error msg -> Error msg
  | Ok study ->
    let outcomes = Study.run ~config:(config ~seed ~dir input) study in
    Csv.save (Study.csv outcomes) (path dir input ".csv");
    Mt_obsv.Snapshot.save (Study.snapshot study outcomes) (path dir input ".snapshot.json");
    Ok outcomes

(* Checks one finished job; returns (variants, failed, problems) and the
   CSV text.  Any problem beyond per-variant errors fails the whole job. *)
let check_job ctx out ~reference ~dir input result =
  match result with
  | Error msg -> (1, 1, [ input.id ^ ": " ^ msg ], "")
  | Ok outcomes ->
    let n = List.length outcomes in
    let bad =
      List.filter_map
        (fun o ->
          match (o.Study.result, o.Study.exec.Study.quarantined) with
          | Ok _, None -> None
          | Error msg, _ -> Some (Printf.sprintf "%s/%s: %s" input.id (Mt_creator.Variant.id o.Study.variant) msg)
          | Ok _, Some _ -> Some (Printf.sprintf "%s/%s: quarantined" input.id (Mt_creator.Variant.id o.Study.variant)))
        outcomes
    in
    let text = Host.read_file (path dir input ".csv") in
    let other =
      List.concat
        [
          (match reference with
          | None -> Outcome.digest out ctx ~workload:name ~name:input.id text
          | Some expected ->
            Option.fold ~none:[] ~some:(fun m -> [ input.id ^ ": " ^ m ])
              (Checks.csv_mismatch ~expected ~actual:text));
          (match Journal.load (path dir input ".journal") with
          | Ok entries when List.length entries = n -> []
          | Ok entries -> [ Printf.sprintf "%s: journal holds %d of %d variants" input.id (List.length entries) n ]
          | Error msg -> [ input.id ^ ": journal: " ^ msg ]);
          (match Mt_obsv.Snapshot.load (path dir input ".snapshot.json") with
          | Ok _ -> []
          | Error msg -> [ input.id ^ ": snapshot: " ^ msg ]);
        ]
    in
    (n, (if other = [] then List.length bad else n), bad @ other, text)

let fresh dir =
  Host.rm_rf dir;
  Host.mkdir_p dir

(* Runs every input once in a fresh directory: (job seconds, outcomes).
   With a meter, the reference loop is sampled before each job. *)
let iteration ?meter ctx ~opts ~dir inputs =
  fresh dir;
  List.map
    (fun input ->
      Option.iter Host.sample meter;
      let result, dt = Host.time (fun () -> run_job ~opts ~seed:ctx.Outcome.seed ~dir input) in
      (input, dt, result))
    inputs

(* Simulated instructions of a launch: every call of a variant runs the
   same instruction stream, so one extra call counts them all. *)
let calls opts experiments =
  (if opts.Options.warmup then 1 else 0) + (experiments * opts.Options.repetitions)

let call_insns prepared =
  match Protocol.run_once prepared with
  | Ok o -> o.Mt_machine.Core.instructions
  | Error _ -> 0

(* A job is the whole study: per-description times would put a
   different description at each percentile as the unit count varies. *)
let run ctx out =
  let inputs = inputs () in
  let opts = options ctx.Outcome.seed in
  let reference = Hashtbl.create 16 in
  let units = ref [] and variants = ref 0 in
  let stop_sampler = Host.sampler ctx.Outcome.meter in
  let t0 = Host.now () in
  let n = ref 0 in
  while !n = 0 || Host.now () -. t0 < ctx.Outcome.seconds do
    incr n;
    let dir = Filename.concat ctx.Outcome.work (Printf.sprintf "%s-%d" name !n) in
    let since = Host.mark ctx.Outcome.meter in
    Host.reset_peak_rss 0;
    let results = iteration ~meter:ctx.Outcome.meter ctx ~opts ~dir inputs in
    let wall = List.fold_left (fun acc (_, dt, _) -> acc +. dt) 0. results in
    units :=
      { Outcome.wall; jobs = [ wall ]; scale = Host.scale ~since ctx.Outcome.meter;
        rss = Host.peak_rss_mb 0 }
      :: !units;
    List.iter
      (fun (input, _, result) ->
        let attempted, failed, problems, text =
          check_job ctx out ~reference:(Hashtbl.find_opt reference input.id) ~dir input result
        in
        if !n = 1 then begin
          Hashtbl.replace reference input.id text;
          variants := !variants + attempted
        end;
        Outcome.record out ~attempted ~failed problems)
      results;
    Host.rm_rf dir
  done;
  stop_sampler ();
  Outcome.end_to_end out ctx ~results:!variants !units;
  Outcome.note out "iterations: %d of %d variants" !n !variants

(* The traced run: one untraced iteration, then a replica of Study.run
   built from the same public calls with a span around each one. *)

type counts = { mutable calls : int; mutable insns : int }

let launch tr counts opts variant =
  let span name f = Tracer.span tr name f in
  let ( let* ) = Result.bind in
  let* program, abi =
    span "launcher.load" (fun () -> Mt_launcher.Source.load (Mt_launcher.Source.From_variant variant))
  in
  let* p = span "launcher.prepare" (fun () -> Protocol.prepare opts program abi) in
  let* totals, actual_passes = span "launcher.measure" (fun () -> Protocol.measure_totals p) in
  let report =
    span "launcher.report" (fun () -> Protocol.report_of_totals ~mode:"seq" p ~actual_passes totals)
  in
  let n = calls opts (List.length totals) in
  counts.calls <- counts.calls + n;
  Tracer.untimed tr (fun () -> counts.insns <- counts.insns + (call_insns p * n));
  Ok report

let replica tr counts ~opts ~seed ~dir input =
  let span name f = Tracer.span tr name f in
  match span "creator.parse" (fun () -> Study.of_description input.text opts) with
  | Error msg -> Error msg
  | Ok study ->
    let config = config ~seed ~dir input in
    let cache = Option.get config.Run_config.cache in
    let options = Run_config.apply_options config opts in
    let journal = Journal.create (path dir input ".journal") in
    let variants = span "creator.generate" (fun () -> Study.variants study) in
    let outcomes =
      List.map
        (fun v ->
          (* Study.run digests each variant twice: once as the journal
             key, once inside the cached launch. *)
          let key = span "core.cache_key" (fun () -> Study.cache_key options v) in
          let key' = span "core.cache_key" (fun () -> Study.cache_key options v) in
          let result =
            match span "cache.find" (fun () -> Cache.find cache key') with
            | Some data -> (Marshal.from_string data 0 : (Mt_launcher.Report.t, string) result)
            | None ->
              let result = launch tr counts options v in
              span "cache.store" (fun () -> Cache.store cache key' (Marshal.to_string result []));
              result
          in
          span "journal.record" (fun () ->
              Journal.record journal ~key ~id:(Mt_creator.Variant.id v)
                ~data:(Marshal.to_string (result, (None : Mt_resilience.Supervisor.quarantine option)) []));
          { Study.variant = v; result; exec = { Study.attempts = 1; quarantined = None; resumed = false } })
        variants
    in
    Journal.close journal;
    span "report.csv" (fun () -> Csv.save (Study.csv outcomes) (path dir input ".csv"));
    span "report.snapshot" (fun () ->
        Mt_obsv.Snapshot.save (Study.snapshot study outcomes) (path dir input ".snapshot.json"));
    Ok (outcomes, cache)

let traced ctx out =
  let inputs = inputs () in
  let opts = options ctx.Outcome.seed in
  let seed = ctx.Outcome.seed in
  let dir_u = Filename.concat ctx.Outcome.work "untraced" in
  let dir_t = Filename.concat ctx.Outcome.work "traced" in
  let gc0 = Host.gc () in
  let plain = iteration ctx ~opts ~dir:dir_u inputs in
  Outcome.gc_metrics out gc0 (Host.gc ());
  let wall_u = List.fold_left (fun acc (_, dt, _) -> acc +. dt) 0. plain in
  fresh dir_t;
  let counts = { calls = 0; insns = 0 } in
  let tr = Tracer.create Host.now in
  let replicas = List.map (fun input -> replica tr counts ~opts ~seed ~dir:dir_t input) inputs in
  let total, unattributed = Tracer.totals tr in
  List.iter2
    (fun (input, _, result) traced ->
      let attempted, failed, problems, text =
        check_job ctx out ~reference:None ~dir:dir_u input result
      in
      let mismatch =
        match traced with
        | Error msg -> [ input.id ^ " (traced): " ^ msg ]
        | Ok _ -> (
          match Checks.csv_mismatch ~expected:text ~actual:(Host.read_file (path dir_t input ".csv")) with
          | Some m -> [ input.id ^ " (traced): " ^ m ]
          | None -> [])
      in
      Outcome.record out ~attempted ~failed:(if mismatch = [] then failed else attempted) (problems @ mismatch))
    plain replicas;
  let hits, misses =
    List.fold_left
      (fun (h, m) -> function Ok (_, c) -> (h + Cache.hits c, m + Cache.misses c) | Error _ -> (h, m))
      (0, 0) replicas
  in
  List.iter
    (fun layer -> Outcome.metric out (layer ^ "_s") "s" (Tracer.self tr layer))
    [ "creator.parse"; "creator.generate"; "core.cache_key"; "cache.find"; "launcher.load";
      "launcher.prepare"; "launcher.measure"; "launcher.report"; "cache.store";
      "journal.record"; "report.csv"; "report.snapshot" ];
  let measure = Tracer.self tr "launcher.measure" in
  Outcome.metric out "launcher.calls" "count" (float_of_int counts.calls);
  Outcome.metric out "launcher.call_us" "us" (measure /. float_of_int counts.calls *. 1e6);
  Outcome.metric out "sim.insns" "count" (float_of_int counts.insns);
  Outcome.metric out "sim.minsns_per_s" "Minsn/s" (float_of_int counts.insns /. 1e6 /. measure);
  Outcome.metric out "cache.hits" "count" (float_of_int hits);
  Outcome.metric out "cache.misses" "count" (float_of_int misses);
  Outcome.metric out "unattributed_frac" "fraction" (unattributed /. total);
  Outcome.metric out "trace_overhead_frac" "fraction" ((total -. wall_u) /. wall_u);
  Outcome.note out "traced %.3f s, untraced %.3f s, layers + unattributed = %.6f s" total wall_u
    (List.fold_left (fun acc (_, s) -> acc +. s) unattributed (Tracer.layers tr))

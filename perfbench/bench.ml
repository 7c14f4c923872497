(* The host-time benchmark (see README.md).  run.py builds and runs it:

     bench.exe --workload study_cold|serve_warm|paper_figs --seed N
       --seconds S --trace 0|1 --work DIR

   --trace 0 measures the end-to-end metrics with every tracing facility
   off; --trace 1 is the separate traced run that splits the time into
   layers.  The last line on stdout is the result as one JSON object;
   the exit code is 0 only when every output check passed. *)

let default_seed = 42

let end_to_end =
  [ ("setup_s", "s"); ("wall_s", "s"); ("variants_per_s", "1/s"); ("job_p50_ms", "ms");
    ("job_p95_ms", "ms"); ("peak_rss_mb", "MiB") ]

(* A layer a workload does not exercise reads 0. *)
let per_layer =
  [ ("launcher.measure_s", "s"); ("launcher.calls", "count"); ("launcher.call_us", "us");
    ("sim.insns", "count"); ("sim.minsns_per_s", "Minsn/s"); ("launcher.prepare_s", "s");
    ("launcher.load_s", "s"); ("launcher.report_s", "s"); ("creator.parse_s", "s");
    ("creator.generate_s", "s"); ("core.cache_key_s", "s"); ("cache.find_s", "s");
    ("cache.hits", "count"); ("cache.misses", "count"); ("cache.store_s", "s");
    ("journal.record_s", "s"); ("report.csv_s", "s"); ("report.snapshot_s", "s") ]
  @ List.concat_map
      (fun stage -> [ (stage ^ ".p50", "ms"); (stage ^ ".p95", "ms") ])
      [ "serve.accept_ms"; "serve.run_ms"; "serve.stream_ms" ]
  @ [ ("serve.queue_wait_us.p50", "us"); ("serve.queue_wait_us.p90", "us");
      ("serve.exec_us.p50", "us"); ("serve.exec_us.p90", "us"); ("serve.rows", "count");
      ("serve.late_accepted", "count") ]
  @ List.map (fun id -> ("figs." ^ id ^ "_s", "s")) Paper_figs.ids
  @ [ ("gc.minor_collections", "count"); ("gc.major_collections", "count");
      ("gc.top_heap_mb", "MiB"); ("unattributed_frac", "fraction");
      ("trace_overhead_frac", "fraction") ]

type workload = {
  probe : (Outcome.ctx -> unit) option;
      (** set-up a fresh process does before it could time anything;
          [None] when the workload measures its own set-up *)
  run : Outcome.ctx -> Outcome.t -> unit;
  traced : Outcome.ctx -> Outcome.t -> unit;
}

let workloads =
  [
    ( Study_cold.name,
      { probe = Some (fun ctx -> ignore (Study_cold.setup ctx)); run = Study_cold.run;
        traced = Study_cold.traced } );
    (Serve_warm.name, { probe = None; run = Serve_warm.run; traced = Serve_warm.traced });
    ( Paper_figs.name,
      { probe = Some Paper_figs.setup; run = Paper_figs.run; traced = Paper_figs.traced } );
  ]

(* setup_s for the in-process workloads: the median of fresh processes
   that start, initialise every library, do the workload's set-up and
   exit — so work moved to start-up shows.  A probe takes about 2 ms,
   most of it process start, which is kernel work: its speed relative to
   the reference loop drifts by 10-15% over minutes on a shared host.
   So each probe is scaled by the start of a bare OCaml program,
   refproc.exe, timed just before and just after it: reference seconds
   here are seconds on a host where that start takes exactly 1 ms. *)
let probe_setup ctx out name =
  let spawn exe args =
    Host.time (fun () ->
        let pid = Unix.create_process exe args Unix.stdin Unix.stdout Unix.stderr in
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _ -> failwith (exe ^ " failed"))
    |> snd
  in
  let exe = Sys.executable_name in
  let args =
    [| exe; "--setup-probe"; name; "--seed"; string_of_int ctx.Outcome.seed; "--work"; ctx.Outcome.work |]
  in
  let refproc = Filename.concat (Filename.dirname exe) "refproc.exe" in
  let bare () = spawn refproc [| refproc |] in
  for _ = 1 to 21 do
    let before = bare () in
    let dt = spawn exe args in
    out.Outcome.setups <- (dt, Host.scale_of [ before; bare () ]) :: out.Outcome.setups
  done

let usage = "bench.exe --workload NAME --seed N --seconds S --trace 0|1 --work DIR"

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 10. in
  let trace = ref 0 and work = ref "" and probe = ref false in
  let daemon = ref None in
  Arg.parse
    [
      ( "--serve-daemon",
        Arg.Tuple
          (let socket = ref "" and cache = ref "" in
           [ Arg.Set_string socket; Arg.Set_string cache;
             Arg.Int (fun t -> daemon := Some (!socket, !cache, t = 1)) ]),
        "SOCKET CACHE_DIR 0|1 run serve_warm's daemon (internal)" );
      ("--workload", Arg.Set_string workload, "NAME study_cold, serve_warm or paper_figs");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measure for at least S seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run or traced run");
      ("--work", Arg.Set_string work, "DIR scratch directory");
      ("--setup-probe", Arg.String (fun w -> probe := true; workload := w), "NAME set up and exit");
    ]
    (fun arg -> raise (Arg.Bad ("unexpected argument " ^ arg)))
    usage;
  Option.iter
    (fun (socket, cache_dir, telemetry) ->
      Serve_warm.daemon_main ~socket ~cache_dir ~telemetry;
      exit 0)
    !daemon;
  let w =
    match List.assoc_opt !workload workloads with
    | Some w when !work <> "" && (!trace = 0 || !trace = 1) -> w
    | _ ->
      prerr_endline usage;
      exit 2
  in
  let committed =
    if !seed = default_seed then Checks.load_expected "perfbench/expected.digests" else []
  in
  let ctx =
    { Outcome.seed = !seed; seconds = !seconds; work = !work; committed; meter = Host.meter () }
  in
  Host.mkdir_p ctx.Outcome.work;
  if !probe then begin
    Option.iter (fun f -> f ctx) w.probe;
    exit 0
  end;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let traced = !trace = 1 in
  let out = Outcome.create () in
  print_endline
    (Mt_obsv.Json.to_string
       (Mt_obsv.Json.Obj
          [
            ( "host",
              Mt_obsv.Json.Obj
                (List.map (fun (k, v) -> (k, Mt_obsv.Json.Str v))
                   (Host.fingerprint ()
                   @ [ ("seed", string_of_int !seed); ("workload", !workload);
                       ("trace", string_of_int !trace) ])) );
          ]));
  if !seed = default_seed && committed = [] then
    Outcome.record out ~attempted:0 ~failed:0 [ "perfbench/expected.digests is missing" ];
  (try
     if traced then w.traced ctx out
     else begin
       Option.iter (fun _ -> probe_setup ctx out !workload) w.probe;
       w.run ctx out
     end
   with e -> Outcome.record out ~attempted:1 ~failed:1 [ "aborted: " ^ Printexc.to_string e ]);
  let metrics =
    List.map
      (fun (name, unit) ->
        match List.assoc_opt name out.Outcome.metrics with
        | Some (v, u) when u = unit && Float.is_finite v -> (name, v, unit)
        | Some (v, u) ->
          Outcome.record out ~attempted:0 ~failed:0
            [ Printf.sprintf "metric %s reads %g %s" name v u ];
          (name, 0., unit)
        | None ->
          if not traced then
            Outcome.record out ~attempted:0 ~failed:0 [ "metric " ^ name ^ " not measured" ];
          (name, 0., unit))
      (if traced then per_layer else end_to_end)
  in
  let attempted = max 1 out.Outcome.attempted in
  let correct = out.Outcome.failed = 0 && out.Outcome.problems = [] in
  List.iter print_endline (List.rev out.Outcome.notes);
  List.iter
    (fun (name, (v, unit)) -> Printf.printf "%-28s %14.6g %s\n" name v unit)
    (List.rev out.Outcome.metrics);
  Printf.printf "%-28s %14.6g %s\n" "failed_frac"
    (float_of_int out.Outcome.failed /. float_of_int attempted) "failed/attempted";
  List.iteri
    (fun i p -> if i < 20 then Printf.printf "FAILED: %s\n" p)
    (List.rev out.Outcome.problems);
  let json =
    let open Mt_obsv.Json in
    Obj
      [
        ("correct", Bool correct);
        ("attempted", Num (float_of_int attempted));
        ("failed", Num (float_of_int out.Outcome.failed));
        ( "metrics",
          Obj (List.map (fun (name, v, unit) -> (name, Obj [ ("value", Num v); ("unit", Str unit) ])) metrics) );
      ]
  in
  print_endline (Mt_obsv.Json.to_string json);
  exit (if correct then 0 else 1)

let ( let* ) = Result.bind

(* Chunks partition the iteration space, so a chunk's first iteration
   names it.  The whole record would not: dynamic and guided dispatch
   hand a chunk to whichever thread frees up first, rewriting its
   [thread]. *)
let rec collect_chunks opts program abi threads = function
  | [] -> Ok []
  | (c : Mt_openmp.chunk) :: rest ->
    let* prepared =
      Protocol.prepare ~sharers:threads ~passes:c.Mt_openmp.iterations
        ~start_pass:c.Mt_openmp.start_iteration ~noise_salt:c.Mt_openmp.thread opts
        program abi
    in
    let* tail = collect_chunks opts program abi threads rest in
    Ok ((c.Mt_openmp.start_iteration, prepared) :: tail)

let runtime_of opts =
  let threads = opts.Options.openmp_threads in
  let rt = Mt_openmp.default_runtime ~threads in
  let chunk = Option.value ~default:1 opts.Options.openmp_chunk in
  let schedule =
    match opts.Options.openmp_schedule, opts.Options.openmp_chunk with
    | Options.Omp_static, None -> Mt_openmp.Static
    | Options.Omp_static, Some size -> Mt_openmp.Static_chunk size
    | Options.Omp_dynamic, _ -> Mt_openmp.Dynamic chunk
    | Options.Omp_guided, _ -> Mt_openmp.Guided chunk
  in
  { rt with Mt_openmp.schedule }

let setup opts program abi =
  let threads = opts.Options.openmp_threads in
  if threads < 1 then Error "OpenMP mode requires openmp_threads >= 1"
  else begin
    let rt = runtime_of opts in
    (* The whole iteration space, as loop passes of the kernel. *)
    let total = Protocol.default_passes opts abi in
    let chunks = Mt_openmp.chunks_of rt ~total in
    let* prepared_chunks = collect_chunks opts program abi threads chunks in
    Ok (rt, total, prepared_chunks)
  end

(* Warm each thread's caches once, as the sequential protocol does. *)
let rec warm = function
  | [] -> Ok ()
  | (_, p) :: rest ->
    let* _ = Protocol.run_once p in
    warm rest

exception Chunk_failed of string

(* One parallel region; a chunk that fails fails the region. *)
let one_region cfg rt total prepared_chunks =
  let run_chunk (c : Mt_openmp.chunk) ~sharers:_ =
    match
      Protocol.run_once (List.assoc c.Mt_openmp.start_iteration prepared_chunks)
    with
    | Ok outcome -> outcome.Mt_machine.Core.cycles
    | Error msg -> raise (Chunk_failed msg)
  in
  match Mt_openmp.parallel_for cfg rt ~total ~run_chunk with
  | cycles -> Ok cycles
  | exception Chunk_failed msg -> Error msg

let region_cycles opts program abi =
  let* rt, total, prepared_chunks = setup opts program abi in
  let cfg = Options.effective_machine opts in
  let* () = warm prepared_chunks in
  one_region cfg rt total prepared_chunks

let run opts program abi =
  let* rt, total, prepared_chunks = setup opts program abi in
  match prepared_chunks with
  | [] -> Error "OpenMP mode: empty iteration space"
  | (_, first) :: _ ->
    let cfg = Options.effective_machine opts in
    let* () = if opts.Options.warmup then warm prepared_chunks else Ok () in
    let reps = opts.Options.repetitions in
    let rec experiment r acc =
      if r = 0 then Ok acc
      else
        let* cycles = one_region cfg rt total prepared_chunks in
        experiment (r - 1) (acc +. opts.Options.call_overhead_cycles +. cycles)
    in
    let rec experiments e acc =
      if e = 0 then Ok (List.rev acc)
      else
        let* sum = experiment reps 0. in
        experiments (e - 1) (sum :: acc)
    in
    let* totals = experiments opts.Options.experiments [] in
    let report =
      Protocol.report_of_totals
        ~mode:(Printf.sprintf "openmp:%d" opts.Options.openmp_threads)
        first ~actual_passes:total totals
    in
    Ok report

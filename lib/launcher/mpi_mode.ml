let ( let* ) = Result.bind

let communicator opts =
  let ranks = opts.Options.mpi_ranks in
  Mt_mpi.create (Options.effective_machine opts) ~ranks

let communication opts ~phase:_ =
  match opts.Options.mpi_halo_bytes with
  | Some bytes -> Mt_mpi.Halo_exchange bytes
  | None -> Mt_mpi.Barrier

(* Ranks are symmetric (same kernel, same chunk size up to the
   remainder, fair DRAM shares): simulate rank 0's chunk once per phase
   and reuse it, like fork mode does. *)
let setup opts program abi =
  let ranks = opts.Options.mpi_ranks in
  if ranks < 1 then Error "MPI mode requires mpi_ranks >= 1"
  else begin
    let total = Protocol.default_passes opts abi in
    let chunk = (total + ranks - 1) / ranks in
    let* prepared = Protocol.prepare ~sharers:ranks ~passes:chunk opts program abi in
    Ok (total, prepared)
  end

let one_job opts comm prepared =
  let reps = opts.Options.repetitions in
  (* One simulation per phase; every rank sees the same number. *)
  let phase_cost = Array.make reps 0. in
  let failed = ref None in
  for phase = 0 to reps - 1 do
    if !failed = None then begin
      match Protocol.run_once prepared with
      | Ok outcome -> phase_cost.(phase) <- outcome.Mt_machine.Core.cycles
      | Error msg -> failed := Some msg
    end
  done;
  match !failed with
  | Some msg -> Error msg
  | None ->
    Ok
      (Mt_mpi.run_spmd comm ~phases:reps
         ~compute:(fun ~rank:_ ~phase ~sharers:_ -> phase_cost.(phase))
         ~communication:(fun ~phase -> communication opts ~phase)
      +. (float_of_int reps *. opts.Options.call_overhead_cycles))

let run opts program abi =
  let* total, prepared = setup opts program abi in
  let comm = communicator opts in
  if opts.Options.warmup then ignore (Protocol.run_once prepared);
  let rec experiments n acc =
    if n = 0 then Ok (List.rev acc)
    else
      let* total_cycles = one_job opts comm prepared in
      experiments (n - 1) (total_cycles :: acc)
  in
  let* totals = experiments opts.Options.experiments [] in
  Ok
    (Protocol.report_of_totals
       ~mode:(Printf.sprintf "mpi:%d" opts.Options.mpi_ranks)
       prepared ~actual_passes:total totals)

let job_cycles opts program abi =
  let* _, prepared = setup opts program abi in
  let comm = communicator opts in
  if opts.Options.warmup then ignore (Protocol.run_once prepared);
  one_job opts comm prepared

type config = int list

let configs ~arrays ~candidates ?(limit = 4096) () =
  if arrays <= 0 then invalid_arg "Alignment.configs: arrays <= 0";
  if candidates = [] then invalid_arg "Alignment.configs: no candidates";
  (* The cross-product has |candidates|^arrays members but only [limit]
     are wanted: enumerate configuration k as the [arrays]-digit
     base-|candidates| numeral of k (first array most significant, so
     the order is lexicographic like the full product's), never
     materializing the rest.  Work is O(limit * arrays) however large
     the space. *)
  let cands = Array.of_list candidates in
  let base = Array.length cands in
  let total =
    (* min limit base^arrays, capping at [limit] each step so the
       product cannot overflow (8 candidates over 64 arrays is far past
       max_int). *)
    let rec go acc i =
      if i = 0 || acc >= limit then min acc limit else go (min limit (acc * base)) (i - 1)
    in
    go 1 arrays
  in
  List.init (max 0 total) (fun k ->
      let rec digits i k acc =
        if i = 0 then acc else digits (i - 1) (k / base) (cands.(k mod base) :: acc)
      in
      digits arrays k [])

let stride_configs ~arrays ~step ~modulus =
  if arrays <= 0 || step <= 0 || modulus <= 0 then
    invalid_arg "Alignment.stride_configs: non-positive argument";
  List.init (modulus / step) (fun k ->
      List.init arrays (fun i -> k * step * (i + 1) mod modulus))

type point = { offsets : config; report : Report.t }

let sweep opts program abi ~configs =
  let measure_config offsets =
    let opts = { opts with Options.alignments = offsets } in
    if opts.Options.cores > 1 then
      Result.map (fun r -> r.Fork_mode.aggregate) (Fork_mode.run opts program abi)
    else
      Result.bind (Protocol.prepare opts program abi) (fun prepared ->
          let report = Protocol.measure ~mode:"seq" prepared in
          Protocol.recycle prepared;
          report)
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | offsets :: rest -> (
      match measure_config offsets with
      | Ok report -> go ({ offsets; report } :: acc) rest
      | Error msg ->
        if opts.Options.keep_failures then go acc rest else Error msg)
  in
  go [] configs

let best points =
  match points with
  | [] -> invalid_arg "Alignment.best: no points"
  | p :: rest ->
    List.fold_left
      (fun acc q -> if q.report.Report.value < acc.report.Report.value then q else acc)
      p rest

let worst points =
  match points with
  | [] -> invalid_arg "Alignment.worst: no points"
  | p :: rest ->
    List.fold_left
      (fun acc q -> if q.report.Report.value > acc.report.Report.value then q else acc)
      p rest

let spread points =
  let lo = (best points).report.Report.value in
  let hi = (worst points).report.Report.value in
  if lo = 0. then 0. else (hi -. lo) /. lo

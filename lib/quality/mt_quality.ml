type verdict = Stable | Noisy of string | Unstable of string

let verdict_rank = function Stable -> 0 | Noisy _ -> 1 | Unstable _ -> 2

let verdict_kind = function
  | Stable -> "stable"
  | Noisy _ -> "noisy"
  | Unstable _ -> "unstable"

let verdict_to_string = function
  | Stable -> "stable"
  | Noisy reason -> "noisy: " ^ reason
  | Unstable reason -> "unstable: " ^ reason

let verdict_of_string s =
  let with_reason prefix make =
    let p = prefix ^ ": " in
    if s = prefix then Some (make "")
    else if String.length s >= String.length p
            && String.sub s 0 (String.length p) = p then
      Some (make (String.sub s (String.length p) (String.length s - String.length p)))
    else None
  in
  if s = "stable" then Ok Stable
  else
    match with_reason "noisy" (fun r -> Noisy r) with
    | Some v -> Ok v
    | None -> (
      match with_reason "unstable" (fun r -> Unstable r) with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "unknown verdict %S" s))

type thresholds = {
  cov_noisy : float;
  cov_unstable : float;
  rciw_noisy : float;
  rciw_unstable : float;
  outlier_mads : float;
  outlier_fraction : float;
  warmup_band : float;
  resamples : int;
  confidence : float;
}

let default_thresholds =
  {
    cov_noisy = 0.02;
    cov_unstable = 0.10;
    rciw_noisy = 0.08;
    rciw_unstable = 0.25;
    outlier_mads = 5.0;
    outlier_fraction = 0.20;
    warmup_band = 0.10;
    resamples = 200;
    confidence = 0.95;
  }

let thresholds_summary t =
  Printf.sprintf
    "cov %g/%g, rciw %g/%g, outliers %g mads (budget %g), warmup %g, %d \
     resamples at %g"
    t.cov_noisy t.cov_unstable t.rciw_noisy t.rciw_unstable t.outlier_mads
    t.outlier_fraction t.warmup_band t.resamples t.confidence

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let mad xs =
  if Array.length xs = 0 then invalid_arg "Mt_quality.mad: empty array";
  let m = Mt_stats.median xs in
  Mt_stats.median (Array.map (fun x -> Float.abs (x -. m)) xs)

(* 1.4826 ≈ 1 / Φ⁻¹(3/4): scales the MAD to estimate the stddev of a
   normal sample, so [outlier_mads] fences are comparable to z-scores. *)
let mad_scale = 1.4826

let outlier_count ?(mads = default_thresholds.outlier_mads) xs =
  if Array.length xs = 0 then 0
  else begin
    let m = Mt_stats.median xs in
    let fence = mads *. mad_scale *. mad xs in
    if fence <= 0. then 0
    else
      Array.fold_left
        (fun acc x -> if Float.abs (x -. m) > fence then acc + 1 else acc)
        0 xs
  end

(* The bootstrap's own SplitMix64 stream: independent of the global
   [Random] state, so an RCIW computed today matches the one in
   yesterday's snapshot bit for bit. *)
let rng_of_seed seed = Mt_stats.Splitmix.create (Int64.of_int (seed lxor 0x51D7A3C5))

let next_index r n =
  min (n - 1) (int_of_float (Mt_stats.Splitmix.next_unit r *. float_of_int n))

let rciw ?(resamples = default_thresholds.resamples)
    ?(confidence = default_thresholds.confidence) ~seed xs =
  let n = Array.length xs in
  let m = if n = 0 then 0. else Mt_stats.median xs in
  if n < 2 || m = 0. || resamples < 2 then 0.
  else begin
    let rng = rng_of_seed seed in
    let resample = Array.make n 0. in
    let medians =
      Array.init resamples (fun _ ->
          for i = 0 to n - 1 do
            resample.(i) <- xs.(next_index rng n)
          done;
          Mt_stats.median resample)
    in
    Array.sort Float.compare medians;
    let tail = (1. -. confidence) /. 2. *. 100. in
    let lo = Mt_stats.percentile_sorted medians tail in
    let hi = Mt_stats.percentile_sorted medians (100. -. tail) in
    (hi -. lo) /. Float.abs m
  end

let warmup_excess xs =
  let n = Array.length xs in
  if n < 3 then 0.
  else begin
    let tail = Array.sub xs 1 (n - 1) in
    let tm = Mt_stats.median tail in
    if tm = 0. then 0. else (xs.(0) -. tm) /. tm
  end

(* ------------------------------------------------------------------ *)
(* Assessment                                                          *)
(* ------------------------------------------------------------------ *)

type assessment = {
  verdict : verdict;
  cov : float;
  spread : float;
  rciw : float;
  outliers : int;
  warmup_trend : bool;
}

let pct x = Printf.sprintf "%.1f%%" (100. *. x)

let assess ?(thresholds = default_thresholds) ?(seed = 42) xs =
  if Array.length xs = 0 then invalid_arg "Mt_quality.assess: empty array";
  let t = thresholds in
  let n = Array.length xs in
  let cov = Mt_stats.coefficient_of_variation xs in
  let spread = Mt_stats.relative_spread xs in
  let rciw = rciw ~resamples:t.resamples ~confidence:t.confidence ~seed xs in
  let outliers = outlier_count ~mads:t.outlier_mads xs in
  let excess = warmup_excess xs in
  let warmup_trend = excess > t.warmup_band in
  let verdict =
    if n < 2 then Stable
    else if cov >= t.cov_unstable then
      Unstable (Printf.sprintf "cov %s >= %s" (pct cov) (pct t.cov_unstable))
    else if rciw >= t.rciw_unstable then
      Unstable (Printf.sprintf "rciw %s >= %s" (pct rciw) (pct t.rciw_unstable))
    else if cov >= t.cov_noisy then
      Noisy (Printf.sprintf "cov %s >= %s" (pct cov) (pct t.cov_noisy))
    else if rciw >= t.rciw_noisy then
      Noisy (Printf.sprintf "rciw %s >= %s" (pct rciw) (pct t.rciw_noisy))
    else if
      float_of_int outliers > t.outlier_fraction *. float_of_int n
    then
      Noisy (Printf.sprintf "%d/%d outliers beyond %g mads" outliers n t.outlier_mads)
    else if warmup_trend then
      Noisy
        (Printf.sprintf "warm-up drift: first experiment %s above the rest"
           (pct excess))
    else Stable
  in
  { verdict; cov; spread; rciw; outliers; warmup_trend }

let stable a = a.verdict = Stable

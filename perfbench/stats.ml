(* Order statistics for the benchmark's timings. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

type tail = {
  pct : float;  (** the percentile actually reported *)
  value : float;
  samples : int;
}

(* The tail rule: report the highest percentile, up to p95, that still
   has at least ten samples above it — a p95 over 40 samples would rest
   on two values.  Percentiles are nearest-rank: the p-th percentile is
   the value at sorted index ceil(pn/100)-1, and the value at index k
   has n-1-k samples beyond it.  When even the median lacks that support
   the median is reported, so the tail never reads below the p50. *)
let tail xs =
  let cap = 95. and beyond = 10 in
  let a = sorted xs in
  let n = Array.length a in
  let k_cap = int_of_float (Float.ceil (cap /. 100. *. float_of_int n)) - 1 in
  let k = min k_cap (n - 1 - beyond) in
  let k_median = ((n + 1) / 2) - 1 in
  if k <= k_median then { pct = 50.; value = median xs; samples = n }
  else
    let pct = if k = k_cap then cap else 100. *. float_of_int (k + 1) /. float_of_int n in
    { pct; value = a.(k); samples = n }

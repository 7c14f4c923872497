(* One run's settings and result set: attempts, failures, named metrics
   and the human-readable notes printed before the JSON line. *)

type ctx = {
  seed : int;
  seconds : float;  (** measure for at least this long *)
  work : string;  (** scratch directory, relative to the checkout *)
  committed : ((string * string) * string) list;
      (** expected.digests; empty unless [seed] is the default seed *)
  meter : Host.meter;  (** reference-loop samples taken during the run *)
}

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** newest first *)
  mutable metrics : (string * (float * string)) list;  (** newest first *)
  mutable notes : string list;  (** newest first *)
  mutable setups : (float * float) list;
      (** host seconds of each set-up, and the reference scale measured
          next to it *)
}

let create () =
  { attempted = 0; failed = 0; problems = []; metrics = []; notes = []; setups = [] }

let record t ~attempted ~failed problems =
  t.attempted <- t.attempted + attempted;
  t.failed <- t.failed + min attempted failed;
  t.problems <- List.rev_append problems t.problems

let metric t name unit value = t.metrics <- (name, (value, unit)) :: t.metrics

let note t fmt = Printf.ksprintf (fun s -> t.notes <- s :: t.notes) fmt

(* p50 and the tail percentile of one sample, with the sample count and
   the percentile the tail actually reports in the notes. *)
let latency t ~p50 ~tail ~unit xs =
  metric t p50 unit (Stats.median xs);
  let tl = Stats.tail xs in
  metric t tail unit tl.Stats.value;
  note t "%s: p%.1f over %d samples" tail tl.Stats.pct tl.Stats.samples

(* A unit of work measured for the end-to-end metrics: its host seconds,
   the jobs in it (host seconds), the reference scale measured during it,
   and the working process's peak RSS (MiB) the workload reports for it. *)
type unit_run = { wall : float; jobs : float list; scale : float; rss : float }

(* The end-to-end timings in reference seconds; [results] are the
   variants (or rows) one unit produces. *)
let end_to_end t ctx ~results units =
  metric t "setup_s" "s" (Stats.median (List.map (fun (s, k) -> s *. k) t.setups));
  let wall = Stats.median (List.map (fun u -> u.wall *. u.scale) units) in
  metric t "wall_s" "s" wall;
  metric t "variants_per_s" "1/s" (float_of_int results /. wall);
  latency t ~p50:"job_p50_ms" ~tail:"job_p95_ms" ~unit:"ms"
    (List.concat_map (fun u -> List.map (fun s -> s *. u.scale *. 1e3) u.jobs) units);
  metric t "peak_rss_mb" "MiB" (Stats.median (List.map (fun u -> u.rss) units));
  note t "host seconds: set-up %.6g, wall %.6g; reference loop %.4f ms over %d samples"
    (Stats.median (List.map fst t.setups))
    (Stats.median (List.map (fun u -> u.wall) units))
    (1e3 *. Stats.median ctx.meter.Host.samples)
    (List.length ctx.meter.Host.samples)

let gc_metrics t (before : Host.gc) (after : Host.gc) =
  metric t "gc.minor_collections" "count" (float_of_int (after.minor - before.minor));
  metric t "gc.major_collections" "count" (float_of_int (after.major - before.major));
  metric t "gc.top_heap_mb" "MiB" (Host.words_to_mb after.top_heap_words)

(* A digest line for every checked output, so expected.digests can be
   regenerated from a default-seed run. *)
let digest t ctx ~workload ~name text =
  note t "digest %s %s %s" workload name (Checks.digest text);
  if ctx.committed = [] then []
  else
    match Checks.check_committed ctx.committed ~workload ~name text with
    | Ok () -> []
    | Error msg -> [ msg ]

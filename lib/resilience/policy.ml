type t = {
  retries : int;
  backoff_base_s : float;
  backoff_max_s : float;
  backoff_jitter : float;
  backoff_seed : int;
  wall_budget_s : float option;
  sim_budget : int option;
}

let default =
  {
    retries = 1;
    backoff_base_s = 0.002;
    backoff_max_s = 0.25;
    backoff_jitter = 0.5;
    backoff_seed = 42;
    wall_budget_s = None;
    sim_budget = None;
  }

let make ?(retries = default.retries) ?(backoff_base_s = default.backoff_base_s)
    ?(backoff_max_s = default.backoff_max_s)
    ?(backoff_jitter = default.backoff_jitter)
    ?(backoff_seed = default.backoff_seed) ?wall_budget_s ?sim_budget () =
  {
    retries = max 0 retries;
    backoff_base_s = Float.max 0. backoff_base_s;
    backoff_max_s = Float.max 0. backoff_max_s;
    backoff_jitter = Float.max 0. backoff_jitter;
    backoff_seed;
    wall_budget_s;
    sim_budget;
  }

(* One uniform draw in [0, 1) from (seed, key, attempt), through
   Mt_stats.Splitmix: the jitter stream is a pure function of its
   inputs, never the global [Random] state, so a rerun backs off by
   exactly the same delays.  The string key is folded through its MD5
   digest so similar keys (variant ids differ in one digit) land far
   apart in the stream. *)
let uniform ~seed ~key ~attempt =
  let digest = Digest.string (Printf.sprintf "%d:%s:%d" seed key attempt) in
  let fold acc i = Int64.add (Int64.mul acc 257L) (Int64.of_int (Char.code digest.[i])) in
  let state = List.fold_left fold (Int64.of_int seed) [ 0; 1; 2; 3; 4; 5; 6; 7 ] in
  Mt_stats.Splitmix.next_unit (Mt_stats.Splitmix.create state)

let delay t ~key ~attempt =
  if attempt < 1 then 0.
  else begin
    let base = t.backoff_base_s *. Float.pow 2. (float_of_int (attempt - 1)) in
    let u = uniform ~seed:t.backoff_seed ~key ~attempt in
    Float.min t.backoff_max_s (base *. (1. +. (t.backoff_jitter *. u)))
  end

let summary t =
  Printf.sprintf "retries=%d backoff=%gs..%gs jitter=%g seed=%d wall=%s sim=%s"
    t.retries t.backoff_base_s t.backoff_max_s t.backoff_jitter t.backoff_seed
    (match t.wall_budget_s with Some s -> Printf.sprintf "%gs" s | None -> "-")
    (match t.sim_budget with Some n -> string_of_int n | None -> "-")

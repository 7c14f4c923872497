(* The mt_serve wire protocol: line-delimited JSON over a Unix-domain
   stream socket, built on Mt_obsv.Json (which escapes every control
   character, so one message is always exactly one line). *)

module J = Mt_obsv.Json

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

type machine = Preset of string | Inline_xml of string

(* The serializable slice of Study.Run_config: everything that shapes
   how a submitted study measures (seed, adaptive stopping, budgets,
   injected faults).  The non-serializable rest — domains, the cache
   handle, journal/trace paths — is the daemon's to provide, so a
   submission can never point the server at arbitrary files. *)
type run_options = {
  seed : int option;
  adaptive : (float * int) option;  (* rciw_target, max_experiments *)
  wall_budget_s : float option;
  sim_budget : int option;
  faults : Mt_resilience.Fault.t list;
  profile : bool;
}

type submission = {
  kernel_xml : string;
  machine : machine;
  array_kb : int;
  per : string;  (* pass | instruction | element | call *)
  repetitions : int;
  experiments : int;
  run : run_options;
}

(* The live metrics dump: what a scraper sees.  Counters are the
   monotonic ints of the stats reply; gauges carry the float-valued
   instantaneous readings (uptime); summaries are the latency
   histograms with live quantiles.  [Prometheus] asks the daemon to
   render the same data as text exposition format, so a curl-equivalent
   client needs no JSON handling at all. *)
type metrics_format = Metrics_json | Metrics_prometheus

type summary_metric = {
  m_count : int;
  m_sum : float;
  m_quantiles : (float * float) list;  (* (quantile in [0,1], value) *)
}

type metrics = {
  m_counters : (string * int) list;
  m_gauges : (string * float) list;
  m_summaries : (string * summary_metric) list;
}

type request = Submit of submission | Ping | Stats | Metrics of metrics_format | Shutdown

type reject_reason = Queue_full | Bad_request of string

type response =
  | Accepted of { job : int; queue_depth : int }
  | Rejected of reject_reason
  | Header of string list
  | Row of string list
  | Snapshot of J.t
  | Done of { job : int; quarantined : int; cache_hit_rate : float }
  | Failed of { job : int; message : string }
  | Pong
  | Stats_reply of (string * int) list
  | Metrics_reply of metrics
  | Metrics_text of string  (* Prometheus text exposition *)
  | Bye

let reject_to_string = function
  | Queue_full -> "queue-full"
  | Bad_request msg -> "bad-request: " ^ msg

(* ------------------------------------------------------------------ *)
(* Run_config <-> run_options                                          *)
(* ------------------------------------------------------------------ *)

let default_run_options =
  {
    seed = None;
    adaptive = None;
    wall_budget_s = None;
    sim_budget = None;
    faults = [];
    profile = false;
  }

module Run_config = Microtools.Study.Run_config

let run_options_of_config (c : Run_config.t) =
  {
    seed = c.Run_config.seed;
    adaptive = c.Run_config.adaptive;
    wall_budget_s = c.Run_config.wall_budget_s;
    sim_budget = c.Run_config.sim_budget;
    faults = c.Run_config.faults;
    profile = c.Run_config.profile;
  }

(* Overlay the wire options onto the daemon's base config.  The base
   keeps its domains, cache and output routing; the submission decides
   seed, adaptive stopping, budgets and faults. *)
let config_into_base run (base : Run_config.t) =
  {
    base with
    Run_config.seed = run.seed;
    adaptive = run.adaptive;
    wall_budget_s = run.wall_budget_s;
    sim_budget = run.sim_budget;
    faults = run.faults;
    profile = run.profile;
  }

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let num_opt = function None -> J.Null | Some v -> J.Num v

let int_opt = function None -> J.Null | Some v -> J.Num (float_of_int v)

let machine_to_json = function
  | Preset name -> J.Obj [ ("preset", J.Str name) ]
  | Inline_xml xml -> J.Obj [ ("xml", J.Str xml) ]

let run_options_to_json r =
  J.Obj
    [
      ("seed", int_opt r.seed);
      ( "adaptive",
        match r.adaptive with
        | None -> J.Null
        | Some (target, budget) ->
          J.Obj
            [
              ("rciw_target", J.Num target);
              ("max_experiments", J.Num (float_of_int budget));
            ] );
      ("wall_budget_s", num_opt r.wall_budget_s);
      ("sim_budget", int_opt r.sim_budget);
      ( "faults",
        J.List
          (List.map (fun f -> J.Str (Mt_resilience.Fault.to_spec f)) r.faults)
      );
      ("profile", J.Bool r.profile);
    ]

let submission_to_json s =
  J.Obj
    [
      ("kernel_xml", J.Str s.kernel_xml);
      ("machine", machine_to_json s.machine);
      ("array_kb", J.Num (float_of_int s.array_kb));
      ("per", J.Str s.per);
      ("repetitions", J.Num (float_of_int s.repetitions));
      ("experiments", J.Num (float_of_int s.experiments));
      ("run", run_options_to_json s.run);
    ]

let metrics_format_to_string = function
  | Metrics_json -> "json"
  | Metrics_prometheus -> "prometheus"

let metrics_format_of_string = function
  | "json" -> Ok Metrics_json
  | "prometheus" -> Ok Metrics_prometheus
  | f -> Error (Printf.sprintf "unknown metrics format %S" f)

let summary_to_json s =
  J.Obj
    [
      ("count", J.Num (float_of_int s.m_count));
      ("sum", J.Num s.m_sum);
      ( "quantiles",
        J.Obj
          (List.map
             (fun (q, v) -> (Printf.sprintf "%g" q, J.Num v))
             s.m_quantiles) );
    ]

let metrics_to_json m =
  J.Obj
    [
      ( "counters",
        J.Obj (List.map (fun (k, v) -> (k, J.Num (float_of_int v))) m.m_counters)
      );
      ("gauges", J.Obj (List.map (fun (k, v) -> (k, J.Num v)) m.m_gauges));
      ( "summaries",
        J.Obj (List.map (fun (k, s) -> (k, summary_to_json s)) m.m_summaries) );
    ]

(* Prometheus text exposition: the generic encoder lives in
   Mt_telemetry (the one-shot binaries' --metrics-out FILE.prom uses it
   too); this wrapper just reshapes the wire metrics record. *)
let prometheus_of_metrics m =
  Mt_telemetry.prometheus_exposition ~gauges:m.m_gauges
    ~summaries:
      (List.map
         (fun (k, s) -> (k, (s.m_count, s.m_sum, s.m_quantiles)))
         m.m_summaries)
    m.m_counters

let request_to_json = function
  | Submit s -> J.Obj [ ("type", J.Str "submit"); ("job", submission_to_json s) ]
  | Ping -> J.Obj [ ("type", J.Str "ping") ]
  | Stats -> J.Obj [ ("type", J.Str "stats") ]
  | Metrics fmt ->
    J.Obj
      [
        ("type", J.Str "metrics");
        ("format", J.Str (metrics_format_to_string fmt));
      ]
  | Shutdown -> J.Obj [ ("type", J.Str "shutdown") ]

let cells_to_json cells = J.List (List.map (fun c -> J.Str c) cells)

let response_to_json = function
  | Accepted { job; queue_depth } ->
    J.Obj
      [
        ("type", J.Str "accepted");
        ("job", J.Num (float_of_int job));
        ("queue_depth", J.Num (float_of_int queue_depth));
      ]
  | Rejected Queue_full ->
    J.Obj [ ("type", J.Str "rejected"); ("reason", J.Str "queue-full") ]
  | Rejected (Bad_request msg) ->
    J.Obj
      [
        ("type", J.Str "rejected");
        ("reason", J.Str "bad-request");
        ("detail", J.Str msg);
      ]
  | Header cells -> J.Obj [ ("type", J.Str "header"); ("cells", cells_to_json cells) ]
  | Row cells -> J.Obj [ ("type", J.Str "row"); ("cells", cells_to_json cells) ]
  | Snapshot doc -> J.Obj [ ("type", J.Str "snapshot"); ("data", doc) ]
  | Done { job; quarantined; cache_hit_rate } ->
    J.Obj
      [
        ("type", J.Str "done");
        ("job", J.Num (float_of_int job));
        ("quarantined", J.Num (float_of_int quarantined));
        ("cache_hit_rate", J.Num cache_hit_rate);
      ]
  | Failed { job; message } ->
    J.Obj
      [
        ("type", J.Str "failed");
        ("job", J.Num (float_of_int job));
        ("message", J.Str message);
      ]
  | Pong -> J.Obj [ ("type", J.Str "pong") ]
  | Stats_reply counters ->
    J.Obj
      [
        ("type", J.Str "stats");
        ( "counters",
          J.Obj (List.map (fun (k, v) -> (k, J.Num (float_of_int v))) counters)
        );
      ]
  | Metrics_reply m ->
    J.Obj (("type", J.Str "metrics") :: (match metrics_to_json m with
      | J.Obj fields -> fields
      | _ -> []))
  | Metrics_text text ->
    J.Obj [ ("type", J.Str "metrics_text"); ("text", J.Str text) ]
  | Bye -> J.Obj [ ("type", J.Str "bye") ]

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let field name doc =
  match J.member name doc with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let str name doc =
  let* v = field name doc in
  match J.to_str v with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "field %S: expected a string" name)

let int_field name doc =
  let* v = field name doc in
  match J.to_int v with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "field %S: expected an integer" name)

let float_field name doc =
  let* v = field name doc in
  match J.to_float v with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "field %S: expected a number" name)

let opt_of name conv doc =
  match J.member name doc with
  | None | Some J.Null -> Ok None
  | Some v -> (
    match conv v with
    | Some x -> Ok (Some x)
    | None -> Error (Printf.sprintf "field %S: bad value" name))

let cells_of doc =
  let* v = field "cells" doc in
  match J.to_list v with
  | None -> Error "field \"cells\": expected a list"
  | Some items ->
    List.fold_left
      (fun acc item ->
        let* acc = acc in
        match J.to_str item with
        | Some s -> Ok (s :: acc)
        | None -> Error "field \"cells\": expected strings")
      (Ok []) items
    |> Result.map List.rev

let machine_of_json doc =
  match (J.member "preset" doc, J.member "xml" doc) with
  | Some (J.Str name), _ -> Ok (Preset name)
  | _, Some (J.Str xml) -> Ok (Inline_xml xml)
  | _ -> Error "machine: expected {\"preset\": name} or {\"xml\": text}"

let run_options_of_json doc =
  let* seed = opt_of "seed" J.to_int doc in
  let* adaptive =
    match J.member "adaptive" doc with
    | None | Some J.Null -> Ok None
    | Some a ->
      let* target = float_field "rciw_target" a in
      let* budget = int_field "max_experiments" a in
      if Float.is_finite target && target > 0. then Ok (Some (target, budget))
      else Error "field \"rciw_target\": not positive and finite"
  in
  (* Older clients also send their retry settings; like any unknown
     member they are ignored.  A budget no run can meet is refused
     here, as Mt_cli refuses it on the command line. *)
  let budget name conv ~ok =
    let* v = opt_of name conv doc in
    match v with
    | Some x when not (ok x) ->
      Error (Printf.sprintf "field %S: not a positive, finite budget" name)
    | _ -> Ok v
  in
  let* wall_budget_s =
    budget "wall_budget_s" J.to_float ~ok:(fun s -> Float.is_finite s && s > 0.)
  in
  let* sim_budget = budget "sim_budget" J.to_int ~ok:(fun n -> n > 0) in
  let* faults =
    let* v = field "faults" doc in
    match J.to_list v with
    | None -> Error "field \"faults\": expected a list"
    | Some items ->
      List.fold_left
        (fun acc item ->
          let* acc = acc in
          match item with
          | J.Str spec ->
            let* f = Mt_resilience.Fault.of_spec spec in
            Ok (f :: acc)
          | _ -> Error "field \"faults\": expected fault spec strings")
        (Ok []) items
      |> Result.map List.rev
  in
  (* Absent in pre-profile clients: default off, never an error. *)
  let profile =
    match Option.bind (J.member "profile" doc) J.to_bool with
    | Some b -> b
    | None -> false
  in
  (* Older clients send "plan": null, which means no plan.  A plan
     itself is refused rather than ignored: its experiment budgets
     would be dropped without the client knowing. *)
  let* () =
    match J.member "plan" doc with
    | None | Some J.Null -> Ok ()
    | Some _ ->
      Error
        "field \"plan\": study plans are no longer supported; use \
         --experiments N --adaptive-experiments"
  in
  Ok { seed; adaptive; wall_budget_s; sim_budget; faults; profile }

let submission_of_json doc =
  let* kernel_xml = str "kernel_xml" doc in
  let* machine_doc = field "machine" doc in
  let* machine = machine_of_json machine_doc in
  let* array_kb = int_field "array_kb" doc in
  let* per = str "per" doc in
  let* repetitions = int_field "repetitions" doc in
  let* experiments = int_field "experiments" doc in
  let* run_doc = field "run" doc in
  let* run = run_options_of_json run_doc in
  Ok { kernel_xml; machine; array_kb; per; repetitions; experiments; run }

let request_of_json doc =
  let* kind = str "type" doc in
  match kind with
  | "submit" ->
    let* job = field "job" doc in
    let* s = submission_of_json job in
    Ok (Submit s)
  | "ping" -> Ok Ping
  | "stats" -> Ok Stats
  | "metrics" -> (
    match J.member "format" doc with
    | None -> Ok (Metrics Metrics_json)
    | Some v -> (
      match J.to_str v with
      | None -> Error "field \"format\": expected a string"
      | Some f ->
        let* fmt = metrics_format_of_string f in
        Ok (Metrics fmt)))
  | "shutdown" -> Ok Shutdown
  | k -> Error (Printf.sprintf "unknown request type %S" k)

let response_of_json doc =
  let* kind = str "type" doc in
  match kind with
  | "accepted" ->
    let* job = int_field "job" doc in
    let* queue_depth = int_field "queue_depth" doc in
    Ok (Accepted { job; queue_depth })
  | "rejected" -> (
    let* reason = str "reason" doc in
    match reason with
    | "queue-full" -> Ok (Rejected Queue_full)
    | "bad-request" ->
      let detail =
        Option.value ~default:"" (Option.bind (J.member "detail" doc) J.to_str)
      in
      Ok (Rejected (Bad_request detail))
    | r -> Error (Printf.sprintf "unknown rejection reason %S" r))
  | "header" ->
    let* cells = cells_of doc in
    Ok (Header cells)
  | "row" ->
    let* cells = cells_of doc in
    Ok (Row cells)
  | "snapshot" ->
    let* data = field "data" doc in
    Ok (Snapshot data)
  | "done" ->
    let* job = int_field "job" doc in
    let* quarantined = int_field "quarantined" doc in
    let* cache_hit_rate = float_field "cache_hit_rate" doc in
    Ok (Done { job; quarantined; cache_hit_rate })
  | "failed" ->
    let* job = int_field "job" doc in
    let* message = str "message" doc in
    Ok (Failed { job; message })
  | "pong" -> Ok Pong
  | "stats" ->
    let* v = field "counters" doc in
    (match J.to_obj v with
    | None -> Error "field \"counters\": expected an object"
    | Some kvs ->
      List.fold_left
        (fun acc (k, v) ->
          let* acc = acc in
          match J.to_int v with
          | Some n -> Ok ((k, n) :: acc)
          | None -> Error "field \"counters\": expected integers")
        (Ok []) kvs
      |> Result.map List.rev)
    |> Result.map (fun counters -> Stats_reply counters)
  | "metrics" ->
    let int_obj name =
      match J.member name doc with
      | None -> Ok []
      | Some v -> (
        match J.to_obj v with
        | None -> Error (Printf.sprintf "field %S: expected an object" name)
        | Some kvs ->
          Ok (List.filter_map (fun (k, v) ->
                Option.map (fun n -> (k, n)) (J.to_int v)) kvs))
    in
    let float_obj name =
      match J.member name doc with
      | None -> Ok []
      | Some v -> (
        match J.to_obj v with
        | None -> Error (Printf.sprintf "field %S: expected an object" name)
        | Some kvs ->
          Ok (List.filter_map (fun (k, v) ->
                Option.map (fun f -> (k, f)) (J.to_float v)) kvs))
    in
    let* m_counters = int_obj "counters" in
    let* m_gauges = float_obj "gauges" in
    let* m_summaries =
      match J.member "summaries" doc with
      | None -> Ok []
      | Some v -> (
        match J.to_obj v with
        | None -> Error "field \"summaries\": expected an object"
        | Some kvs ->
          List.fold_left
            (fun acc (k, s) ->
              let* acc = acc in
              let* m_count = int_field "count" s in
              let* m_sum = float_field "sum" s in
              let m_quantiles =
                match Option.bind (J.member "quantiles" s) J.to_obj with
                | None -> []
                | Some qs ->
                  List.filter_map
                    (fun (q, v) ->
                      match (float_of_string_opt q, J.to_float v) with
                      | Some q, Some v -> Some (q, v)
                      | _ -> None)
                    qs
              in
              Ok ((k, { m_count; m_sum; m_quantiles }) :: acc))
            (Ok []) kvs
          |> Result.map List.rev)
    in
    Ok (Metrics_reply { m_counters; m_gauges; m_summaries })
  | "metrics_text" ->
    let* text = str "text" doc in
    Ok (Metrics_text text)
  | "bye" -> Ok Bye
  | k -> Error (Printf.sprintf "unknown response type %S" k)

(* ------------------------------------------------------------------ *)
(* Line framing                                                        *)
(* ------------------------------------------------------------------ *)

let write_line oc json =
  output_string oc (J.to_string json);
  output_char oc '\n';
  flush oc

let send_request oc r = write_line oc (request_to_json r)

let send_response oc r = write_line oc (response_to_json r)

(* The largest request this repository's clients send is mt_study
   --submit of multiarray8 with its machine inline (--machine-file):
   4,751 bytes. *)
let max_request_bytes = 4 * 1024 * 1024

(* One request line, read in chunks: a connection carries one request,
   so whatever the peer sent after its newline is dropped.  A line that
   outgrows [limit] bytes is an [Error] as soon as the chunk holding its
   [limit + 1]-th byte arrives, so a peer that never sends a newline
   cannot grow the buffer without bound. *)
let input_request_line ic ~limit =
  let chunk = Bytes.create 4096 in
  let line = Buffer.create 4096 in
  let rec go () =
    match input ic chunk 0 (Bytes.length chunk) with
    | 0 ->
      if Buffer.length line = 0 then None else Some (Ok (Buffer.contents line))
    | n ->
      (* The chunk's bytes before its newline, or all of them. *)
      let used = ref 0 in
      while !used < n && Bytes.get chunk !used <> '\n' do
        incr used
      done;
      if Buffer.length line + !used > limit then
        Some (Error (Printf.sprintf "request line exceeds %d bytes" limit))
      else begin
        Buffer.add_subbytes line chunk 0 !used;
        if !used < n then Some (Ok (Buffer.contents line)) else go ()
      end
  in
  go ()

let decode_line of_json line =
  Option.map
    (fun line -> Result.bind (Result.bind line J.of_string) of_json)
    line

let read_request ic =
  decode_line request_of_json (input_request_line ic ~limit:max_request_bytes)

let read_response ic =
  decode_line response_of_json
    (match input_line ic with
    | line -> Some (Ok line)
    | exception End_of_file -> None)

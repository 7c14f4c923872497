type hist = { count : int; sum : float; minimum : float; maximum : float }

type event = {
  name : string;
  args : (string * string) list;
  tid : int;
  start_us : float;
  dur_us : float;
  depth : int;
}

type sample = {
  series_name : string;
  sample_tid : int;
  ts_us : float;
  values : (string * float) list;
}

(* A bounded ring of the most recent observations per histogram, so
   quantiles reflect the live window of a long-running daemon rather
   than its whole lifetime.  2048 values bounds memory per histogram
   regardless of uptime. *)
type reservoir = { buf : float array; mutable len : int; mutable pos : int }

let reservoir_capacity = 2048

type state = {
  keep_events : bool;  (* false: [events] and [samples] stay empty *)
  mutable events : event list;  (* newest first *)
  mutable samples : sample list;  (* newest first *)
  counters : (string, int) Hashtbl.t;
  histograms : (string, hist) Hashtbl.t;
  reservoirs : (string, reservoir) Hashtbl.t;
  lock : Mutex.t;
  epoch : float;
  depth : int ref Domain.DLS.key;
}

(* [None] is the disabled handle: every operation dispatches on it with
   a single match, so instrumented code costs one branch when telemetry
   is off. *)
type t = state option

let disabled : t = None

(* Span durations come from the monotonic clock (an NTP step or manual
   clock change mid-run must not skew them); [Unix.gettimeofday] is only
   used for wall-clock provenance stamps elsewhere. *)
let mono_us () = Int64.to_float (Monotonic_clock.now ()) /. 1e3

let create ?(events = true) () : t =
  Some
    {
      keep_events = events;
      events = [];
      samples = [];
      counters = Hashtbl.create 64;
      histograms = Hashtbl.create 16;
      reservoirs = Hashtbl.create 16;
      lock = Mutex.create ();
      epoch = mono_us ();
      depth = Domain.DLS.new_key (fun () -> ref 0);
    }

let enabled = Option.is_some

(* ------------------------------------------------------------------ *)
(* The process-wide handle                                             *)
(* ------------------------------------------------------------------ *)

let global_handle : t Atomic.t = Atomic.make disabled

let global () = Atomic.get global_handle

let set_global t = Atomic.set global_handle t

(* ------------------------------------------------------------------ *)
(* Trace detail                                                        *)
(* ------------------------------------------------------------------ *)

type detail = Off | Sampled | Full

let detail_level : detail Atomic.t = Atomic.make Off

let detail () = Atomic.get detail_level

let set_detail d = Atomic.set detail_level d

let detail_to_string = function Off -> "off" | Sampled -> "sampled" | Full -> "full"

let detail_of_string = function
  | "off" -> Ok Off
  | "sampled" -> Ok Sampled
  | "full" -> Ok Full
  | s -> Error (Printf.sprintf "unknown trace detail %S (off, sampled, full)" s)

let sample_stride = function Off -> 0 | Sampled -> 64 | Full -> 1

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

let locked s f =
  Mutex.lock s.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.lock) f

let add t name n =
  match t with
  | None -> ()
  | Some s ->
    locked s (fun () ->
        Hashtbl.replace s.counters name
          (n + Option.value ~default:0 (Hashtbl.find_opt s.counters name)))

let incr t name = add t name 1

let counter t name =
  match t with
  | None -> 0
  | Some s ->
    locked s (fun () -> Option.value ~default:0 (Hashtbl.find_opt s.counters name))

let sorted_bindings table =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) table [])

let counters t =
  match t with None -> [] | Some s -> locked s (fun () -> sorted_bindings s.counters)

let observe_locked s name v =
  let h =
    match Hashtbl.find_opt s.histograms name with
    | None -> { count = 1; sum = v; minimum = v; maximum = v }
    | Some h ->
      {
        count = h.count + 1;
        sum = h.sum +. v;
        minimum = Float.min h.minimum v;
        maximum = Float.max h.maximum v;
      }
  in
  Hashtbl.replace s.histograms name h;
  let r =
    match Hashtbl.find_opt s.reservoirs name with
    | Some r -> r
    | None ->
      let r = { buf = Array.make reservoir_capacity 0.; len = 0; pos = 0 } in
      Hashtbl.replace s.reservoirs name r;
      r
  in
  r.buf.(r.pos) <- v;
  r.pos <- (r.pos + 1) mod reservoir_capacity;
  if r.len < reservoir_capacity then r.len <- r.len + 1

let observe t name v =
  match t with None -> () | Some s -> locked s (fun () -> observe_locked s name v)

let histograms t =
  match t with
  | None -> []
  | Some s -> locked s (fun () -> sorted_bindings s.histograms)

let quantile t name p =
  match t with
  | None -> None
  | Some s ->
    let snapshot =
      locked s (fun () ->
          match Hashtbl.find_opt s.reservoirs name with
          | None -> None
          | Some r when r.len = 0 -> None
          | Some r -> Some (Array.sub r.buf 0 r.len))
    in
    Option.map
      (fun values ->
        Array.sort Float.compare values;
        Mt_stats.percentile_sorted values p)
      snapshot

let now_us s = mono_us () -. s.epoch

let span ?(args = []) t name f =
  match t with
  | None -> f ()
  | Some s ->
    let d = Domain.DLS.get s.depth in
    let depth = !d in
    d := depth + 1;
    let start_us = now_us s in
    Fun.protect
      ~finally:(fun () ->
        let dur_us = now_us s -. start_us in
        d := depth;
        let e =
          { name; args; tid = (Domain.self () :> int); start_us; dur_us; depth }
        in
        locked s (fun () ->
            if s.keep_events then s.events <- e :: s.events;
            observe_locked s ("span." ^ name ^ ".us") dur_us))
      f

let emit ?(args = []) ?tid t name ~start_us ~dur_us =
  match t with
  | Some s when s.keep_events ->
    let tid = match tid with Some tid -> tid | None -> (Domain.self () :> int) in
    let e = { name; args; tid; start_us; dur_us; depth = 0 } in
    locked s (fun () -> s.events <- e :: s.events)
  | Some _ | None -> ()

let series ?ts_us ?tid t name values =
  match t with
  | Some s when s.keep_events ->
    let ts_us = match ts_us with Some ts -> ts | None -> now_us s in
    let tid = match tid with Some tid -> tid | None -> (Domain.self () :> int) in
    let p = { series_name = name; sample_tid = tid; ts_us; values } in
    locked s (fun () -> s.samples <- p :: s.samples)
  | Some _ | None -> ()

let events t =
  match t with None -> [] | Some s -> locked s (fun () -> List.rev s.events)

let samples t =
  match t with None -> [] | Some s -> locked s (fun () -> List.rev s.samples)

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

let chrome_trace t =
  let module J = Mt_stats.Json in
  let pid = J.Num (float_of_int (Unix.getpid ())) in
  (* Times keep three decimals: parsed back, each is exactly the value
     ["%.3f"] prints. *)
  let us x = J.Num (float_of_string (Printf.sprintf "%.3f" x)) in
  let head name ph tid ts =
    [
      ("name", J.Str name);
      ("cat", J.Str "microtools");
      ("ph", J.Str ph);
      ("pid", pid);
      ("tid", J.Num (float_of_int tid));
      ("ts", us ts);
    ]
  in
  let b = Buffer.create 4096 in
  let sep = ref false in
  let add event =
    if !sep then Buffer.add_char b ',' else sep := true;
    Buffer.add_string b (J.to_string (J.Obj event))
  in
  Buffer.add_string b "{\"traceEvents\":[";
  List.iter
    (fun e ->
      add
        (head e.name "X" e.tid e.start_us
        @ ("dur", us e.dur_us)
          ::
          (match e.args with
          | [] -> []
          | args -> [ ("args", J.Obj (List.map (fun (k, v) -> (k, J.Str v)) args)) ])))
    (events t);
  (* Counter samples become Chrome "C" events: one track per series
     name, one stacked sub-series per value key. *)
  List.iter
    (fun p ->
      add
        (head p.series_name "C" p.sample_tid p.ts_us
        @ [ ("args", J.Obj (List.map (fun (k, v) -> (k, J.Num v)) p.values)) ]))
    (samples t);
  Buffer.add_string b "],\"displayTimeUnit\":\"ms\"}";
  Buffer.contents b

let metrics_csv t =
  let doc = Mt_stats.Csv.create ~header:[ "key"; "value" ] in
  List.iter
    (fun (k, v) -> Mt_stats.Csv.add_row doc [ k; string_of_int v ])
    (counters t);
  List.iter
    (fun (k, h) ->
      let row suffix v = Mt_stats.Csv.add_row doc [ k ^ suffix; v ] in
      row ".count" (string_of_int h.count);
      row ".sum" (Printf.sprintf "%.6g" h.sum);
      row ".min" (Printf.sprintf "%.6g" h.minimum);
      row ".max" (Printf.sprintf "%.6g" h.maximum);
      row ".mean" (Printf.sprintf "%.6g" (h.sum /. float_of_int (max 1 h.count))))
    (histograms t);
  Mt_stats.Csv.to_string doc

(* Prometheus text exposition (version 0.0.4), shared by the mt_serve
   metrics endpoint and the one-shot binaries' --metrics-out FILE.prom
   path: dotted metric names become underscore-separated (these are
   internal dashboards, not a public contract), counters keep their
   name verbatim, summaries expand to quantile-labelled samples plus
   _sum/_count. *)
let prometheus_name name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    name

let prometheus_exposition ?(gauges = []) ?(summaries = []) counters =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (k, v) ->
      let n = prometheus_name k in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n%s %d\n" n n v))
    counters;
  List.iter
    (fun (k, v) ->
      let n = prometheus_name k in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s gauge\n%s %g\n" n n v))
    gauges;
  List.iter
    (fun (k, (count, sum, quantiles)) ->
      let n = prometheus_name k in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s summary\n" n);
      List.iter
        (fun (q, v) ->
          Buffer.add_string buf
            (Printf.sprintf "%s{quantile=\"%g\"} %g\n" n q v))
        quantiles;
      Buffer.add_string buf (Printf.sprintf "%s_sum %g\n" n sum);
      Buffer.add_string buf (Printf.sprintf "%s_count %d\n" n count))
    summaries;
  Buffer.contents buf

(* A handle's histograms expose as summaries: quantiles from the live
   reservoir, sum/count from the lifetime totals. *)
let metrics_prometheus t =
  let summaries =
    List.map
      (fun (k, h) ->
        let quantiles =
          List.filter_map
            (fun p -> Option.map (fun v -> (p /. 100., v)) (quantile t k p))
            [ 50.; 90.; 99. ]
        in
        (k, (h.count, h.sum, quantiles)))
      (histograms t)
  in
  prometheus_exposition ~summaries (counters t)

let write_file path data =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
      output_string oc data)

let write_chrome_trace t path = write_file path (chrome_trace t)

let write_metrics_csv t path = write_file path (metrics_csv t)

let write_metrics_prometheus t path = write_file path (metrics_prometheus t)

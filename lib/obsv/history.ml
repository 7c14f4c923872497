(* The longitudinal snapshot archive: a directory of full snapshot
   documents plus an append-only JSON-lines manifest ordering them.

     DIR/
       manifest.jsonl          one line per archived run, seq-ordered
       snap-000007-1a2b3c4d5e6f.json   the schema-versioned snapshots

   Snapshot files are content-digest named and written staged-then-
   renamed (the Cache idiom), so a reader never sees a half-written
   document; the manifest is appended one flushed line at a time under
   the directory's advisory lock (the Cache eviction idiom), so
   concurrent appenders — several CLI runs plus an mt_serve daemon
   sharing one archive — get distinct sequence numbers and never
   interleave bytes.  A process killed mid-append leaves at worst one
   torn final line, which the loader drops and the next appender
   repairs with a newline (the Journal idiom). *)

type entry = {
  seq : int;
  label : string;
  created_at : float;
  kernel_name : string;
  kernel_hash : string;
  machine_name : string;
  machine_hash : string;
  schema : int;
  file : string;
}

type t = {
  dir : string;
  entries : entry list;  (* ascending seq *)
  loaded : (int, (Snapshot.t, string) result) Hashtbl.t;
}

let manifest_name = "manifest.jsonl"

let err fmt = Printf.ksprintf (fun s -> Error s) fmt

(* ------------------------------------------------------------------ *)
(* Manifest codec                                                      *)
(* ------------------------------------------------------------------ *)

let entry_to_json e =
  Json.Obj
    [
      ("seq", Json.Num (float_of_int e.seq));
      ("label", Json.Str e.label);
      ("created_at", Json.Num e.created_at);
      ( "kernel",
        Json.Obj [ ("name", Json.Str e.kernel_name); ("hash", Json.Str e.kernel_hash) ] );
      ( "machine",
        Json.Obj
          [ ("name", Json.Str e.machine_name); ("hash", Json.Str e.machine_hash) ] );
      ("schema", Json.Num (float_of_int e.schema));
      ("file", Json.Str e.file);
    ]

let entry_of_json json =
  let str name = Option.bind (Json.member name json) Json.to_str in
  let int name = Option.bind (Json.member name json) Json.to_int in
  let num name = Option.bind (Json.member name json) Json.to_float in
  let sub name part =
    Option.value ~default:""
      (Option.bind (Json.member name json) (fun v ->
           Option.bind (Json.member part v) Json.to_str))
  in
  match (int "seq", str "file") with
  | Some seq, Some file ->
    Some
      {
        seq;
        label = Option.value ~default:"" (str "label");
        created_at = Option.value ~default:0. (num "created_at");
        kernel_name = sub "kernel" "name";
        kernel_hash = sub "kernel" "hash";
        machine_name = sub "machine" "name";
        machine_hash = sub "machine" "hash";
        schema = Option.value ~default:0 (int "schema");
        file;
      }
  | _ -> None

let entry_of_line line =
  match Json.of_string line with
  | Error _ -> None
  | Ok json -> entry_of_json json

(* ------------------------------------------------------------------ *)
(* File safety                                                         *)
(* ------------------------------------------------------------------ *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error _ -> ()
  end

(* Same advisory-lock shape as the shared cache's eviction scan: the
   lock file is dedicated so it never collides with archive content,
   and lockf releases on process death, so a crashed appender cannot
   wedge the archive.  An unlockable directory degrades to unguarded
   appends — sequence collisions become possible but each append is
   still one atomic rename plus one flushed write. *)
let with_dir_lock dir f =
  let lock_path = Filename.concat dir ".lock" in
  match Unix.openfile lock_path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 with
  | exception Unix.Unix_error _ -> f ()
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        (match Unix.lockf fd Unix.F_LOCK 0 with
        | () -> ()
        | exception Unix.Unix_error _ -> ());
        f ())

let read_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match really_input_string ic (in_channel_length ic) with
        | text -> Ok text
        | exception (End_of_file | Sys_error _) -> Error (path ^ ": short read"))

(* Torn or foreign manifest lines are skipped, not fatal: the archive
   survives a SIGKILL mid-append losing only that one record. *)
let read_manifest path =
  match read_file path with
  | Error _ -> []
  | Ok text ->
    List.fold_left
      (fun acc line ->
        if String.trim line = "" then acc
        else match entry_of_line line with Some e -> e :: acc | None -> acc)
      []
      (String.split_on_char '\n' text)
    |> List.sort (fun a b -> compare (a.seq, a.file) (b.seq, b.file))

let ends_mid_line path =
  match open_in_bin path with
  | exception Sys_error _ -> false
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let len = in_channel_length ic in
        len > 0
        &&
        (seek_in ic (len - 1);
         input_char ic <> '\n'))

(* ------------------------------------------------------------------ *)
(* Append                                                              *)
(* ------------------------------------------------------------------ *)

let append ?label ~dir (snap : Snapshot.t) =
  mkdir_p dir;
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    err "history: cannot create archive directory %s" dir
  else
    with_dir_lock dir (fun () ->
        let manifest = Filename.concat dir manifest_name in
        let existing = read_manifest manifest in
        let seq =
          1 + List.fold_left (fun acc e -> max acc e.seq) 0 existing
        in
        let text = Snapshot.to_string snap in
        let digest = String.sub (Digest.to_hex (Digest.string text)) 0 12 in
        let file = Printf.sprintf "snap-%06d-%s.json" seq digest in
        let entry =
          {
            seq;
            label =
              (match label with
              | Some l -> l
              | None -> Printf.sprintf "run-%06d" seq);
            created_at = snap.Snapshot.created_at;
            kernel_name = snap.Snapshot.kernel_name;
            kernel_hash = snap.Snapshot.kernel_hash;
            machine_name = snap.Snapshot.machine_name;
            machine_hash = snap.Snapshot.machine_hash;
            schema = snap.Snapshot.schema;
            file;
          }
        in
        (* Stage-and-rename: the snapshot document appears atomically
           under its final name, never half-written.  The temp name
           carries the pid so concurrent appenders (should the lock be
           unavailable) cannot collide. *)
        let tmp =
          Filename.concat dir (Printf.sprintf ".tmp-%d-%06d" (Unix.getpid ()) seq)
        in
        match
          let oc = open_out_bin tmp in
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () -> output_string oc text)
        with
        | exception Sys_error msg ->
          (try Sys.remove tmp with Sys_error _ -> ());
          err "history: %s" msg
        | () -> (
          match Sys.rename tmp (Filename.concat dir file) with
          | exception Sys_error msg ->
            (try Sys.remove tmp with Sys_error _ -> ());
            err "history: %s" msg
          | () -> (
            let torn = ends_mid_line manifest in
            match
              open_out_gen
                [ Open_wronly; Open_creat; Open_append; Open_binary ]
                0o644 manifest
            with
            | exception Sys_error msg -> err "history: %s" msg
            | oc ->
              Fun.protect
                ~finally:(fun () -> close_out_noerr oc)
                (fun () ->
                  if torn then output_char oc '\n';
                  output_string oc (Json.to_string (entry_to_json entry));
                  output_char oc '\n';
                  flush oc);
              Mt_telemetry.incr (Mt_telemetry.global ()) "history.appends";
              Ok entry)))

(* ------------------------------------------------------------------ *)
(* Load and query                                                      *)
(* ------------------------------------------------------------------ *)

let load dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    err "history: no archive directory at %s" dir
  else
    let entries = read_manifest (Filename.concat dir manifest_name) in
    Ok { dir; entries; loaded = Hashtbl.create 16 }

let dir t = t.dir

let entries t = t.entries

let length t = List.length t.entries

let latest t =
  List.fold_left (fun _ e -> Some e) None t.entries

let snapshot t entry =
  match Hashtbl.find_opt t.loaded entry.seq with
  | Some r -> r
  | None ->
    let r =
      match read_file (Filename.concat t.dir entry.file) with
      | Error msg -> err "history: %s" msg
      | Ok text -> (
        match Snapshot.of_string text with
        | Error msg -> err "history: %s: %s" entry.file msg
        | Ok snap -> Ok snap)
    in
    Hashtbl.replace t.loaded entry.seq r;
    r

(* Only runs measuring the same content are comparable: the default
   query plane is "everything matching these hashes", which mt_report
   anchors at the newest entry, so an archive shared across kernels or
   machine upgrades analyses each lineage separately. *)
let matching ?kernel_hash ?machine_hash t =
  List.filter
    (fun e ->
      (match kernel_hash with None -> true | Some h -> e.kernel_hash = h)
      && match machine_hash with None -> true | Some h -> e.machine_hash = h)
    t.entries

let keys ?entries t =
  let entries = match entries with Some es -> es | None -> t.entries in
  let seen = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun e ->
      match snapshot t e with
      | Error _ -> ()  (* a vanished or corrupt document drops out *)
      | Ok snap ->
        List.iter
          (fun (v : Snapshot.variant_stat) ->
            if not (Hashtbl.mem seen v.Snapshot.key) then begin
              Hashtbl.replace seen v.Snapshot.key ();
              order := v.Snapshot.key :: !order
            end)
          snap.Snapshot.variants)
    entries;
  List.rev !order

let series ?entries t ~variant =
  let entries = match entries with Some es -> es | None -> t.entries in
  List.filter_map
    (fun e ->
      match snapshot t e with
      | Error _ -> None
      | Ok snap ->
        Option.map
          (fun v -> (e, v))
          (List.find_opt
             (fun (v : Snapshot.variant_stat) -> v.Snapshot.key = variant)
             snap.Snapshot.variants))
    entries

(* The run-to-run noise the trend band is gated by: pooled CoV over
   every archived run's own (count, median, stddev) — within-run
   variability, which a genuine cross-run step does not inflate. *)
let pooled_noise points =
  Mt_stats.pooled_cov
    (List.map
       (fun (_, (v : Snapshot.variant_stat)) ->
         (v.Snapshot.count, v.Snapshot.median, v.Snapshot.stddev))
       points)

let trend ?threshold ?min_band points =
  let medians =
    Array.of_list
      (List.map (fun (_, (v : Snapshot.variant_stat)) -> v.Snapshot.median) points)
  in
  let noise = pooled_noise points in
  (* Deterministic archives (the simulator often measures with stddev
     0) would pool to a zero band and flag float dust; fall back to the
     successive-difference estimate, the larger of the two wins. *)
  let noise = Float.max noise (Mt_stats.Trend.successive_noise medians) in
  Mt_stats.Trend.analyze ?threshold ?min_band ~noise medians

(* ------------------------------------------------------------------ *)
(* Windowed baseline                                                   *)
(* ------------------------------------------------------------------ *)

let default_window = 5

(* The gate baseline mt_report --history diffs a fresh snapshot
   against: per variant, the last [window] runs of the current stable
   regime — everything after the latest changepoint, so a step that
   already landed (and was presumably triaged) does not poison the
   baseline forever — collapsed to the median of their medians with a
   pooled stddev.  A variant absent from the selected runs is simply
   absent from the baseline (it will surface as "added"). *)
let baseline ?(window = default_window) ?threshold ?min_band t entries =
  match List.rev entries with
  | [] -> Error "history: no archived runs to build a baseline from"
  | newest :: _ -> (
    match snapshot t newest with
    | Error _ as e -> e |> Result.map_error (fun m -> m)
    | Ok newest_snap ->
      let window = max 1 window in
      let stats =
        List.filter_map
          (fun key ->
            let points = series ~entries t ~variant:key in
            if points = [] then None
            else begin
              let tr = trend ?threshold ?min_band points in
              let regime =
                match tr.Mt_stats.Trend.changepoint with
                | Some k -> List.filteri (fun i _ -> i >= k) points
                | None -> points
              in
              let len = List.length regime in
              let windowed =
                List.filteri (fun i _ -> i >= len - window) regime
              in
              let stats = List.map snd windowed in
              let medians =
                Array.of_list
                  (List.map (fun (v : Snapshot.variant_stat) -> v.Snapshot.median) stats)
              in
              let median = Mt_stats.median medians in
              let stddev =
                Mt_stats.pooled_stddev
                  (List.map
                     (fun (v : Snapshot.variant_stat) ->
                       (v.Snapshot.count, v.Snapshot.stddev))
                     stats)
              in
              let count =
                List.fold_left
                  (fun acc (v : Snapshot.variant_stat) -> acc + v.Snapshot.count)
                  0 stats
              in
              let template = List.nth stats (List.length stats - 1) in
              Some
                {
                  template with
                  Snapshot.median;
                  mean = median;
                  stddev;
                  count;
                  cov = (if median = 0. then 0. else stddev /. abs_float median);
                  minimum = Mt_stats.min_of medians;
                  maximum = Mt_stats.max_of medians;
                }
            end)
          (keys ~entries t)
      in
      Ok
        (Snapshot.make ~tool:"mt_history-baseline"
           ~created_at:newest.created_at
           ~kernel:(newest.kernel_name, newest.kernel_hash)
           ~machine:(newest.machine_name, newest.machine_hash)
           ~options:newest_snap.Snapshot.options
           ~seed:newest_snap.Snapshot.seed stats))

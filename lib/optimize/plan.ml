module Json = Mt_obsv.Json

type knobs = {
  min_runs : int;
  cov_stable : float;
  rciw_stable : float;
  min_experiments : int;
}

type keep = {
  variant : string;
  experiments : int option;
  stable : bool;
  cov : float;
  rciw : float;
  trend : string;
}

type t = {
  schema : int;
  created_at : float;
  history_dir : string;
  runs : int;
  kernel_name : string;
  kernel_hash : string;
  machine_name : string;
  machine_hash : string;
  knobs : knobs;
  keep : keep list;
}

let schema_version = 2

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

let find_keep t key =
  List.find_opt (fun (k : keep) -> k.variant = key) t.keep

let experiments_override t key =
  Option.bind (find_keep t key) (fun k -> k.experiments)

let summary t =
  let floored =
    List.length (List.filter (fun (k : keep) -> k.experiments <> None) t.keep)
  in
  Printf.sprintf
    "plan: keep %d variant%s (%d floored to %d experiments), derived from %d \
     runs of %s"
    (List.length t.keep)
    (if List.length t.keep = 1 then "" else "s")
    floored t.knobs.min_experiments t.runs t.kernel_name

(* ------------------------------------------------------------------ *)
(* Serialisation                                                       *)
(* ------------------------------------------------------------------ *)

let knobs_to_json (k : knobs) =
  Json.Obj
    [
      ("min_runs", Json.Num (float_of_int k.min_runs));
      ("cov_stable", Json.Num k.cov_stable);
      ("rciw_stable", Json.Num k.rciw_stable);
      ("min_experiments", Json.Num (float_of_int k.min_experiments));
    ]

let keep_to_json (k : keep) =
  Json.Obj
    [
      ("variant", Json.Str k.variant);
      ( "experiments",
        match k.experiments with
        | Some n -> Json.Num (float_of_int n)
        | None -> Json.Null );
      ("stable", Json.Bool k.stable);
      ("cov", Json.Num k.cov);
      ("rciw", Json.Num k.rciw);
      ("trend", Json.Str k.trend);
    ]

let to_json t =
  Json.Obj
    [
      ("schema", Json.Num (float_of_int t.schema));
      ("tool", Json.Str "mt_optimize");
      ("created_at", Json.Num t.created_at);
      ("history_dir", Json.Str t.history_dir);
      ("runs", Json.Num (float_of_int t.runs));
      ( "kernel",
        Json.Obj
          [ ("name", Json.Str t.kernel_name); ("hash", Json.Str t.kernel_hash) ]
      );
      ( "machine",
        Json.Obj
          [
            ("name", Json.Str t.machine_name);
            ("hash", Json.Str t.machine_hash);
          ] );
      ("knobs", knobs_to_json t.knobs);
      ("keep", Json.List (List.map keep_to_json t.keep));
    ]

let err fmt = Printf.ksprintf (fun s -> Error s) fmt

let field name decode json =
  match Option.bind (Json.member name json) decode with
  | Some v -> Ok v
  | None -> err "plan: missing or malformed field %S" name

let opt_field name decode ~default json =
  match Json.member name json with
  | None -> Ok default
  | Some v -> (
    match decode v with
    | Some v -> Ok v
    | None -> err "plan: malformed field %S" name)

(* An experiment count below 1 cannot run: refuse it here, where plans
   enter the program from disk or from the serve wire. *)
let experiment_count name = function
  | n when n >= 1 -> Ok n
  | n -> err "plan: field %S must be at least 1, not %d" name n

let ( let* ) = Result.bind

let knobs_of_json json =
  let* min_runs = field "min_runs" Json.to_int json in
  let* cov_stable = field "cov_stable" Json.to_float json in
  let* rciw_stable = field "rciw_stable" Json.to_float json in
  let* min_experiments = field "min_experiments" Json.to_int json in
  let* min_experiments = experiment_count "min_experiments" min_experiments in
  Ok { min_runs; cov_stable; rciw_stable; min_experiments }

let keep_of_json json =
  let* variant = field "variant" Json.to_str json in
  let* experiments =
    match Json.member "experiments" json with
    | None | Some Json.Null -> Ok None
    | Some v -> (
      match Json.to_int v with
      | Some n -> Result.map Option.some (experiment_count "experiments" n)
      | None -> err "plan: malformed field %S" "experiments")
  in
  let* stable = opt_field "stable" Json.to_bool ~default:false json in
  let* cov = opt_field "cov" Json.to_float ~default:0. json in
  let* rciw = opt_field "rciw" Json.to_float ~default:0. json in
  let* trend = opt_field "trend" Json.to_str ~default:"" json in
  Ok { variant; experiments; stable; cov; rciw; trend }

let decode_list name decode json =
  let* items = field name Json.to_list json in
  let* rev =
    List.fold_left
      (fun acc v ->
        let* acc = acc in
        let* v = decode v in
        Ok (v :: acc))
      (Ok []) items
  in
  Ok (List.rev rev)

(* Unknown fields are ignored, so a schema-1 plan still loads: its drop
   list and correlation knob are such fields, and the variants it
   dropped are simply not listed, so they run at the default budget.
   The reverse does not hold: a schema-1 decoder requires the drop list
   and the correlation knob, so it refuses a schema-2 plan. *)
let of_json json =
  let* schema = field "schema" Json.to_int json in
  let* created_at = opt_field "created_at" Json.to_float ~default:0. json in
  let* history_dir = opt_field "history_dir" Json.to_str ~default:"" json in
  let* runs = opt_field "runs" Json.to_int ~default:0 json in
  let sub name part =
    opt_field name
      (fun v -> Option.bind (Json.member part v) Json.to_str)
      ~default:"" json
  in
  let* kernel_name = sub "kernel" "name" in
  let* kernel_hash = sub "kernel" "hash" in
  let* machine_name = sub "machine" "name" in
  let* machine_hash = sub "machine" "hash" in
  let* knobs =
    match Json.member "knobs" json with
    | None -> err "plan: missing or malformed field %S" "knobs"
    | Some k -> knobs_of_json k
  in
  let* keep = decode_list "keep" keep_of_json json in
  Ok
    {
      schema;
      created_at;
      history_dir;
      runs;
      kernel_name;
      kernel_hash;
      machine_name;
      machine_hash;
      knobs;
      keep;
    }

let to_string t = Json.to_string ~indent:true (to_json t)

let of_string s =
  match Json.of_string s with
  | Error msg -> err "plan: %s" msg
  | Ok json -> of_json json

let save t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string t))

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> err "%s" msg
  | text -> (
    match of_string text with
    | Error msg -> err "%s: %s" path msg
    | Ok t -> Ok t)

(* Output checks shared by the workloads: byte comparison of CSV text
   and the digests committed in expected.digests for the default seed. *)

let digest text = Digest.to_hex (Digest.string text)

(* [None] when the two documents are byte-identical, else the first
   differing line. *)
let csv_mismatch ~expected ~actual =
  if String.equal expected actual then None
  else begin
    let e = Array.of_list (String.split_on_char '\n' expected) in
    let a = Array.of_list (String.split_on_char '\n' actual) in
    let line arr i = if i < Array.length arr then arr.(i) else "<end of file>" in
    let rec first i = if line e i <> line a i then i else first (i + 1) in
    let i = first 0 in
    Some (Printf.sprintf "line %d: expected %S, got %S" (i + 1) (line e i) (line a i))
  end

(* "<workload> <name> <md5>" per line; blank and '#' lines ignored. *)
let load_expected path =
  if not (Sys.file_exists path) then []
  else
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           match String.split_on_char ' ' (String.trim line) with
           | [ workload; name; md5 ] when line.[0] <> '#' -> Some ((workload, name), md5)
           | _ -> None)

let check_committed table ~workload ~name text =
  let got = digest text in
  match List.assoc_opt (workload, name) table with
  | None -> Error (Printf.sprintf "%s/%s: no committed digest" workload name)
  | Some want when want = got -> Ok ()
  | Some want ->
    Error (Printf.sprintf "%s/%s: digest %s, committed %s" workload name got want)

type kind = Raise | Timeout | Corrupt_cache_entry

exception Injected of string

let kind_to_string = function
  | Raise -> "raise"
  | Timeout -> "timeout"
  | Corrupt_cache_entry -> "corrupt-cache-entry"

let kind_of_string = function
  | "raise" -> Ok Raise
  | "timeout" | "hang" -> Ok Timeout
  | "corrupt-cache-entry" | "corrupt-cache" -> Ok Corrupt_cache_entry
  | s -> Error (Printf.sprintf "unknown fault kind %S (raise|timeout|corrupt-cache-entry)" s)

type t = { index : int; kind : kind }

(* Spec syntax: variant=K:kind — fault the K-th unit of work (its
   position in the study's variant list) with [kind]. *)
let of_spec s =
  let ( let* ) = Result.bind in
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  match String.index_opt s '=' with
  | None -> err "bad fault spec %S (expected variant=K:kind)" s
  | Some eq ->
    if String.sub s 0 eq <> "variant" then
      err "bad fault spec %S: only variant=... selectors are supported" s
    else begin
      let rest = String.sub s (eq + 1) (String.length s - eq - 1) in
      match String.index_opt rest ':' with
      | None -> err "bad fault spec %S (expected variant=K:kind)" s
      | Some colon ->
        let index_str = String.sub rest 0 colon in
        let kind_str = String.sub rest (colon + 1) (String.length rest - colon - 1) in
        let* index =
          match int_of_string_opt index_str with
          | Some i when i >= 0 -> Ok i
          | _ -> err "bad fault spec %S: %S is not a variant index" s index_str
        in
        let* kind = kind_of_string kind_str in
        Ok { index; kind }
    end

let to_spec t = Printf.sprintf "variant=%d:%s" t.index (kind_to_string t.kind)

let find faults ~index = List.find_opt (fun f -> f.index = index) faults

(* The JSON printer as it was before it stopped going through Printf:
   the byte reference the current [Mt_stats.Json.to_string] is checked
   against (test/stats_tests.ml).  Kept verbatim; do not optimise. *)

open Mt_stats.Json

let escape str =
  let b = Buffer.create (String.length str + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    str;
  Buffer.contents b

let float_str f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else begin
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f
  end

let rec write b ~indent ~level v =
  let pad n = if indent then Buffer.add_string b (String.make (2 * n) ' ') in
  let newline () = if indent then Buffer.add_char b '\n' in
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (if x then "true" else "false")
  | Num x ->
    if Float.is_nan x || Float.is_integer (x /. 0.) then Buffer.add_string b "null"
    else Buffer.add_string b (float_str x)
  | Str s ->
    Buffer.add_char b '"';
    Buffer.add_string b (escape s);
    Buffer.add_char b '"'
  | List [] -> Buffer.add_string b "[]"
  | List xs ->
    Buffer.add_char b '[';
    newline ();
    List.iteri
      (fun i x ->
        if i > 0 then begin
          Buffer.add_char b ',';
          newline ()
        end;
        pad (level + 1);
        write b ~indent ~level:(level + 1) x)
      xs;
    newline ();
    pad level;
    Buffer.add_char b ']'
  | Obj [] -> Buffer.add_string b "{}"
  | Obj members ->
    Buffer.add_char b '{';
    newline ();
    List.iteri
      (fun i (k, x) ->
        if i > 0 then begin
          Buffer.add_char b ',';
          newline ()
        end;
        pad (level + 1);
        Buffer.add_char b '"';
        Buffer.add_string b (escape k);
        Buffer.add_string b "\":";
        if indent then Buffer.add_char b ' ';
        write b ~indent ~level:(level + 1) x)
      members;
    newline ();
    pad level;
    Buffer.add_char b '}'

let to_string ?(indent = false) v =
  let b = Buffer.create 1024 in
  write b ~indent ~level:0 v;
  if indent then Buffer.add_char b '\n';
  Buffer.contents b

type summary = {
  count : int;
  minimum : float;
  maximum : float;
  mean : float;
  median : float;
  stddev : float;
}

let check_non_empty name xs =
  if Array.length xs = 0 then invalid_arg (name ^ ": empty array")

(* Float-specialised throughout: [summarize] sits on the hot path of
   every measurement, and polymorphic compare both costs a C call per
   element and orders NaN inconsistently with IEEE expectations. *)
let min_of xs =
  check_non_empty "Mt_stats.min_of" xs;
  Array.fold_left Float.min xs.(0) xs

let max_of xs =
  check_non_empty "Mt_stats.max_of" xs;
  Array.fold_left Float.max xs.(0) xs

let mean xs =
  check_non_empty "Mt_stats.mean" xs;
  Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

let sorted xs =
  let ys = Array.copy xs in
  Array.sort Float.compare ys;
  ys

let sorted_copy = sorted

(* Median of an already-sorted array: the primitive the quality hot
   path calls repeatedly (one sort, many order statistics). *)
let median_sorted ys =
  check_non_empty "Mt_stats.median_sorted" ys;
  let n = Array.length ys in
  if n mod 2 = 1 then ys.(n / 2) else (ys.((n / 2) - 1) +. ys.(n / 2)) /. 2.

let median xs =
  check_non_empty "Mt_stats.median" xs;
  median_sorted (sorted xs)

let stddev xs =
  let n = Array.length xs in
  if n < 2 then 0.
  else begin
    let m = mean xs in
    let sq = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0. xs in
    sqrt (sq /. float_of_int (n - 1))
  end

(* CoV and its relatives are dispersion measures: they must stay
   non-negative for negative-mean series (energy deltas, diffs), or a
   downstream noise band computed from them flips sign and every
   comparison clears it.  Hence the [abs_float] on each denominator. *)
let coefficient_of_variation xs =
  let m = mean xs in
  if m = 0. then 0. else stddev xs /. abs_float m

let relative_spread xs =
  let lo = min_of xs and hi = max_of xs in
  if lo = 0. then 0. else (hi -. lo) /. abs_float lo

let percentile_sorted ys p =
  check_non_empty "Mt_stats.percentile_sorted" ys;
  if p < 0. || p > 100. then
    invalid_arg "Mt_stats.percentile: p out of [0,100]";
  let n = Array.length ys in
  if n = 1 then ys.(0)
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    ys.(lo) +. (frac *. (ys.(hi) -. ys.(lo)))
  end

let percentile xs p = percentile_sorted (sorted xs) p

(* Pooled variability across measurement groups (μOpTime-style): the
   noise band two benchmark results must clear before their medians are
   considered different.  Groups with fewer than 2 samples contribute no
   degrees of freedom (their stddev is 0 by convention anyway). *)
let pooled_stddev groups =
  let dof = List.fold_left (fun acc (n, _) -> acc + max 0 (n - 1)) 0 groups in
  if dof = 0 then 0.
  else
    sqrt
      (List.fold_left
         (fun acc (n, s) -> acc +. (float_of_int (max 0 (n - 1)) *. s *. s))
         0. groups
      /. float_of_int dof)

let pooled_cov groups =
  let total = List.fold_left (fun acc (n, _, _) -> acc + max 0 n) 0 groups in
  if total = 0 then 0.
  else begin
    let grand_mean =
      List.fold_left (fun acc (n, m, _) -> acc +. (float_of_int (max 0 n) *. m)) 0. groups
      /. float_of_int total
    in
    if grand_mean = 0. then 0.
    else
      pooled_stddev (List.map (fun (n, _, s) -> (n, s)) groups)
      /. abs_float grand_mean
  end

(* Average-rank assignment for rank correlation: sort positions by
   value, then give every member of a tie group the mean of the rank
   positions the group spans.  The tie-break is what makes the result
   deterministic and invariant under permuting the input — a requirement
   for the redundancy scoring built on it (two variants must correlate
   identically however the archive happens to order their runs). *)
let average_ranks xs =
  let n = Array.length xs in
  let idx = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      let c = Float.compare xs.(a) xs.(b) in
      if c <> 0 then c else Int.compare a b)
    idx;
  let r = Array.make n 0. in
  let i = ref 0 in
  while !i < n do
    let j = ref !i in
    while
      !j + 1 < n && Float.compare xs.(idx.(!j + 1)) xs.(idx.(!i)) = 0
    do
      incr j
    done;
    (* Ranks are 1-based; a group spanning positions i..j all get the
       average (i + j) / 2 + 1. *)
    let avg = (float_of_int (!i + !j) /. 2.) +. 1. in
    for k = !i to !j do
      r.(idx.(k)) <- avg
    done;
    i := !j + 1
  done;
  r

let spearman xs ys =
  let n = Array.length xs in
  if n <> Array.length ys then
    invalid_arg "Mt_stats.spearman: length mismatch";
  if n < 2 then 0.
  else begin
    let rx = average_ranks xs and ry = average_ranks ys in
    let mx = mean rx and my = mean ry in
    let sxx = ref 0. and syy = ref 0. and sxy = ref 0. in
    for i = 0 to n - 1 do
      let dx = rx.(i) -. mx and dy = ry.(i) -. my in
      sxx := !sxx +. (dx *. dx);
      syy := !syy +. (dy *. dy);
      sxy := !sxy +. (dx *. dy)
    done;
    (* Degenerate rank variance: two flat series trivially co-move
       (either can stand in for the other), while flat-vs-moving carries
       no rank information at all.  Both conventions keep self-
       correlation at exactly 1. *)
    if !sxx = 0. && !syy = 0. then 1.
    else if !sxx = 0. || !syy = 0. then 0.
    else !sxy /. sqrt (!sxx *. !syy)
  end

(* One sort serves minimum, maximum and median; callers needing more
   order statistics take [sorted_copy] once and use the [_sorted]
   variants rather than re-sorting per percentile. *)
let summarize xs =
  check_non_empty "Mt_stats.summarize" xs;
  let ys = sorted xs in
  let n = Array.length ys in
  {
    count = n;
    minimum = ys.(0);
    maximum = ys.(n - 1);
    mean = mean xs;
    median = median_sorted ys;
    stddev = stddev xs;
  }

(* ------------------------------------------------------------------ *)
(* Longitudinal trend analysis                                         *)
(* ------------------------------------------------------------------ *)

module Trend = struct
  type classification =
    | Stationary
    | Drifting
    | Step_regression
    | Step_improvement

  let classification_to_string = function
    | Stationary -> "stationary"
    | Drifting -> "drifting"
    | Step_regression -> "step-regression"
    | Step_improvement -> "step-improvement"

  type result = {
    classification : classification;
    changepoint : int option;
    shift : float;
    drift : float;
    band : float;
    noise : float;
  }

  let default_threshold = 3.0

  let default_min_band = 0.002

  let default_min_segment = 2

  (* Robust local-noise estimate: the scaled median absolute successive
     difference.  Successive differences straddle a step change at only
     one index, so — unlike the series' own stddev — a genuine regime
     shift barely inflates the estimate, and the band it feeds stays a
     measure of run-to-run wobble, not of the effect being detected.
     The sqrt 2 removes the variance doubling of differencing; 1.4826
     scales MAD to a Gaussian sigma. *)
  let successive_noise xs =
    let n = Array.length xs in
    if n < 3 then 0.
    else begin
      let diffs = Array.init (n - 1) (fun i -> abs_float (xs.(i + 1) -. xs.(i))) in
      let m = median xs in
      if m = 0. then 0.
      else 1.4826 *. median diffs /. (sqrt 2. *. abs_float m)
    end

  (* Rolling median with an odd window clamped to the series length —
     the drift estimator reads its endpoints, so single-run spikes at
     either end of the series cannot fake a drift. *)
  let rolling_median ?(window = 3) xs =
    let n = Array.length xs in
    if n = 0 then [||]
    else begin
      let w = max 1 (min window n) in
      let w = if w mod 2 = 0 then w - 1 else w in
      let half = w / 2 in
      Array.init n (fun i ->
          let lo = max 0 (i - half) in
          let hi = min (n - 1) (i + half) in
          median (Array.sub xs lo (hi - lo + 1)))
    end

  let analyze ?(threshold = default_threshold) ?(min_band = default_min_band)
      ?(min_segment = default_min_segment) ?noise xs =
    let n = Array.length xs in
    let noise =
      match noise with Some v -> abs_float v | None -> successive_noise xs
    in
    let band = Float.max min_band (threshold *. noise) in
    if n < 2 * min_segment then
      { classification = Stationary; changepoint = None; shift = 0.;
        drift = 0.; band; noise }
    else begin
      (* Median-shift changepoint: the split maximising the relative
         shift between the two segment medians.  Medians, not means, so
         one outlier run cannot manufacture a step.  On a clean step
         the shift ties across every split that keeps each segment's
         majority on its own side, so ties break towards the split with
         the least within-segment absolute deviation — which is the
         actual regime boundary (both segments internally flat). *)
      let best_k = ref min_segment
      and best_shift = ref 0.
      and best_cost = ref infinity in
      for k = min_segment to n - min_segment do
        let left = Array.sub xs 0 k in
        let right = Array.sub xs k (n - k) in
        let ml = median left in
        let mr = median right in
        let denom = if ml = 0. then 1. else abs_float ml in
        let shift = (mr -. ml) /. denom in
        let deviation m acc x = acc +. abs_float (x -. m) in
        let cost =
          Array.fold_left (deviation ml) 0. left
          +. Array.fold_left (deviation mr) 0. right
        in
        let eps = 1e-12 *. (1. +. abs_float !best_shift) in
        if
          abs_float shift > abs_float !best_shift +. eps
          || (abs_float shift >= abs_float !best_shift -. eps
              && cost < !best_cost)
        then begin
          best_shift := shift;
          best_k := k;
          best_cost := cost
        end
      done;
      if abs_float !best_shift > band then
        {
          classification =
            (if !best_shift > 0. then Step_regression else Step_improvement);
          changepoint = Some !best_k;
          shift = !best_shift;
          drift = 0.;
          band;
          noise;
        }
      else begin
        let rm = rolling_median ~window:(min 5 n) xs in
        let first = rm.(0) in
        let denom = if first = 0. then 1. else abs_float first in
        let drift = (rm.(Array.length rm - 1) -. first) /. denom in
        if abs_float drift > band then
          { classification = Drifting; changepoint = None;
            shift = !best_shift; drift; band; noise }
        else
          { classification = Stationary; changepoint = None;
            shift = !best_shift; drift; band; noise }
      end
    end
end

module Csv = struct
  type t = { header : string list; mutable rows : string list list }

  let create ~header = { header; rows = [] }

  let add_row t row =
    if List.length row <> List.length t.header then
      invalid_arg
        (Printf.sprintf "Mt_stats.Csv.add_row: row width %d, header width %d"
           (List.length row) (List.length t.header));
    t.rows <- row :: t.rows

  let add_floats t row = add_row t (List.map (Printf.sprintf "%.6g") row)

  let needs_quoting s =
    String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s

  let quote_cell s =
    if needs_quoting s then begin
      let b = Buffer.create (String.length s + 2) in
      Buffer.add_char b '"';
      String.iter
        (fun c ->
          if c = '"' then Buffer.add_string b "\"\"" else Buffer.add_char b c)
        s;
      Buffer.add_char b '"';
      Buffer.contents b
    end
    else s

  let render_row row = String.concat "," (List.map quote_cell row)

  let to_string t =
    let b = Buffer.create 256 in
    Buffer.add_string b (render_row t.header);
    Buffer.add_char b '\n';
    List.iter
      (fun row ->
        Buffer.add_string b (render_row row);
        Buffer.add_char b '\n')
      (List.rev t.rows);
    Buffer.contents b

  let save t path =
    let oc = open_out path in
    output_string oc (to_string t);
    close_out oc

  let row_count t = List.length t.rows

  let header t = t.header

  let rows t = List.rev t.rows

  (* RFC-4180 reader matching [to_string]: quoted cells may contain
     commas, doubled quotes and newlines; CRLF and a missing final
     newline are tolerated. *)
  let parse_string s =
    let n = String.length s in
    let cell = Buffer.create 16 in
    let cells = ref [] in
    let records = ref [] in
    let finish_cell () =
      cells := Buffer.contents cell :: !cells;
      Buffer.clear cell
    in
    let finish_record () =
      finish_cell ();
      records := List.rev !cells :: !records;
      cells := []
    in
    let rec unquoted i =
      if i >= n then begin
        if Buffer.length cell > 0 || !cells <> [] then finish_record ();
        Ok (List.rev !records)
      end
      else
        match s.[i] with
        | ',' -> finish_cell (); unquoted (i + 1)
        | '\n' -> finish_record (); unquoted (i + 1)
        | '\r' when i + 1 < n && s.[i + 1] = '\n' ->
          finish_record (); unquoted (i + 2)
        | '\r' ->
          (* A bare CR (old-Mac line ending, or a file-final [\r]) is a
             record terminator too — never cell data. *)
          finish_record (); unquoted (i + 1)
        | '"' when Buffer.length cell = 0 -> quoted (i + 1)
        | c -> Buffer.add_char cell c; unquoted (i + 1)
    and quoted i =
      if i >= n then Error "unterminated quoted cell"
      else
        match s.[i] with
        | '"' when i + 1 < n && s.[i + 1] = '"' ->
          Buffer.add_char cell '"';
          quoted (i + 2)
        | '"' -> unquoted (i + 1)
        | c -> Buffer.add_char cell c; quoted (i + 1)
    in
    unquoted 0

  let of_string s =
    match parse_string s with
    | Error _ as e -> e
    | Ok [] -> Error "empty CSV document"
    | Ok (header :: data) ->
      let width = List.length header in
      let rec check = function
        | [] -> Ok ()
        | row :: rest ->
          if List.length row <> width then
            Error
              (Printf.sprintf "row width %d differs from header width %d"
                 (List.length row) width)
          else check rest
      in
      (match check data with
      | Error _ as e -> e
      | Ok () ->
        let t = create ~header in
        List.iter (add_row t) data;
        Ok t)
end

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  (* ------------------------------------------------------------------ *)
  (* Printing                                                            *)
  (* ------------------------------------------------------------------ *)

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

  (* Shortest decimal form that parses back to the same float: snapshots
     must round-trip exactly (save → load → diff is empty). *)
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

  (* ------------------------------------------------------------------ *)
  (* Parsing                                                             *)
  (* ------------------------------------------------------------------ *)

  exception Parse_error of int * string

  let fail i fmt = Printf.ksprintf (fun msg -> raise (Parse_error (i, msg))) fmt

  let utf8_of_code b code =
    if code < 0x80 then Buffer.add_char b (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
    end

  let of_string s =
    let n = String.length s in
    let rec ws i =
      if i < n && (s.[i] = ' ' || s.[i] = '\n' || s.[i] = '\t' || s.[i] = '\r')
      then ws (i + 1)
      else i
    in
    let lit word v i =
      let l = String.length word in
      if i + l <= n && String.sub s i l = word then (v, i + l)
      else fail i "expected %s" word
    in
    let number i =
      let j = ref i in
      if !j < n && s.[!j] = '-' then Stdlib.incr j;
      let digit c = c >= '0' && c <= '9' in
      while
        !j < n
        && (digit s.[!j] || s.[!j] = '.' || s.[!j] = 'e' || s.[!j] = 'E'
           || s.[!j] = '+' || s.[!j] = '-')
      do
        Stdlib.incr j
      done;
      if !j = i then fail i "expected a number";
      match float_of_string_opt (String.sub s i (!j - i)) with
      | Some v -> (Num v, !j)
      | None -> fail i "malformed number %s" (String.sub s i (!j - i))
    in
    let string_lit i =
      let b = Buffer.create 16 in
      let rec go i =
        if i >= n then fail i "unterminated string"
        else
          match s.[i] with
          | '"' -> (Buffer.contents b, i + 1)
          | '\\' ->
            if i + 1 >= n then fail i "truncated escape"
            else (
              match s.[i + 1] with
              | '"' -> Buffer.add_char b '"'; go (i + 2)
              | '\\' -> Buffer.add_char b '\\'; go (i + 2)
              | '/' -> Buffer.add_char b '/'; go (i + 2)
              | 'b' -> Buffer.add_char b '\b'; go (i + 2)
              | 'f' -> Buffer.add_char b '\012'; go (i + 2)
              | 'n' -> Buffer.add_char b '\n'; go (i + 2)
              | 'r' -> Buffer.add_char b '\r'; go (i + 2)
              | 't' -> Buffer.add_char b '\t'; go (i + 2)
              | 'u' ->
                if i + 5 >= n then fail i "truncated \\u escape"
                else begin
                  (match int_of_string_opt ("0x" ^ String.sub s (i + 2) 4) with
                  | Some code -> utf8_of_code b code
                  | None -> fail i "malformed \\u escape");
                  go (i + 6)
                end
              | c -> fail i "unknown escape \\%c" c)
          | c when Char.code c < 0x20 -> fail i "raw control byte in string"
          | c ->
            Buffer.add_char b c;
            go (i + 1)
      in
      go i
    in
    let rec value i =
      let i = ws i in
      if i >= n then fail i "unexpected end of input"
      else
        match s.[i] with
        | '{' -> obj (ws (i + 1)) []
        | '[' -> arr (ws (i + 1)) []
        | '"' ->
          let str, j = string_lit (i + 1) in
          (Str str, j)
        | 't' -> lit "true" (Bool true) i
        | 'f' -> lit "false" (Bool false) i
        | 'n' -> lit "null" Null i
        | '-' | '0' .. '9' -> number i
        | c -> fail i "unexpected character %C" c
    and obj i acc =
      (* the early '}' applies only to "{}" — after a comma a member is
         required, so "{"a":1,}" is rejected *)
      if acc = [] && i < n && s.[i] = '}' then (Obj [], i + 1)
      else begin
        let i = ws i in
        if i >= n || s.[i] <> '"' then fail i "expected an object key";
        let key, i = string_lit (i + 1) in
        let i = ws i in
        if i >= n || s.[i] <> ':' then fail i "expected ':'";
        let v, i = value (i + 1) in
        let i = ws i in
        if i < n && s.[i] = ',' then obj (ws (i + 1)) ((key, v) :: acc)
        else if i < n && s.[i] = '}' then (Obj (List.rev ((key, v) :: acc)), i + 1)
        else fail i "expected ',' or '}'"
      end
    and arr i acc =
      if acc = [] && i < n && s.[i] = ']' then (List [], i + 1)
      else begin
        let v, i = value i in
        let i = ws i in
        if i < n && s.[i] = ',' then arr (ws (i + 1)) (v :: acc)
        else if i < n && s.[i] = ']' then (List (List.rev (v :: acc)), i + 1)
        else fail i "expected ',' or ']'"
      end
    in
    match value 0 with
    | v, i ->
      let i = ws i in
      if i <> n then Error (Printf.sprintf "trailing bytes at offset %d" i) else Ok v
    | exception Parse_error (i, msg) ->
      Error (Printf.sprintf "offset %d: %s" i msg)

  (* ------------------------------------------------------------------ *)
  (* Accessors                                                           *)
  (* ------------------------------------------------------------------ *)

  let member key = function Obj ms -> List.assoc_opt key ms | _ -> None

  let to_float = function Num v -> Some v | _ -> None

  let to_int = function
    | Num v when Float.is_integer v -> Some (int_of_float v)
    | _ -> None

  let to_str = function Str v -> Some v | _ -> None

  let to_bool = function Bool v -> Some v | _ -> None

  let to_list = function List v -> Some v | _ -> None

  let to_obj = function Obj v -> Some v | _ -> None
end

module Splitmix = struct
  type t = { mutable state : int64 }

  let create state = { state }

  (* Inlined so [next_unit] keeps the output unboxed. *)
  let[@inline] next t =
    t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
    let z = t.state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let next_unit t =
    Int64.to_float (Int64.shift_right_logical (next t) 11) /. 9007199254740992.0
end

let digest_parts ~salt parts =
  let b = Buffer.create 256 in
  Buffer.add_string b salt;
  List.iter
    (fun part ->
      Buffer.add_string b (string_of_int (String.length part));
      Buffer.add_char b ':';
      Buffer.add_string b part)
    parts;
  Digest.to_hex (Digest.string (Buffer.contents b))

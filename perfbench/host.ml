(* Clock, process and file-system helpers. *)

(* Monotonic seconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Reference seconds.  The host's speed swings by a third within
   seconds and drifts over minutes (co-tenants on a shared machine), so
   raw durations of the same work spread too widely to resolve a 10%
   change.  A fixed reference loop, independent of the program, is
   timed throughout each run; durations are reported scaled by
   [reference_s] over the loop's median time, i.e. in seconds on a
   machine where the loop takes exactly 1 ms. *)
let reference_s = 1e-3

let cal_table = Array.make 8192 0

(* Integer and float work over a 64 KiB table with data-dependent
   branches, like the simulator's inner loops. *)
let calibrate () =
  let t0 = now () in
  let s = ref 1 and acc = ref 0. in
  for i = 1 to 400_000 do
    s := ((!s * 1103515245) + 12345) land 0xffffff;
    let j = !s land 8191 in
    let v = cal_table.(j) in
    cal_table.(j) <- v + i;
    if v land 1 = 0 then acc := !acc +. (float_of_int (v land 255) *. 1.0001)
    else acc := !acc *. 0.9999
  done;
  ignore (Sys.opaque_identity !acc);
  now () -. t0

type meter = { mutable samples : float list  (** newest first *) }

let meter () = { samples = [] }

let add m durations = m.samples <- List.rev_append durations m.samples

let sample m = add m (List.init 3 (fun _ -> calibrate ()))

(* Times the loop every 100 ms from a second thread of this domain, so
   samples also fall inside long calls (the thread takes the runtime
   lock at the next tick); the returned function stops it. *)
let sampler m =
  let stop = Atomic.make false in
  let thread =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          Thread.delay 0.1;
          add m [ calibrate () ]
        done)
      ()
  in
  fun () ->
    Atomic.set stop true;
    Thread.join thread

(* Host seconds times [scale m] are reference seconds.  [since] limits
   the median to the samples taken after [mark]: a unit of work is
   scaled by the loop times measured during it, which follows drift
   better than the run's median. *)
let mark m = List.length m.samples

let scale_of times = reference_s /. Stats.median times

let scale ?(since = 0) m =
  scale_of (List.filteri (fun i _ -> i < List.length m.samples - since) m.samples)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* The first "<key>: value" line of a /proc text file. *)
let proc_field path key =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
    List.find_map
      (fun line ->
        match String.index_opt line ':' with
        | Some i when String.trim (String.sub line 0 i) = key ->
          Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
        | _ -> None)
      (String.split_on_char '\n' text)

let proc pid file = if pid = 0 then "/proc/self/" ^ file else Printf.sprintf "/proc/%d/%s" pid file

(* Peak resident set (VmHWM) of a process (0: this one), in MiB. *)
let peak_rss_mb pid =
  match proc_field (proc pid "status") "VmHWM" with
  | Some v -> Scanf.sscanf v "%d kB" (fun kb -> float_of_int kb /. 1024.)
  | None -> nan

(* Restarts the process's VmHWM from its current resident set. *)
let reset_peak_rss pid =
  try Out_channel.with_open_text (proc pid "clear_refs") (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

(* GC collection counts and the major heap's high-water mark. *)
type gc = { minor : int; major : int; top_heap_words : int }

let gc () =
  let s = Gc.quick_stat () in
  { minor = s.Gc.minor_collections; major = s.Gc.major_collections;
    top_heap_words = s.Gc.top_heap_words }

let words_to_mb w = float_of_int (w * (Sys.word_size / 8)) /. (1024. *. 1024.)

(* OCaml version, CPU model and core count, recorded with every result
   set. *)
let fingerprint () =
  [
    ("ocaml", Sys.ocaml_version);
    ("cpu", Option.value ~default:"unknown" (proc_field "/proc/cpuinfo" "model name"));
    ("nproc", string_of_int (Domain.recommended_domain_count ()));
  ]

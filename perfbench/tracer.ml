(* Layer spans recorded from outside the program: the benchmark wraps
   each call into a layer's public function in [span].  Time spent in
   [untimed] sections (the benchmark's own bookkeeping) is cut out of
   the clock altogether, so it lands in no span and not in the total.

   Conservation: a span's self time is its duration minus its child
   spans' durations, so the self times sum to the time covered by
   top-level spans, and self times plus [unattributed] equal [total].
   One tracer belongs to one thread. *)

type frame = { start : float; mutable children : float }

type t = {
  clock : unit -> float;
  origin : float;
  mutable excluded : float;
  mutable stack : frame list;
  mutable covered : float;
  self : (string, float) Hashtbl.t;
}

let now t = t.clock () -. t.excluded

let create clock =
  {
    clock;
    origin = clock ();
    excluded = 0.;
    stack = [];
    covered = 0.;
    self = Hashtbl.create 16;
  }

let span t name f =
  let frame = { start = now t; children = 0. } in
  t.stack <- frame :: t.stack;
  Fun.protect f ~finally:(fun () ->
      let dur = now t -. frame.start in
      t.stack <- List.tl t.stack;
      let prev = Option.value ~default:0. (Hashtbl.find_opt t.self name) in
      Hashtbl.replace t.self name (prev +. dur -. frame.children);
      match t.stack with
      | parent :: _ -> parent.children <- parent.children +. dur
      | [] -> t.covered <- t.covered +. dur)

let untimed t f =
  let t0 = t.clock () in
  Fun.protect f ~finally:(fun () ->
      t.excluded <- t.excluded +. (t.clock () -. t0))

(* The traced total so far and the part of it no span covers, read from
   one clock sample so that the two agree. *)
let totals t =
  let total = now t -. t.origin in
  (total, total -. t.covered)

let self t name = Option.value ~default:0. (Hashtbl.find_opt t.self name)

let layers t =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.self [])

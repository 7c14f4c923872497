type region = { base : int; size : int }

type t = { start : int; mutable next : int }

(* Keep distinct arrays on separate pages so the only sharing effects
   are the ones the experiment asked for via alignment offsets. *)
let guard_bytes = 4096

let create ?(start = 256 * 1024 * 1024) () = { start; next = start }

let alloc t ~size ~align ~offset =
  if align <= 0 || align land (align - 1) <> 0 then
    invalid_arg (Printf.sprintf "Memmap.alloc: alignment %d not a power of two" align);
  if offset < 0 || offset >= align then
    invalid_arg (Printf.sprintf "Memmap.alloc: offset %d out of [0, %d)" offset align);
  if size < 0 then invalid_arg "Memmap.alloc: negative size";
  let aligned = (t.next + align - 1) / align * align in
  let base = aligned + offset in
  t.next <- base + size + guard_bytes;
  { base; size }

let reset t = t.next <- t.start

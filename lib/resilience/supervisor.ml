type quarantine = { kind : string; detail : string; attempts : int }

type 'a outcome = Done of 'a | Quarantined of quarantine

let quarantine_to_string q =
  Printf.sprintf "quarantined (%s) after %d attempt%s: %s" q.kind q.attempts
    (if q.attempts = 1 then "" else "s")
    q.detail

(* The simulator is pure OCaml running in this domain, so a hung
   attempt cannot be preempted; the wall budget is checked after the
   attempt returns ("post-hoc").  That still quarantines variants whose
   simulation cost exploded — the production failure mode here — and
   injected Timeout faults short-circuit deterministically without
   sleeping at all. *)
let attempt_result ?fault ?wall_budget_s f =
  let tel = Mt_telemetry.global () in
  let run () =
    let t0 = Unix.gettimeofday () in
    match f () with
    | v -> (
      let elapsed = Unix.gettimeofday () -. t0 in
      match wall_budget_s with
      | Some budget when elapsed > budget ->
        Error
          ( "timeout",
            Printf.sprintf "wall budget %gs exceeded (attempt took %.3fs)"
              budget elapsed )
      | _ -> Ok v)
    | exception e -> Error ("raise", Printexc.to_string e)
  in
  let inject kind =
    Mt_telemetry.incr tel "resilience.fault.injected";
    match (kind : Fault.kind) with
    | Fault.Raise ->
      Error ("raise", Printexc.to_string (Fault.Injected "injected raise"))
    | Fault.Timeout ->
      Error
        ( "timeout",
          Printf.sprintf "injected timeout (wall budget %gs exceeded)"
            (Option.value wall_budget_s ~default:0.) )
    | Fault.Corrupt_cache_entry ->
      (* Corruption is planted by the caller before supervision starts
         (it needs the cache handle); at this layer it is a plain run. *)
      run ()
  in
  match fault with Some fl -> inject fl.Fault.kind | None -> run ()

let supervise ?fault ?wall_budget_s ~key f =
  let tel = Mt_telemetry.global () in
  match
    Mt_telemetry.span tel "resilience.attempt" ~args:[ ("key", key) ]
      (fun () -> attempt_result ?fault ?wall_budget_s f)
  with
  | Ok v -> Done v
  | Error (kind, detail) ->
    if kind = "timeout" then Mt_telemetry.incr tel "resilience.timeout";
    Mt_telemetry.incr tel "resilience.quarantine";
    Quarantined { kind; detail; attempts = 1 }

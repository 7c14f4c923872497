type env = { pinned : bool; interrupts_masked : bool; warmed : bool }

let stable_env = { pinned = true; interrupts_masked = true; warmed = true }

let hostile_env = { pinned = false; interrupts_masked = false; warmed = false }

type t = { rng : Mt_stats.Splitmix.t; amplitude : float }

let relative_amplitude env =
  let base = 0.002 in
  let base = if env.pinned then base else base +. 0.04 in
  let base = if env.interrupts_masked then base else base +. 0.015 in
  let base = if env.warmed then base else base +. 0.03 in
  base

let create ?(seed = 42) env =
  {
    rng = Mt_stats.Splitmix.create (Int64.of_int (seed lxor 0x9E3779B9));
    amplitude = relative_amplitude env;
  }

let perturb t cycles =
  (* Stall fraction in [0, amplitude), squared to bias toward small
     stalls with an occasional larger one — interrupt-like. *)
  let u = Mt_stats.Splitmix.next_unit t.rng in
  cycles *. (1. +. (t.amplitude *. u *. u))

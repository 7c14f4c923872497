(* A bare OCaml program that starts and exits.  bench.exe times it next
   to each set-up probe: starting a process is kernel work whose speed
   the reference loop does not follow. *)

(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation on the machine model and prints the measured
   series next to the paper's expectation.

     dune exec bench/main.exe            full reproduction
     dune exec bench/main.exe -- --quick reduced sizes (CI smoke)
     dune exec bench/main.exe -- --simspeed-only --simspeed-out FILE
     dune exec bench/main.exe -- fig11 tab02   (subset)
     dune exec bench/main.exe -- --jobs 4      (parallel tables)
     dune exec bench/main.exe -- --cache-dir d --no-cache (result cache)
     dune exec bench/main.exe -- --adaptive-experiments --rciw-target 0.02 \
       --max-experiments 64   (quality-driven experiment counts)

   All run-shaping flags (--jobs, caching, adaptive measurement, the
   --timeout and --sim-budget budgets, --inject-fault, --trace-out, ...)
   are the shared Mt_cli set. *)

open Mt_machine

(* ------------------------------------------------------------------ *)
(* Part 1: figure/table reproduction                                   *)
(* ------------------------------------------------------------------ *)

(* Figures get drawn, not just tabulated: series selection per id. *)
let chart_of (t : Microtools.Exp_table.t) =
  let plot ?log_y ~x_label ~y_label spec =
    Some
      (Microtools.Ascii_plot.render ?log_y ~x_label ~y_label
         (Microtools.Ascii_plot.of_table ~x_column:0 ~y_columns:spec t))
  in
  let levels = [ (1, "L1"); (2, "L2"); (3, "L3"); (4, "RAM") ] in
  match t.Microtools.Exp_table.id with
  | "fig03" -> plot ~x_label:"matrix size" ~y_label:"cycles/iter" [ (1, "matmul") ]
  | "fig05" ->
    plot ~x_label:"unroll" ~y_label:"cycles/iter"
      [ (1, "original"); (2, "microbench") ]
  | "fig11" | "fig12" -> plot ~x_label:"unroll" ~y_label:"cycles/insn" levels
  | "fig13" -> plot ~x_label:"GHz" ~y_label:"tsc-cycles/load" levels
  | "fig14" -> plot ~log_y:true ~x_label:"cores" ~y_label:"cycles/iter" [ (1, "fork") ]
  | "fig15" | "fig16" ->
    plot ~x_label:"alignment config" ~y_label:"cycles/iter" [ (2, "traversal") ]
  | "fig17" | "fig18" ->
    plot ~log_y:true ~x_label:"unroll" ~y_label:"cycles/element"
      [ (2, "sequential"); (5, "openmp") ]
  | "tiling" -> plot ~x_label:"tile" ~y_label:"cycles/iter" [ (1, "tiled matmul") ]
  | _ -> None

let run_experiments ~quick ~config ids =
  let fmt = Format.std_formatter in
  Format.fprintf fmt
    "MicroTools reproduction: paper figures/tables vs the machine model@.@.";
  (* Compute all tables first — in parallel when --jobs allows — then
     print in paper order, so the transcript is stable under -j.  Each
     experiment runs supervised: a crashing figure becomes a quarantine
     note instead of aborting the whole reproduction. *)
  let computed = Microtools.Experiments.run_tables ~quick ~config ids in
  let tables =
    List.filter_map
      (fun (id, outcome) ->
        match outcome with
        | Microtools.Experiments.Table t ->
          Microtools.Exp_table.print fmt t;
          (match chart_of t with
          | Some chart -> Format.fprintf fmt "%s@." chart
          | None -> ());
          Some t
        | Microtools.Experiments.Quarantined q ->
          Format.fprintf fmt "experiment %s: %s@." id
            (Mt_resilience.Supervisor.quarantine_to_string q);
          None
        | Microtools.Experiments.Unknown ->
          Format.fprintf fmt "unknown experiment %s@." id;
          None)
      computed
  in
  (* Compact recap: one line per experiment. *)
  Format.fprintf fmt "=== summary (paper expectation vs measured) ===@.";
  List.iter
    (fun t ->
      Format.fprintf fmt "%-10s %s@." t.Microtools.Exp_table.id
        (match t.Microtools.Exp_table.observations with
        | o :: _ -> o
        | [] -> "see table above"))
    tables;
  Format.fprintf fmt "@.";
  tables

(* ------------------------------------------------------------------ *)
(* Part 2: simspeed — simulated instructions per second                *)
(* ------------------------------------------------------------------ *)

(* A fixed kernel set exercising the three steady states the fast path
   optimizes: a dependent-load ring, a triad instruction pattern, and a
   pure scoreboard ALU mix.  The memory kernels run over L1-resident
   working sets (a one-line pointer ring, one-line vectors at
   set-distinct offsets) so the lane isolates interpreter overhead.
   The memory model is not free to the reference: it never reads the
   memo, so it pays the stream-table pass the fast path skips, and
   the memory kernels read a lower ratio than the ALU mix.  Each row
   times a full [Core.run] against [Core.run_reference] on the same
   compiled program, so the ratio is exactly the fast-path win. *)

let simspeed_kernels =
  let module I = Mt_isa.Insn in
  let module O = Mt_isa.Operand in
  let module R = Mt_isa.Reg in
  let i op ops = I.Insn (I.make op ops) in
  let rsi = R.gpr64 R.RSI and rdi = R.gpr64 R.RDI in
  let rbx = R.gpr64 R.RBX and rcx = R.gpr64 R.RCX in
  let loop body =
    (I.Label "L" :: body)
    @ [
        i I.ADD [ O.imm 1; O.reg (R.gpr32 R.RAX) ];
        i I.SUB [ O.imm 1; O.reg rdi ];
        i (I.Jcc I.GE) [ O.label "L" ];
        i I.RET [];
      ]
  in
  [
    ( "pointer_chase",
      (* Dependent-load ring: the load feeds the next address (through
         %rbx), chasing an 8-node cycle inside one cache line — the
         lat_mem_rd pattern at its L1 plateau. *)
      loop
        [
          i I.MOV [ O.mem ~base:rsi (); O.reg rbx ];
          i I.ADD [ O.reg rbx; O.reg rsi ];
          i I.ADD [ O.imm 8; O.reg rsi ];
          i I.AND [ O.imm 0x3F; O.reg rsi ];
        ],
      30_000 );
    ( "triad",
      (* a[i] = b[i] + s * c[i] over one-line vectors.  The offsets are
         deliberately not multiples of 64 KiB: page-aligned bases would
         put all three vectors in the same dTLB set and the same L1
         sets (64 L1 sets span exactly one page). *)
      loop
        [
          i I.MOVSD [ O.mem ~base:rsi (); O.reg (R.xmm 0) ];
          i I.MOVSD [ O.mem ~base:rsi ~disp:((76 * 1024) + 256) (); O.reg (R.xmm 1) ];
          i I.MULSD [ O.reg (R.xmm 2); O.reg (R.xmm 1) ];
          i I.ADDSD [ O.reg (R.xmm 1); O.reg (R.xmm 0) ];
          i I.MOVSD [ O.reg (R.xmm 0); O.mem ~base:rsi ~disp:((152 * 1024) + 512) () ];
          i I.ADD [ O.imm 8; O.reg rsi ];
          i I.AND [ O.imm 0x3F; O.reg rsi ];
        ],
      30_000 );
    ( "alu_mix",
      loop
        [
          i I.ADD [ O.imm 3; O.reg rbx ];
          i I.IMUL [ O.reg rbx; O.reg rcx ];
          i I.XOR [ O.reg rcx; O.reg rbx ];
          i I.SHL [ O.imm 1; O.reg rcx ];
        ],
      60_000 );
  ]

(* Best-of-N wall times of two runners, interleaved A-B-A-B so host
   noise (frequency drift, sibling load) lands on both engines rather
   than biasing whichever ran second. *)
let best_of_interleaved ~reps f g =
  let bf = ref infinity and bg = ref infinity in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    f ();
    let t1 = Unix.gettimeofday () in
    g ();
    let t2 = Unix.gettimeofday () in
    if t1 -. t0 < !bf then bf := t1 -. t0;
    if t2 -. t1 < !bg then bg := t2 -. t1
  done;
  (!bf, !bg)

let x5650 = Config.nehalem_x5650_2s

let simspeed_measure ~quick =
  let module R = Mt_isa.Reg in
  List.map
    (fun (name, program, trips) ->
      let trips = if quick then trips / 10 else trips in
      let compiled =
        match Core.compile program with
        | Ok c -> c
        | Error e -> failwith (Core.error_to_string e)
      in
      let memory = Memory.create x5650 in
      let init = [ (R.gpr64 R.RDI, trips); (R.gpr64 R.RSI, 0) ] in
      let insns = ref 0 in
      let once run () =
        match run ~init x5650 memory compiled with
        | Ok o -> insns := o.Core.instructions
        | Error e -> failwith (Core.error_to_string e)
      in
      let fast = once (fun ~init cfg mem c -> Core.run ~init cfg mem c) in
      let reference =
        once (fun ~init cfg mem c -> Core.run_reference ~init cfg mem c)
      in
      (* Warm run for each engine: caches filled, block replay built. *)
      fast ();
      reference ();
      let t_fast, t_ref =
        best_of_interleaved ~reps:(if quick then 3 else 7) fast reference
      in
      (name, !insns, t_fast, t_ref))
    simspeed_kernels

let run_simspeed ~quick out =
  let rows = simspeed_measure ~quick in
  print_endline
    "=== simspeed: simulated instructions/second (fast path vs reference) ===";
  Printf.printf "%-16s %10s %12s %12s %10s\n" "kernel" "insns" "fast Mi/s"
    "ref Mi/s" "rel_cost";
  let variants =
    List.map
      (fun (name, insns, t_fast, t_ref) ->
        let mi t = float_of_int insns /. t /. 1e6 in
        let rel = t_fast /. t_ref in
        Printf.printf "%-16s %10d %12.2f %12.2f %10.3f\n" name insns (mi t_fast)
          (mi t_ref) rel;
        (* Only the machine-independent ratio goes into the snapshot:
           absolute Mi/s depends on the host, the ratio only on the
           engines.  Lower is better; the committed baseline holds the
           acceptance ceiling, not a measurement. *)
        Mt_obsv.Snapshot.point_stat
          ~key:(Printf.sprintf "simspeed:%s:rel_cost" name)
          rel)
      rows
  in
  print_newline ();
  match out with
  | None -> ()
  | Some path ->
    let names = List.map (fun (n, _, _, _) -> n) rows in
    let snap =
      Mt_obsv.Snapshot.make ~tool:"simspeed"
        ~kernel:(String.concat "+" names, Mt_obsv.Snapshot.content_hash names)
        ~machine:
          ("nehalem_x5650_2s", Mt_obsv.Snapshot.content_hash [ "nehalem_x5650_2s" ])
        variants
    in
    Mt_obsv.Snapshot.save snap path;
    Printf.printf "simspeed snapshot written to %s (compare with mt_report)\n"
      path

(* ------------------------------------------------------------------ *)
(* Entry                                                               *)
(* ------------------------------------------------------------------ *)

let main quick simspeed_out simspeed_only ids (config : Mt_cli.t) =
  if simspeed_only then begin
    run_simspeed ~quick simspeed_out;
    0
  end
  else begin
  let tel = Mt_cli.setup config in
  Microtools.Experiments.set_run_config config;
  let ids = match ids with [] -> Microtools.Experiments.ids | ids -> ids in
  let tables = run_experiments ~quick ~config ids in
  Mt_cli.print_cache_stats config;
  print_newline ();
  (match
     ( config.Microtools.Study.Run_config.snapshot_out,
       config.Microtools.Study.Run_config.history_append )
   with
  | None, None -> ()
  | snapshot_out, _ ->
    (* The committed BENCH_study.json baseline: one single-observation
       stat per numeric table cell, diffable against a fresh run with
       mt_report. *)
    let variants =
      List.concat_map
        (fun t ->
          List.map
            (fun (key, v) -> Mt_obsv.Snapshot.point_stat ~key v)
            (Microtools.Exp_table.stat_entries t))
        tables
    in
    let snap =
      Mt_obsv.Snapshot.make ~tool:"bench"
        ~kernel:(String.concat "+" ids, Mt_obsv.Snapshot.content_hash ids)
        ~machine:
          ( "table1-presets",
            Mt_obsv.Snapshot.content_hash
              [ Marshal.to_string Config.presets [] ] )
        ~counters:(Mt_telemetry.counters tel) variants
    in
    Option.iter
      (fun path ->
        Mt_obsv.Snapshot.save snap path;
        Printf.printf "run snapshot written to %s (compare with mt_report)\n"
          path)
      snapshot_out;
    Mt_cli.append_history ~label:"bench" config snap);
  (match simspeed_out with
  | Some _ -> run_simspeed ~quick simspeed_out
  | None -> ());
  Mt_cli.finish tel config;
  0
  end

let () =
  let open Cmdliner in
  let quick_arg =
    Arg.(value & flag
         & info [ "quick" ] ~doc:"Shrink sizes and sweeps for a fast smoke run.")
  in
  let simspeed_out_arg =
    Arg.(value & opt (some string) None
         & info [ "simspeed-out" ] ~docv:"FILE"
             ~doc:"Also run the simspeed lane (simulated instructions/second, \
                   fast path vs reference interpreter) and write its snapshot \
                   to $(docv) for mt_report.")
  in
  let simspeed_only_arg =
    Arg.(value & flag
         & info [ "simspeed-only" ]
             ~doc:"Run only the simspeed lane and exit (CI smoke job).")
  in
  let ids_arg =
    Arg.(value & pos_all string []
         & info [] ~docv:"EXPERIMENT"
             ~doc:"Experiment ids to reproduce (default: all, in paper order).")
  in
  let doc = "reproduce the paper's evaluation and time the simulator" in
  let cmd =
    Cmd.v (Cmd.info "bench" ~doc)
      Term.(
        const main $ quick_arg $ simspeed_out_arg
        $ simspeed_only_arg $ ids_arg $ Mt_cli.term)
  in
  exit (Cmd.eval' cmd)

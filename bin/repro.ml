(* repro — regenerate the paper's tables and figures, run single benchmarks,
   inspect programs.

     repro list                 enumerate experiments and benchmarks
     repro table1 fig12 ...     regenerate specific experiments
     repro all                  regenerate everything (EXPERIMENTS.md payload)
     repro run -b DenseMM -s dfd -p 8 -k 50000    one benchmark run
     repro analyze -b FMM       static W/D/S1 analysis of a benchmark *)

open Cmdliner

let exp_ids = Dfd_experiments.All_experiments.ids

let list_cmd =
  let doc = "List available experiments and benchmarks." in
  let run () =
    print_endline "Experiments (tables/figures of the paper):";
    List.iter
      (fun e ->
         Printf.printf "  %-8s %s\n" e.Dfd_experiments.All_experiments.id
           e.Dfd_experiments.All_experiments.summary)
      Dfd_experiments.All_experiments.all;
    print_endline "\nBenchmarks:";
    List.iter
      (fun b ->
         Printf.printf "  %-14s %s\n" b.Dfd_benchmarks.Workload.name
           b.Dfd_benchmarks.Workload.description)
      (Dfd_benchmarks.Registry.all Dfd_benchmarks.Workload.Medium)
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let exp_arg =
  let doc = "Experiment ids to regenerate (see `repro list`)." in
  Arg.(non_empty & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc)

let csv_arg =
  let doc = "Emit comma-separated values (for plotting) instead of tables." in
  Arg.(value & flag & info [ "csv" ] ~doc)

let csv_escape cell =
  if String.exists (fun c -> c = ',' || c = '"') cell then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
  else cell

let print_csv (t : Dfd_experiments.Exp_common.table) =
  Printf.printf "# %s\n" t.Dfd_experiments.Exp_common.title;
  List.iter
    (fun row -> print_endline (String.concat "," (List.map csv_escape row)))
    (t.Dfd_experiments.Exp_common.header :: t.Dfd_experiments.Exp_common.rows)

let metrics_dir_arg =
  let doc =
    "Also write each engine run's machine-readable metrics (counters, histogram summaries, \
     per-processor distributions) as JSON files under $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "metrics-dir" ] ~docv:"DIR" ~doc)

let run_exps csv metrics_dir ids =
  Dfd_experiments.Exp_common.metrics_dir := metrics_dir;
  let ids = if List.mem "all" ids then exp_ids else ids in
  List.iter
    (fun id ->
       match Dfd_experiments.All_experiments.find id with
       | None ->
         Printf.eprintf "unknown experiment %S; known: %s\n" id (String.concat ", " exp_ids);
         exit 2
       | Some e ->
         List.iter
           (fun t ->
              if csv then print_csv t
              else print_string (Dfd_experiments.Exp_common.render t))
           (e.Dfd_experiments.All_experiments.tables ());
         print_newline ())
    ids

let exp_cmd =
  let doc = "Regenerate the given tables/figures (or `all`)." in
  Cmd.v (Cmd.info "exp" ~doc) Term.(const run_exps $ csv_arg $ metrics_dir_arg $ exp_arg)

let bench_arg =
  let doc = "Benchmark name (see `repro list`)." in
  Arg.(value & opt string "DenseMM" & info [ "b"; "benchmark" ] ~docv:"NAME" ~doc)

let grain_arg =
  let doc = "Thread granularity: medium or fine." in
  let c =
    Arg.enum [ ("medium", Dfd_benchmarks.Workload.Medium); ("fine", Dfd_benchmarks.Workload.Fine) ]
  in
  Arg.(value & opt c Dfd_benchmarks.Workload.Fine & info [ "g"; "grain" ] ~docv:"GRAIN" ~doc)

let sched_arg =
  let doc = "Scheduler: dfd, ws, adf or fifo." in
  let c =
    Arg.enum [ ("dfd", `Dfdeques); ("ws", `Ws); ("adf", `Adf); ("fifo", `Fifo) ]
  in
  Arg.(value & opt c `Dfdeques & info [ "s"; "sched" ] ~docv:"SCHED" ~doc)

let p_arg =
  let doc = "Number of simulated processors." in
  Arg.(value & opt int 8 & info [ "p"; "procs" ] ~docv:"P" ~doc)

let k_arg =
  let doc = "Memory threshold K in bytes; 0 means infinite." in
  Arg.(value & opt int 50_000 & info [ "k"; "threshold" ] ~docv:"K" ~doc)

let seed_arg =
  let doc = "PRNG seed (schedules are reproducible per seed)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let mode_arg =
  let doc = "Cost model: `analysis` (Section 4.1) or `costed` (Section 5)." in
  Arg.(value & opt (Arg.enum [ ("analysis", `A); ("costed", `C) ]) `C
       & info [ "m"; "mode" ] ~docv:"MODE" ~doc)

let find_bench name grain =
  match Dfd_benchmarks.Registry.find name grain with
  | b -> b
  | exception Not_found ->
    Printf.eprintf "unknown benchmark %S; known: %s\n" name
      (String.concat ", " Dfd_benchmarks.Registry.names);
    exit 2

let trace_out_arg =
  let doc =
    "Record a structured event trace of the run and export it as Chrome trace-event JSON to \
     $(docv) (open in chrome://tracing or ui.perfetto.dev)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_json_arg =
  let doc =
    "Write the run's full machine-readable metrics (every counter, the steal-latency / \
     deque-residency / quota-utilisation histogram summaries, per-processor and per-victim \
     distributions) as JSON to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "metrics-json" ] ~docv:"FILE" ~doc)

(* File-writing CLI paths: fail with a message, not an uncaught Sys_error. *)
let writing path f =
  try f () with Sys_error m ->
    Printf.eprintf "repro: cannot write %s: %s\n" path m;
    exit 1

let check_invariants_arg =
  let doc =
    "Run the scheduler's structural invariant check (e.g. the Lemma 3.1 priority order) after \
     every timestep.  Slow; only valid for pure nested-parallel programs (no mutexes)."
  in
  Arg.(value & flag & info [ "check-invariants" ] ~doc)

let run_one bench grain sched p k seed mode check_invariants trace_out metrics_json =
  let b = find_bench bench grain in
  let k = if k = 0 then None else Some k in
  let cfg =
    match mode with
    | `A -> Dfd_machine.Config.analysis ~p ~mem_threshold:k ~seed ()
    | `C -> Dfd_machine.Config.costed ~p ~mem_threshold:k ~seed ()
  in
  Format.printf "benchmark: %s (%s)@." b.Dfd_benchmarks.Workload.name
    b.Dfd_benchmarks.Workload.description;
  Format.printf "config: %a@." Dfd_machine.Config.pp cfg;
  let tracer =
    match trace_out with
    | None -> Dfd_trace.Tracer.disabled
    | Some _ -> Dfd_trace.Tracer.create ()
  in
  let r =
    Dfdeques_core.Engine.run ~check_invariants ~sched ~tracer cfg
      (b.Dfd_benchmarks.Workload.prog ())
  in
  if check_invariants then Format.printf "invariants: checked after every timestep, all held@.";
  Format.printf "%a@." Dfdeques_core.Engine.pp_result r;
  (match trace_out with
   | None -> ()
   | Some path ->
     writing path (fun () ->
         Dfd_trace.Chrome.write_file ~path ~p (Dfd_trace.Tracer.events tracer));
     let dropped = Dfd_trace.Tracer.dropped tracer in
     Format.printf "trace: %d events -> %s%s@."
       (Dfd_trace.Tracer.length tracer)
       path
       (if dropped > 0 then Printf.sprintf " (%d oldest dropped by the ring buffer)" dropped
        else ""));
  match metrics_json with
  | None -> ()
  | Some path ->
    writing path (fun () ->
        let oc = open_out path in
        Dfd_trace.Json.to_channel oc (Dfdeques_core.Engine.result_to_json r);
        output_char oc '\n';
        close_out oc);
    Format.printf "metrics: %s@." path

let run_cmd =
  let doc = "Run one benchmark under one scheduler and print its metrics." in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run_one $ bench_arg $ grain_arg $ sched_arg $ p_arg $ k_arg $ seed_arg $ mode_arg
      $ check_invariants_arg $ trace_out_arg $ metrics_json_arg)

let analyze_one bench grain =
  let b = find_bench bench grain in
  let s = Dfd_dag.Analysis.analyze (b.Dfd_benchmarks.Workload.prog ()) in
  Format.printf "benchmark: %s (%s)@.%a@." b.Dfd_benchmarks.Workload.name
    b.Dfd_benchmarks.Workload.description Dfd_dag.Analysis.pp_summary s

let analyze_cmd =
  let doc = "Static analysis (W, D, S1, Sa, threads) of a benchmark's dag." in
  Cmd.v (Cmd.info "analyze" ~doc) Term.(const analyze_one $ bench_arg $ grain_arg)

let steps_arg =
  let doc = "Number of leading timesteps to render." in
  Arg.(value & opt int 100 & info [ "steps" ] ~docv:"N" ~doc)

(* A textual Gantt chart: one row per processor, one column per timestep,
   each cell the thread id (mod 62) that executed there — built from the
   engine's observer hook. *)
let trace_one bench grain sched p k seed steps json_out =
  let b = find_bench bench grain in
  let k = if k = 0 then None else Some k in
  let cfg = Dfd_machine.Config.analysis ~p ~mem_threshold:k ~seed () in
  let grid = Array.make_matrix p steps '.' in
  let symbol tid =
    let alphabet = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ" in
    alphabet.[tid mod String.length alphabet]
  in
  let tracer =
    match json_out with
    | None -> Dfd_trace.Tracer.disabled
    | Some _ -> Dfd_trace.Tracer.create ()
  in
  let r =
    Dfdeques_core.Engine.run ~sched ~tracer cfg
      ~observer:(fun ~now ~proc th _a ->
          if now >= 1 && now <= steps then
            grid.(proc).(now - 1) <- symbol th.Dfdeques_core.Thread_state.tid)
      (b.Dfd_benchmarks.Workload.prog ())
  in
  Format.printf "%s on %s, p=%d: first %d of %d timesteps ('.' = idle/stalled,@ \
                 letters/digits = thread id mod 62)@.@."
    (Dfdeques_core.Engine.sched_name sched)
    b.Dfd_benchmarks.Workload.name p steps r.Dfdeques_core.Engine.time;
  Array.iteri
    (fun proc row -> Format.printf "P%d |%s|@." proc (String.init steps (Array.get row)))
    grid;
  Format.printf "@.steals=%d local=%d queue=%d granularity=%.1f@." r.Dfdeques_core.Engine.steals
    r.Dfdeques_core.Engine.local_dispatches r.Dfdeques_core.Engine.queue_dispatches
    r.Dfdeques_core.Engine.sched_granularity;
  match json_out with
  | None -> ()
  | Some path ->
    writing path (fun () ->
        Dfd_trace.Chrome.write_file ~path ~p (Dfd_trace.Tracer.events tracer));
    Format.printf "full event trace (%d events) -> %s@." (Dfd_trace.Tracer.length tracer) path

let trace_json_arg =
  let doc = "Also export the full structured event trace as Chrome trace-event JSON to $(docv)." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let trace_cmd =
  let doc = "Render a textual Gantt chart of the first timesteps of a schedule." in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      const trace_one $ bench_arg $ grain_arg $ sched_arg $ p_arg $ k_arg $ seed_arg $ steps_arg
      $ trace_json_arg)

(* Export a small dag to Graphviz: either the Figure 2-style demo dag or a
   random nested-parallel program from a seed. *)
let dot_one which seed =
  let open Dfd_dag in
  let prog =
    match which with
    | `Demo ->
      (* the shape of the paper's Figure 2: a root forking four children,
         the second of which forks a fifth *)
      let open Prog in
      let leaf = work 2 in
      finish
        (work 1
         >> par leaf (work 1)
         >> par (par leaf (work 1)) (work 1)
         >> par leaf (work 1)
         >> par leaf (work 1))
    | `Random -> Dag_gen.gen_prog (Dfd_structures.Prng.create seed)
                   { Dag_gen.default with max_depth = 4 }
  in
  print_string (Dag.to_dot (Dag.of_prog prog))

let dot_cmd =
  let doc = "Export a small example dag as Graphviz (pipe into `dot -Tsvg`)." in
  let which =
    Arg.(value & opt (Arg.enum [ ("demo", `Demo); ("random", `Random) ]) `Demo
         & info [ "w"; "which" ] ~docv:"WHICH" ~doc:"`demo' (Figure 2 shape) or `random'.")
  in
  Cmd.v (Cmd.info "dot" ~doc) Term.(const dot_one $ which $ seed_arg)

let chaos_campaigns_arg =
  let doc = "Fault-injection campaigns per scheduler (alternating lock-free and lock-heavy)." in
  Arg.(value & opt int 6 & info [ "n"; "campaigns" ] ~docv:"N" ~doc)

let chaos_json_arg =
  let doc =
    "Write the full machine-readable campaign report as JSON to $(docv).  For a fixed seed the \
     report is byte-identical across runs (the pool section only contains deterministic facts)."
  in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let chaos_skip_pool_arg =
  let doc = "Only run the (fast, fully deterministic) simulator campaigns." in
  Arg.(value & flag & info [ "skip-pool" ] ~doc)

let chaos_crash_arg =
  let doc =
    "Also run the per-worker crash-domain campaigns: a seeded worker crash is injected \
     mid-sort into each native pool policy; the pool must quarantine the dead worker, \
     recover its held task exactly once (lineage-ledger audit), finish correctly at p-1 \
     with the live Theorem-4.4 budget agreeing with the degraded p, then respawn the slot \
     under budget and complete a clean run at full strength."
  in
  Arg.(value & flag & info [ "crash" ] ~doc)

let chaos_run seed campaigns p json_out skip_pool crash =
  exit (Chaos.run_chaos ~seed ~campaigns ~p ~json_out ~skip_pool ~crash)

let chaos_cmd =
  let doc =
    "Run seeded fault-injection campaigns (stalls, forced steal failures, task exceptions, \
     allocation spikes, lock delays, worker crashes) against every scheduler and the native \
     pool, checking invariants, exception propagation, timeouts, graceful degradation and \
     crash recovery."
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(
      const chaos_run $ seed_arg $ chaos_campaigns_arg $ p_arg $ chaos_json_arg
      $ chaos_skip_pool_arg $ chaos_crash_arg)

let soak_duration_arg =
  let doc = "Logical duration of the submission phase, in service steps (>= 12)." in
  Arg.(value & opt int 60 & info [ "duration-steps" ] ~docv:"N" ~doc)

let soak_plan_arg =
  let doc =
    "Fault plan: `none', `exns' (raising + flaky + deadline jobs), `wedges' (pool-wedging \
     jobs), `spikes' (allocation spikes driving the adaptive quota controller), or `mixed'."
  in
  Arg.(value & opt (Arg.enum Soak.plans) Soak.P_mixed & info [ "fault-plan" ] ~docv:"PLAN" ~doc)

let soak_policy_arg =
  let doc = "Pool policy: `dfd' (DFDeques with the adaptive-K controller) or `ws'." in
  Arg.(value & opt (Arg.enum [ ("dfd", `Dfd); ("ws", `Ws) ]) `Dfd
       & info [ "policy" ] ~docv:"POLICY" ~doc)

let soak_grace_arg =
  let doc =
    "Seconds without pool heartbeat progress before an in-flight attempt is declared wedged.  \
     Wall-clock input parameter only; it never appears in the report."
  in
  Arg.(value & opt float 1.5 & info [ "wedge-grace" ] ~docv:"SECONDS" ~doc)

let soak_json_arg =
  let doc =
    "Write the full machine-readable soak report as JSON to $(docv).  The report contains only \
     logical-clock facts, so for fixed arguments it is byte-identical across runs."
  in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let soak_flight_arg =
  let doc =
    "Enable the flight recorder's crash forensics: on a pool wedge, an attempt timeout or a \
     supervisor give-up, dump the current pool incarnation's event ring as a JSON artifact \
     under $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "flight-dir" ] ~docv:"DIR" ~doc)

let soak_tenants_arg =
  let doc =
    "Run the multi-tenant open-loop campaign instead of a fault plan: `normal' (three tenants \
     under steady seeded load; nothing may be shed) or `bully' (the lowest-weight tenant \
     offers ~10x load laced with allocation spikes; the oracle checks its own full lane sheds it \
     first and alone, victims complete >= 99% with bounded p99, and per-tenant K budgets stay \
     isolated)."
  in
  Arg.(value & opt (some (Arg.enum Soak.tenant_modes)) None
       & info [ "tenants" ] ~docv:"MODE" ~doc)

let soak_run seed duration plan tenants policy grace json_out flight_dir =
  let tenants = match tenants with None -> Soak.T_off | Some m -> m in
  exit
    (Soak.run_soak ~seed ~duration ~plan ~tenants ~policy ~wedge_grace:grace ~json_out
       ~flight_dir)

let soak_cmd =
  let doc =
    "Run a deterministic soak campaign against the supervised job service: a seeded schedule \
     of well-behaved, raising, flaky, deadline-bound, allocation-spiking and pool-wedging \
     jobs, driven for a fixed number of logical steps and audited against the exactly-once \
     ledger (zero lost jobs, zero duplicated acknowledgements, outcome classes per \
     archetype, wedge -> respawn -> requeue exactly once, adaptive-K shrink and recovery).  \
     With $(b,--tenants) the campaign instead exercises the multi-tenant front door: \
     weighted-fair bounded lanes under seeded open-loop load, shedding at a full lane, and \
     per-tenant adaptive-K isolation."
  in
  Cmd.v (Cmd.info "soak" ~doc)
    Term.(
      const soak_run $ seed_arg $ soak_duration_arg $ soak_plan_arg $ soak_tenants_arg
      $ soak_policy_arg $ soak_grace_arg $ soak_json_arg $ soak_flight_arg)

(* ------------------------------------------------------------------ *)
(* metrics: one deterministic simulated run exposed through the         *)
(* telemetry plane (OpenMetrics text + JSON snapshot + flight dump)     *)
(* ------------------------------------------------------------------ *)

let metrics_text_arg =
  let doc =
    "Write the OpenMetrics v1 exposition to $(docv) instead of stdout.  The simulator is \
     deterministic, so for fixed arguments the output is byte-identical across runs."
  in
  Arg.(value & opt (some string) None & info [ "text" ] ~docv:"FILE" ~doc)

let metrics_snapshot_arg =
  let doc = "Also write the registry snapshot as JSON to $(docv)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let metrics_flight_arg =
  let doc = "Also dump the run's flight-recorder ring as a JSON artifact to $(docv)." in
  Arg.(value & opt (some string) None & info [ "flight" ] ~docv:"FILE" ~doc)

let metrics_run bench grain sched p k seed mode text_out json_out flight_out =
  let b = find_bench bench grain in
  let kopt = if k = 0 then None else Some k in
  let cfg =
    match mode with
    | `A -> Dfd_machine.Config.analysis ~p ~mem_threshold:kopt ~seed ()
    | `C -> Dfd_machine.Config.costed ~p ~mem_threshold:kopt ~seed ()
  in
  let prog = b.Dfd_benchmarks.Workload.prog () in
  let s = Dfd_dag.Analysis.analyze prog in
  let registry = Dfd_obs.Registry.create () in
  let flight = Dfd_trace.Tracer.create ~capacity:256 ~lanes:(p + 1) () in
  (* with analysis in hand the budget gauge is the exact Oracle.thm44
     bound: S1 + c * min(K, S1) * p * D (infinite K degrades to K = S1) *)
  let s1 = s.Dfd_dag.Analysis.serial_space in
  let headroom =
    Dfd_obs.Headroom.create ~registry
      ~policy:(Dfdeques_core.Engine.sched_name sched)
      ~s1 ~depth:s.Dfd_dag.Analysis.depth ~p
      ~k:(match kopt with Some k -> k | None -> s1)
      ()
  in
  let (_ : Dfdeques_core.Engine.result) =
    Dfdeques_core.Engine.run ~sched ~registry ~flight ~headroom cfg prog
  in
  let samples = Dfd_obs.Registry.snapshot registry in
  (match text_out with
   | None -> print_string (Dfd_obs.Openmetrics.render samples)
   | Some path ->
     writing path (fun () ->
         let oc = open_out path in
         Dfd_obs.Openmetrics.write_channel oc samples;
         close_out oc);
     Printf.printf "metrics text: %d samples -> %s\n" (List.length samples) path);
  (match json_out with
   | None -> ()
   | Some path ->
     writing path (fun () ->
         let oc = open_out path in
         Dfd_trace.Json.to_channel oc (Dfd_obs.Registry.Snapshot.to_json samples);
         output_char oc '\n';
         close_out oc);
     Printf.printf "metrics snapshot: %s\n" path);
  match flight_out with
  | None -> ()
  | Some path ->
    writing path (fun () -> Dfd_trace.Tracer.write_file ~path ~reason:"run" flight);
    Printf.printf "flight dump: %d events -> %s\n" (Dfd_trace.Tracer.total flight) path

let metrics_cmd =
  let doc =
    "Run one benchmark under the live telemetry plane and emit the registry as OpenMetrics v1 \
     text (and optionally a JSON snapshot and a flight-recorder dump).  The exposition carries \
     the dfd_engine_* instruments and the Theorem-4.4 space-headroom gauge family \
     (live/peak/budget bytes, headroom ratio, premature-node count and depth histogram), with \
     the budget computed exactly as the offline Oracle.thm44 bound."
  in
  Cmd.v (Cmd.info "metrics" ~doc)
    Term.(
      const metrics_run $ bench_arg $ grain_arg $ sched_arg $ p_arg $ k_arg $ seed_arg $ mode_arg
      $ metrics_text_arg $ metrics_snapshot_arg $ metrics_flight_arg)

let check_iters_arg =
  let doc = "Schedule-exploration budget: randomised schedules per scenario." in
  Arg.(value & opt int 100 & info [ "n"; "iters" ] ~docv:"N" ~doc)

let check_depth_arg =
  let doc = "PCT depth d: the controller inserts d-1 random priority-change points." in
  Arg.(value & opt int 3 & info [ "d"; "depth" ] ~docv:"D" ~doc)

let check_scenario_arg =
  let doc = "Explore only this scenario (see --list); default: all correct scenarios." in
  Arg.(value & opt (some string) None & info [ "scenario" ] ~docv:"NAME" ~doc)

let check_replay_arg =
  let doc = "Re-execute the exact schedule recorded in replay file $(docv) instead of exploring." in
  Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"FILE" ~doc)

let check_replay_out_arg =
  let doc = "Where to write the replay file on failure (default replay_<scenario>_<seed>.json)." in
  Arg.(value & opt (some string) None & info [ "replay-out" ] ~docv:"FILE" ~doc)

let check_list_arg =
  let doc = "List the scenarios and exit." in
  Arg.(value & flag & info [ "list" ] ~doc)

let check_run seed iters depth scenario replay replay_out list =
  exit
    (Check_cli.run_check ~seed ~budget:iters ~depth ~scenario ~replay ~replay_out ~list)

let check_cmd =
  let doc =
    "Systematically explore thread interleavings of the lock-free deque and the native pool \
     under a seeded PCT-style controller.  Deterministic per seed; failing schedules are \
     shrunk to a minimal decision trace and saved as a replay file."
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(
      const check_run $ seed_arg $ check_iters_arg $ check_depth_arg $ check_scenario_arg
      $ check_replay_arg $ check_replay_out_arg $ check_list_arg)

let default =
  Term.(ret (const (fun () -> `Help (`Pager, None)) $ const ()))

let () =
  let info =
    Cmd.info "repro" ~version:"1.0"
      ~doc:
        "Reproduction of 'Scheduling Threads for Low Space Requirement and Good Locality' \
         (Narlikar, SPAA 1999)."
  in
  (* allow `repro table1` as a shortcut for `repro exp table1` *)
  let argv = Sys.argv in
  let argv =
    if Array.length argv > 1 && (List.mem argv.(1) exp_ids || argv.(1) = "all") then
      Array.concat [ [| argv.(0); "exp" |]; Array.sub argv 1 (Array.length argv - 1) ]
    else argv
  in
  exit
    (Cmd.eval ~argv
       (Cmd.group ~default info
          [ list_cmd; exp_cmd; run_cmd; analyze_cmd; trace_cmd; dot_cmd; chaos_cmd; soak_cmd;
            check_cmd; metrics_cmd ]))

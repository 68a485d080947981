(* The layered benchmark: one workload per process, its end-to-end
   metrics untraced (--trace 0) or its per-layer metrics traced
   (--trace 1), printed as one JSON object on the last line of stdout.

     bench.exe --workload fib|psort|service|sim --seed N --seconds S
               --trace 0|1 [--spans FILE]

   perfbench/run.py builds this program from the source tree and runs it;
   perfbench/README.md maps each per-layer metric to the end-to-end
   metric and workload it should move. *)

open Measure

let workloads = [ "fib"; "psort"; "service"; "sim" ]

let end_to_end =
  [
    ("op_time_rel.ws", "ratio");
    ("op_time_rel.dfd", "ratio");
    ("setup_s", "s");
    ("peak_rss_mb", "MiB");
  ]

let programs =
  List.map
    (fun w -> w.Dfd_benchmarks.Workload.name)
    (Dfd_benchmarks.Registry.table_benchmarks Dfd_benchmarks.Workload.Fine)

(* Each per-layer metric with its unit and the workloads that measure
   it; on the other workloads it reads 0. *)
let per_layer =
  let pool = [ "fib"; "psort" ] in
  let both (name, unit, owners) = [ (name ^ ".ws", unit, owners); (name ^ ".dfd", unit, owners) ] in
  List.concat
    [
      [
        ("structures.clev.push_pop_ns", "ns", pool);
        ("structures.lfdeque.push_pop_ns", "ns", pool);
        ("structures.clev.steal_ns", "ns", pool);
        ("structures.lfdeque.steal_ns", "ns", pool);
        ("structures.multiq.insert_remove_ns", "ns", pool);
        ("structures.multiq.sample_ns", "ns", pool);
        ("structures.lfdeque.sync_ops_per_op", "count", pool);
      ];
      List.concat_map both
        [
          ("runtime.tasks_per_op", "count", pool);
          ("runtime.steals_per_op", "count", pool);
          ("runtime.steal_success_ratio", "ratio", pool);
          ("runtime.parks_per_op", "count", pool);
          ("runtime.sync_ops_per_task", "count", pool);
        ];
      [
        ("runtime.quota_giveups_per_op.dfd", "count", pool);
        ("runtime.r_churn_per_op.dfd", "count", pool);
        ("runtime.rank_error_p90.dfd", "count", pool);
      ];
      List.concat_map both
        [
          ("bench.op_ms_mean", "ms", workloads);
          ("bench.op_ms_p50", "ms", workloads);
          ("bench.op_ms_p90", "ms", workloads);
          ("runtime.fork_join_ns", "ns", [ "fib" ]);
          ("runtime.alloc_mb_per_op", "MiB", [ "fib"; "psort"; "sim" ]);
          ("runtime.run_empty_us", "us", [ "service" ]);
          ("runtime.speedup_p2", "ratio", pool);
          ("gc.minor_per_op", "count", workloads);
          ("gc.major_per_op", "count", workloads);
          ("service.admit_us_p50", "us", [ "service" ]);
          ("service.wait_ms_p50", "ms", [ "service" ]);
          ("service.exec_us_p50", "us", [ "service" ]);
          ("service.handoff_us_p50", "us", [ "service" ]);
          ("service.settle_us_p50", "us", [ "service" ]);
          ("service.steps_per_job", "count", [ "service" ]);
          ("service.driver_busy_frac", "ratio", [ "service" ]);
          ("service.jobs_per_s", "1/s", [ "service" ]);
          ("core.actions_per_s", "1/s", [ "sim" ]);
          ("core.cache_accesses_per_op", "count", [ "sim" ]);
          ("core.steal_attempts_per_op", "count", [ "sim" ]);
        ];
      List.concat_map (fun p -> both ("core.run_ms." ^ p, "ms", [ "sim" ])) programs;
      [
        ("dag.prog_build_ms", "ms", [ "sim" ]);
        ("obs.registry_overhead_ratio", "ratio", [ "fib" ]);
        ("trace.tracer_overhead_ratio", "ratio", [ "sim" ]);
      ];
      List.map (fun w -> ("bench.trace_overhead_ratio." ^ w, "ratio", [ w ])) workloads;
    ]

(* The result line.  Every metric of the mode must have been measured by
   a workload that owns it. *)
let result ~workload ~trace ~attempted ~failed =
  let metrics =
    if trace then per_layer else List.map (fun (n, u) -> (n, u, workloads)) end_to_end
  in
  let missing =
    List.filter (fun (n, _, owners) -> List.mem workload owners && not (Hashtbl.mem values n)) metrics
  in
  if missing <> [] then
    failwith
      ("unmeasured metrics: " ^ String.concat ", " (List.map (fun (n, _, _) -> n) missing));
  let entry (n, u, _) =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n
      (Option.value ~default:0.0 (Hashtbl.find_opt values n))
      u
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (failed = 0 && attempted > 0)
    attempted failed
    (String.concat ", " (List.map entry metrics))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let spans = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--spans", Arg.Set_string spans, "FILE where the traced mode writes its spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("bench: unknown workload " ^ !workload);
    exit 2
  end;
  let trace = !trace = 1 in
  Printf.printf "host: nproc=%d ocaml=%s workload=%s seed=%d seconds=%g trace=%b\n%!"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version !workload !seed !seconds trace;
  let seed = !seed and seconds = !seconds in
  let attempted, failed =
    match !workload with
    | "fib" | "psort" -> Pool_wl.run ~workload:!workload ~seed ~seconds ~trace
    | "service" -> Service_wl.run ~seed ~seconds ~trace
    | _ -> Sim_wl.run ~seed ~seconds ~trace
  in
  set "setup_s" (fifths_median !setup_times);
  set "peak_rss_mb" (peak_rss_mb ());
  if trace && !spans <> "" then Spans.dump !spans;
  print_endline (result ~workload:!workload ~trace ~attempted ~failed)

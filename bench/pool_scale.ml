(* Throughput/scalability benchmark for the native Domains pool.

     dune exec bench/pool_scale.exe                    # full sweep
     dune exec bench/pool_scale.exe -- --smoke         # seconds-long CI config
     dune exec bench/pool_scale.exe -- -o out.json     # report path

   Workloads: fork-join fib (pure scheduling overhead — every node is a
   fork) and psort (divide-and-conquer with real data movement).  Each
   (policy, workload) pair sweeps worker counts; the report records wall
   time, task throughput and the pool counters per point, plus the
   speedup of every p relative to p=1, as machine-readable JSON
   ([BENCH_pool.json] by default) so the perf trajectory is tracked
   across PRs.

   The process exit code reflects only crashes/incorrect results — never
   timing — so CI can run the smoke configuration on noisy shared
   hardware.  Speedup numbers are meaningful only on a machine that
   actually has the cores (this is what the `cores` field is for). *)

module Pool = Dfd_runtime.Pool
module Psort = Dfd_runtime.Psort
module Prng = Dfd_structures.Prng
module Json = Dfd_trace.Json
module Registry = Dfd_obs.Registry
module Stats = Dfd_structures.Stats

let rec fib n =
  if n < 2 then n
  else begin
    let a, b = Pool.fork_join (fun () -> fib (n - 1)) (fun () -> fib (n - 2)) in
    a + b
  end

(* Sequential reference for the correctness check. *)
let rec sfib n = if n < 2 then n else sfib (n - 1) + sfib (n - 2)

type point = {
  workload : string;
  policy_name : string;
  p : int;
  time_s : float;
  reps : int;
  tasks_run : int;
  steals : int;
  steal_failures : int;
  local_pops : int;
  r_inserts : int;
  r_removes : int;
  sync_ops : int;
  rank_hist : Stats.Histogram.t;
}

(* Best-of-[reps] wall time for [f] on a fresh pool; counters are from the
   last rep (created fresh per point so reps don't accumulate). *)
let measure ~policy ~p ~reps f check =
  let pool = Pool.create ~domains:(p - 1) policy in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
       let best = ref infinity in
       for _ = 1 to reps do
         let t0 = Unix.gettimeofday () in
         let v = Pool.run pool f in
         let dt = Unix.gettimeofday () -. t0 in
         if not (check v) then failwith "pool_scale: wrong result";
         if dt < !best then best := dt
       done;
       (!best, Pool.counters pool, Pool.rank_error pool))

let point ~workload ~policy_name ~policy ~p ~reps f check =
  let time_s, c, rank_hist = measure ~policy ~p ~reps f check in
  Printf.printf "%-6s %-4s p=%d  %.4fs  tasks=%d steals=%d\n%!" workload policy_name p time_s
    c.Pool.tasks_run c.Pool.steals;
  {
    workload;
    policy_name;
    p;
    time_s;
    reps;
    tasks_run = c.Pool.tasks_run;
    steals = c.Pool.steals;
    steal_failures = c.Pool.steal_failures;
    local_pops = c.Pool.local_pops;
    r_inserts = c.Pool.r_inserts;
    r_removes = c.Pool.r_removes;
    sync_ops = c.Pool.sync_ops;
    rank_hist;
  }

let point_json pt =
  Json.Assoc
    [
      ("workload", Json.String pt.workload);
      ("policy", Json.String pt.policy_name);
      ("p", Json.Int pt.p);
      ("time_s", Json.Float pt.time_s);
      ("reps", Json.Int pt.reps);
      ("tasks_run", Json.Int pt.tasks_run);
      ("steals", Json.Int pt.steals);
      ("steal_failures", Json.Int pt.steal_failures);
      ("local_pops", Json.Int pt.local_pops);
      ( "throughput_tasks_per_s",
        Json.Float (if pt.time_s > 0.0 then float_of_int pt.tasks_run /. pt.time_s else 0.0) );
    ]

(* Observability-overhead pair: the identical WS fib workload with the
   metrics registry enabled vs disabled.  The hot path's cost when
   disabled is one load + branch per instrumented site; the ratio is
   recorded (never gated — CI hardware is noisy) so regressions in the
   instrumentation show up in the perf trajectory. *)
let obs_overhead ~fib_n ~reps ~p ~expect =
  let timed registry =
    let pool = Pool.create ~domains:(p - 1) ?registry Pool.Work_stealing in
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () ->
         let best = ref infinity in
         for _ = 1 to reps do
           let t0 = Unix.gettimeofday () in
           let v = Pool.run pool (fun () -> fib fib_n) in
           let dt = Unix.gettimeofday () -. t0 in
           if v <> expect then failwith "pool_scale: wrong result (obs pair)";
           if dt < !best then best := dt
         done;
         !best)
  in
  let disabled_s = timed None in
  let enabled_s = timed (Some (Registry.create ())) in
  Printf.printf "obs    ws   p=%d  disabled=%.4fs enabled=%.4fs ratio=%.3f\n%!" p disabled_s
    enabled_s
    (if disabled_s > 0.0 then enabled_s /. disabled_s else 0.0);
  Json.Assoc
    [
      ("workload", Json.String "fib");
      ("policy", Json.String "ws");
      ("p", Json.Int p);
      ("reps", Json.Int reps);
      ("disabled_time_s", Json.Float disabled_s);
      ("enabled_time_s", Json.Float enabled_s);
      ( "overhead_ratio",
        Json.Float (if disabled_s > 0.0 then enabled_s /. disabled_s else 0.0) );
    ]

(* Rank-error histogram of the relaxed R-list, one row per dfd point.
   Quantiles come from the log2-bucketed Stats.Histogram merged across
   workers; zero rows (no steals) carry count=0 and omit nothing — the
   schema checker wants the row either way. *)
let rank_error_rows points =
  List.filter_map
    (fun pt ->
       if pt.policy_name <> "dfd" then None
       else
         let h = pt.rank_hist in
         let q x = match Stats.Histogram.quantile h x with Some v -> v | None -> 0.0 in
         Some
           (Json.Assoc
              [
                ("workload", Json.String pt.workload);
                ("policy", Json.String pt.policy_name);
                ("p", Json.Int pt.p);
                ("count", Json.Int (Stats.Histogram.count h));
                ("p50", Json.Float (q 0.5));
                ("p90", Json.Float (q 0.9));
                ("p99", Json.Float (q 0.99));
                ( "max",
                  Json.Float (match Stats.Histogram.max_opt h with Some v -> v | None -> 0.0)
                );
              ]))
    points

(* Membership traffic on the R-list: inserts/removes per dfd point.  The
   relaxed structure does one CAS publish per insert and one per remove;
   the old design additionally rebuilt a leftmost-p snapshot under a
   global lock on every one of these. *)
let r_membership_rows points =
  List.filter_map
    (fun pt ->
       if pt.policy_name <> "dfd" then None
       else
         Some
           (Json.Assoc
              [
                ("workload", Json.String pt.workload);
                ("policy", Json.String pt.policy_name);
                ("p", Json.Int pt.p);
                ("inserts", Json.Int pt.r_inserts);
                ("removes", Json.Int pt.r_removes);
              ]))
    points

(* Synchronization operations (the Rito & Paulino metric the CAS-only
   deque is optimizing): atomic RMWs + publishing stores executed by the
   task-transfer paths, including failed CAS attempts, one row per point
   and both policies; never timing-gated. *)
let sync_ops_rows points =
  List.map
    (fun pt ->
       Json.Assoc
         [
           ("workload", Json.String pt.workload);
           ("policy", Json.String pt.policy_name);
           ("p", Json.Int pt.p);
           ("sync_ops", Json.Int pt.sync_ops);
           ( "sync_ops_per_task",
             Json.Float
               (if pt.tasks_run > 0 then float_of_int pt.sync_ops /. float_of_int pt.tasks_run
                else 0.0) );
         ])
    points

(* speedup(p) = time(p=1) / time(p), per (workload, policy) group *)
let speedups points =
  List.filter_map
    (fun pt ->
       if pt.p = 1 then None
       else
         List.find_opt
           (fun b -> b.p = 1 && b.workload = pt.workload && b.policy_name = pt.policy_name)
           points
         |> Option.map (fun base ->
             Json.Assoc
               [
                 ("workload", Json.String pt.workload);
                 ("policy", Json.String pt.policy_name);
                 ("p", Json.Int pt.p);
                 ( "speedup_vs_p1",
                   Json.Float (if pt.time_s > 0.0 then base.time_s /. pt.time_s else 0.0) );
               ]))
    points

let () =
  let smoke = ref false in
  let out = ref "BENCH_pool.json" in
  Arg.parse
    [
      ("--smoke", Arg.Set smoke, " seconds-long configuration (CI: fails on crash, not timing)");
      ("-o", Arg.Set_string out, "FILE report path (default BENCH_pool.json)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "pool_scale [--smoke] [-o FILE]";
  let fib_n, sort_n, reps, ps =
    if !smoke then (18, 20_000, 1, [ 1; 2 ]) else (26, 400_000, 3, [ 1; 2; 4; 8 ])
  in
  let fib_expect = sfib fib_n in
  let policies = [ ("ws", Pool.Work_stealing); ("dfd", Pool.Dfdeques { quota = 32_768 }) ] in
  let points =
    List.concat_map
      (fun (policy_name, policy) ->
         List.concat_map
           (fun p ->
              let fib_pt =
                point ~workload:"fib" ~policy_name ~policy ~p ~reps
                  (fun () -> fib fib_n)
                  (fun v -> v = fib_expect)
              in
              let sort_pt =
                point ~workload:"psort" ~policy_name ~policy ~p ~reps
                  (fun () ->
                     let rng = Prng.create 42 in
                     let arr = Array.init sort_n (fun _ -> Prng.int rng 1_000_000) in
                     Psort.sort ~cutoff:512 ~cmp:compare arr;
                     arr)
                  (Psort.sorted ~cmp:compare)
              in
              [ fib_pt; sort_pt ])
           ps)
      policies
  in
  let obs =
    obs_overhead ~fib_n ~reps ~p:(List.fold_left max 1 ps) ~expect:fib_expect
  in
  let report =
    Json.Assoc
      [
        ("bench", Json.String "pool_scale");
        ("smoke", Json.Bool !smoke);
        ("cores", Json.Int (Domain.recommended_domain_count ()));
        ("fib_n", Json.Int fib_n);
        ("sort_n", Json.Int sort_n);
        ("results", Json.List (List.map point_json points));
        ("speedups", Json.List (speedups points));
        ("rank_error", Json.List (rank_error_rows points));
        ("r_membership_ops", Json.List (r_membership_rows points));
        ("sync_ops", Json.List (sync_ops_rows points));
        ("obs_overhead", obs);
      ]
  in
  let oc = open_out !out in
  Json.to_channel oc report;
  output_char oc '\n';
  close_out oc;
  Printf.printf "report: %s\n" !out

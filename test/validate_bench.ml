(* Tiny schema checker for the `pool_scale` benchmark report
   (BENCH_pool.json): structural validity only — never timing — so CI can
   gate on it from any hardware.  Usage: validate_bench FILE *)

module Json = Dfd_trace.Json

let fail fmt = Json_util.failf ~prog:"validate_bench" fmt

let to_number_exn = Json_util.to_number_exn

let () =
  let path = match Sys.argv with [| _; p |] -> p | _ -> fail "usage: validate_bench FILE" in
  let j =
    try Json_util.parse_file path with Json.Parse_error m -> fail "bad JSON: %s" m
  in
  (match Json.member "bench" j with
   | Json.String "pool_scale" -> ()
   | _ -> fail "bench field must be \"pool_scale\"");
  (match Json.member "smoke" j with
   | Json.Bool _ -> ()
   | _ -> fail "smoke must be a bool");
  let cores = try Json.to_int_exn (Json.member "cores" j) with _ -> fail "missing int cores" in
  if cores < 1 then fail "cores must be >= 1";
  let results =
    try Json.to_list_exn (Json.member "results" j) with _ -> fail "missing results list"
  in
  if results = [] then fail "results must be nonempty";
  let seen_p1 = Hashtbl.create 8 in
  List.iteri
    (fun i r ->
       let str k = try Json.to_string_exn (Json.member k r) with _ -> fail "results[%d]: missing string %S" i k in
       let int k = try Json.to_int_exn (Json.member k r) with _ -> fail "results[%d]: missing int %S" i k in
       let num k = try to_number_exn (Json.member k r) with _ -> fail "results[%d]: missing number %S" i k in
       let workload = str "workload" and policy = str "policy" in
       if not (List.mem workload [ "fib"; "psort" ]) then
         fail "results[%d]: unknown workload %S" i workload;
       if not (List.mem policy [ "ws"; "dfd" ]) then fail "results[%d]: unknown policy %S" i policy;
       let p = int "p" in
       if p < 1 then fail "results[%d]: p must be >= 1" i;
       if p = 1 then Hashtbl.replace seen_p1 (workload, policy) ();
       if num "time_s" < 0.0 then fail "results[%d]: negative time" i;
       if int "tasks_run" < 0 then fail "results[%d]: negative tasks_run" i;
       if int "steals" < 0 then fail "results[%d]: negative steals" i;
       if num "throughput_tasks_per_s" < 0.0 then fail "results[%d]: negative throughput" i)
    results;
  if Hashtbl.length seen_p1 = 0 then fail "no p=1 baseline point in results";
  let speedups =
    try Json.to_list_exn (Json.member "speedups" j) with _ -> fail "missing speedups list"
  in
  List.iteri
    (fun i s ->
       let sp =
         try to_number_exn (Json.member "speedup_vs_p1" s)
         with _ -> fail "speedups[%d]: missing number speedup_vs_p1" i
       in
       if sp < 0.0 then fail "speedups[%d]: negative speedup" i;
       let p = try Json.to_int_exn (Json.member "p" s) with _ -> fail "speedups[%d]: missing p" i in
       if p < 2 then fail "speedups[%d]: speedup rows need p >= 2" i)
    speedups;
  (* rank-error histograms of the relaxed R-list: one row per dfd point;
     quantiles must be ordered and nonnegative when any steal happened *)
  let rank_rows =
    try Json.to_list_exn (Json.member "rank_error" j)
    with _ -> fail "missing rank_error list"
  in
  if rank_rows = [] then fail "rank_error must be nonempty";
  List.iteri
    (fun i r ->
       let int k = try Json.to_int_exn (Json.member k r) with _ -> fail "rank_error[%d]: missing int %S" i k in
       let num k = try to_number_exn (Json.member k r) with _ -> fail "rank_error[%d]: missing number %S" i k in
       (match Json.member "policy" r with
        | Json.String "dfd" -> ()
        | _ -> fail "rank_error[%d]: policy must be \"dfd\"" i);
       if int "p" < 1 then fail "rank_error[%d]: p must be >= 1" i;
       let count = int "count" in
       if count < 0 then fail "rank_error[%d]: negative count" i;
       if count > 0 then begin
         let p50 = num "p50" and p90 = num "p90" and p99 = num "p99" and mx = num "max" in
         if p50 < 0.0 then fail "rank_error[%d]: negative p50" i;
         if p90 < p50 then fail "rank_error[%d]: p90 < p50" i;
         if p99 < p90 then fail "rank_error[%d]: p99 < p90" i;
         if mx < p99 then fail "rank_error[%d]: max < p99" i
       end)
    rank_rows;
  (* R-list membership traffic: every deque publication is one insert,
     every reap one remove, so inserts bound removes from above *)
  let memb_rows =
    try Json.to_list_exn (Json.member "r_membership_ops" j)
    with _ -> fail "missing r_membership_ops list"
  in
  if memb_rows = [] then fail "r_membership_ops must be nonempty";
  List.iteri
    (fun i r ->
       let int k =
         try Json.to_int_exn (Json.member k r)
         with _ -> fail "r_membership_ops[%d]: missing int %S" i k
       in
       (match Json.member "policy" r with
        | Json.String "dfd" -> ()
        | _ -> fail "r_membership_ops[%d]: policy must be \"dfd\"" i);
       if int "p" < 1 then fail "r_membership_ops[%d]: p must be >= 1" i;
       let inserts = int "inserts" and removes = int "removes" in
       if removes < 0 then fail "r_membership_ops[%d]: negative removes" i;
       if inserts < removes then fail "r_membership_ops[%d]: inserts < removes" i)
    memb_rows;
  (* sync-op counts of the CAS-only task-transfer paths: one row per
     result point, both policies.  Counts are facts about the execution,
     not timings, so missing or negative counters crash-gate; magnitudes
     never do.  Each policy's rows must sum to a nonzero count — a policy
     whose runs did zero atomic ops has had its instrumentation come
     unwired. *)
  let sync_rows =
    try Json.to_list_exn (Json.member "sync_ops" j)
    with _ -> fail "missing sync_ops list"
  in
  if sync_rows = [] then fail "sync_ops must be nonempty";
  let sync_total = Hashtbl.create 2 in
  List.iteri
    (fun i r ->
       let int k =
         try Json.to_int_exn (Json.member k r)
         with _ -> fail "sync_ops[%d]: missing int %S" i k
       in
       let num k =
         try to_number_exn (Json.member k r)
         with _ -> fail "sync_ops[%d]: missing number %S" i k
       in
       let policy =
         try Json.to_string_exn (Json.member "policy" r)
         with _ -> fail "sync_ops[%d]: missing string \"policy\"" i
       in
       if not (List.mem policy [ "ws"; "dfd" ]) then
         fail "sync_ops[%d]: unknown policy %S" i policy;
       if int "p" < 1 then fail "sync_ops[%d]: p must be >= 1" i;
       let ops = int "sync_ops" in
       if ops < 0 then fail "sync_ops[%d]: negative sync_ops" i;
       if num "sync_ops_per_task" < 0.0 then fail "sync_ops[%d]: negative sync_ops_per_task" i;
       let before = Option.value ~default:0 (Hashtbl.find_opt sync_total policy) in
       Hashtbl.replace sync_total policy (before + ops))
    sync_rows;
  List.iter
    (fun policy ->
       match Hashtbl.find_opt sync_total policy with
       | Some n when n > 0 -> ()
       | _ -> fail "sync_ops: %s rows are missing or all zero (instrumentation unwired?)" policy)
    [ "ws"; "dfd" ];
  (* obs-overhead pair: structural checks only — the ratio itself is
     timing and must never gate CI *)
  let obs = Json.member "obs_overhead" j in
  (match obs with
   | Json.Assoc _ ->
     let num k =
       try to_number_exn (Json.member k obs) with _ -> fail "obs_overhead: missing number %S" k
     in
     if num "disabled_time_s" < 0.0 then fail "obs_overhead: negative disabled_time_s";
     if num "enabled_time_s" < 0.0 then fail "obs_overhead: negative enabled_time_s";
     if num "overhead_ratio" < 0.0 then fail "obs_overhead: negative overhead_ratio"
   | _ -> fail "missing obs_overhead object");
  Printf.printf
    "validate_bench: %s ok (%d result points, %d speedup rows, %d rank rows, %d sync rows)\n"
    path (List.length results) (List.length speedups) (List.length rank_rows)
    (List.length sync_rows)

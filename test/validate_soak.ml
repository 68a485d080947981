(* Smoke-test validator for the `repro soak` JSON report: structural
   checks plus the acceptance criteria — the exactly-once ledger audits
   clean, counters are consistent with the ledger, no duplicate
   acknowledgements, the per-tenant sections sum to the global counters,
   the Theorem-4.4 headroom audit holds, and the run's own oracle found
   no violations.  Every plan writes the same report shape.

   Usage: validate_soak report.json *)

module Json = Dfd_trace.Json

let fail fmt = Json_util.failf ~prog:"validate_soak" fmt

let kinds = [ "ok"; "dup"; "bully"; "spike"; "exn"; "flaky"; "slow"; "wedge" ]

let plans =
  [ "none"; "exns"; "wedges"; "spikes"; "mixed"; "tenants-normal"; "tenants-bully" ]

let reject_reasons = [ "queue_full" ]

let () =
  let path = match Sys.argv with [| _; p |] -> p | _ -> fail "usage: validate_soak FILE" in
  let j =
    try Json_util.parse_file path with Json.Parse_error m -> fail "bad JSON: %s" m
  in
  let int_at k = try Json.to_int_exn (Json.member k j) with _ -> fail "missing int %S" k in
  ignore (int_at "seed");
  let duration = int_at "duration_steps" in
  if int_at "final_step" < duration then fail "final_step before duration_steps";
  (match Json.member "plan" j with
   | Json.String p when List.mem p plans -> ()
   | Json.String p -> fail "unknown plan %S" p
   | _ -> fail "missing plan");
  let config = Json.member "config" j in
  (* a dfd pool runs at one positive K; a ws pool has none *)
  (match (Json.member "policy" config, Json.member "quota" config) with
   | Json.String "dfd", Json.Int k -> if k <= 0 then fail "non-positive dfd quota %d" k
   | Json.String "ws", Json.Null -> ()
   | Json.String ("dfd" | "ws"), _ -> fail "config quota does not match its policy"
   | _ -> fail "config missing policy");
  let lanes =
    match Json.member "tenants" config with
    | Json.List (_ :: _ as ts) ->
      List.map
        (fun t ->
           if Json.to_int_exn (Json.member "weight" t) < 1 then fail "non-positive tenant weight";
           if Json.to_int_exn (Json.member "queue_bound" t) < 1 then
             fail "non-positive tenant queue_bound";
           try Json.to_string_exn (Json.member "name" t)
           with _ -> fail "config tenant without name")
        ts
    | _ -> fail "config without tenants"
  in
  (* submissions: every entry well-formed, accepted ones carry a job id *)
  let subs = try Json.to_list_exn (Json.member "submissions" j) with _ -> fail "no submissions" in
  if subs = [] then fail "empty submissions";
  let accepted = ref 0 and shed = ref 0 in
  List.iter
    (fun s ->
       let step = try Json.to_int_exn (Json.member "step" s) with _ -> fail "submission without step" in
       if step < 1 || step > duration then fail "submission step %d out of range" step;
       (match Json.member "kind" s with
        | Json.String k when List.mem k kinds -> ()
        | Json.String k -> fail "unknown job kind %S" k
        | _ -> fail "submission without kind");
       (* a submission without a tenant went to the default lane *)
       (match Json.member "tenant" s with
        | Json.String t when List.mem t lanes -> ()
        | Json.Null when List.mem "default" lanes -> ()
        | _ -> fail "submission to an unconfigured tenant");
       match Json.member "accepted" s with
       | Json.Bool true ->
         incr accepted;
         (try ignore (Json.to_int_exn (Json.member "job" s))
          with _ -> fail "accepted submission without job id")
       | Json.Bool false ->
         incr shed;
         (match Json.member "reason" s with
          | Json.String r when List.mem r reject_reasons -> ()
          | Json.String r -> fail "unknown rejection reason %S" r
          | _ -> fail "shed submission without reason")
       | _ -> fail "submission without accepted flag")
    subs;
  (* ledger: one entry per submission, terminal outcomes only *)
  let ledger = try Json.to_list_exn (Json.member "ledger" j) with _ -> fail "no ledger" in
  if List.length ledger <> List.length subs then
    fail "ledger has %d entries but %d submissions" (List.length ledger) (List.length subs);
  let completed = ref 0 and failed = ref 0 and rejected = ref 0 and cancelled = ref 0 in
  List.iter
    (fun e ->
       (try ignore (Json.to_int_exn (Json.member "job" e)) with _ -> fail "ledger entry without job");
       (try ignore (Json.to_string_exn (Json.member "tenant" e))
        with _ -> fail "ledger entry without tenant");
       (try ignore (Json.to_string_exn (Json.member "class" e))
        with _ -> fail "ledger entry without class");
       let attempts =
         try Json.to_int_exn (Json.member "attempts" e) with _ -> fail "entry without attempts"
       in
       let requeues =
         try Json.to_int_exn (Json.member "requeues" e) with _ -> fail "entry without requeues"
       in
       if attempts < 0 || requeues < 0 then fail "negative attempts/requeues";
       match Json.member "outcome" e with
       | Json.String "completed" -> incr completed
       | Json.String "failed" -> incr failed
       | Json.String "cancelled" -> incr cancelled
       | Json.String "rejected" ->
         incr rejected;
         (match Json.member "reason" e with
          | Json.String r when List.mem r reject_reasons -> ()
          | _ -> fail "rejected entry without a valid reason")
       | Json.String other -> fail "non-terminal ledger outcome %S (lost job?)" other
       | _ -> fail "ledger entry without outcome")
    ledger;
  (* counters must agree with the ledger recomputation *)
  let counters = Json.member "counters" j in
  let c k =
    try Json.to_int_exn (Json.member k counters) with _ -> fail "counters missing %S" k
  in
  if c "accepted" <> !accepted then fail "accepted counter disagrees with submissions";
  if c "rejected_queue_full" <> !shed then fail "rejection counter disagrees with submissions";
  if c "completions" <> !completed then fail "completions counter disagrees with ledger";
  if c "failures" <> !failed then fail "failures counter disagrees with ledger";
  if c "cancelled" <> !cancelled then fail "cancelled counter disagrees with ledger";
  if !rejected <> !shed then fail "rejected ledger entries disagree with shed submissions";
  if c "duplicate_acks" <> 0 then fail "duplicate acknowledgements reported";
  if c "wedges" <> c "respawns" then fail "wedge/respawn counters disagree";
  (* per-tenant stats, headroom, merged latency — all schema-checked and
     cross-checked against the global counters *)
  let quantiles q =
    let count = try Json.to_int_exn (Json.member "count" q) with _ -> fail "quantiles without count" in
    if count < 0 then fail "negative latency count";
    List.iter
      (fun k ->
         match Json.member k q with
         | Json.Float v -> if v < 0.0 then fail "negative latency quantile"
         | Json.Int v -> if v < 0 then fail "negative latency quantile"
         | Json.Null when count = 0 -> ()
         | _ -> fail "latency section missing %S" k)
      [ "p50"; "p90"; "p99" ];
    count
  in
  let tenants =
    try Json.to_list_exn (Json.member "tenants" j) with _ -> fail "no tenants section"
  in
  if tenants = [] then fail "empty tenants section";
  let sum_acc = ref 0 and sum_rej = ref 0 and sum_lat = ref 0 in
  List.iter
    (fun t ->
       let ti k =
         try Json.to_int_exn (Json.member k t) with _ -> fail "tenant stats missing %S" k
       in
       (try ignore (Json.to_string_exn (Json.member "name" t))
        with _ -> fail "tenant stats without name");
       if ti "weight" < 1 then fail "non-positive tenant weight in stats";
       let bound = ti "queue_bound" in
       if ti "peak_depth" > bound then fail "tenant peak_depth exceeds its bound";
       sum_acc := !sum_acc + ti "accepted";
       ignore (ti "completions");
       ignore (ti "failures");
       ignore (ti "cancelled");
       sum_rej := !sum_rej + ti "rejected_queue_full";
       (match Json.member "first_shed_step" t with
        | Json.Null -> ()
        | Json.Int s -> if s < 1 then fail "first_shed_step before step 1"
        | _ -> fail "malformed first_shed_step");
       sum_lat := !sum_lat + quantiles (Json.member "latency_steps" t))
    tenants;
  if !sum_acc <> c "accepted" then fail "per-tenant accepted do not sum to the global counter";
  if !sum_rej <> !shed then fail "per-tenant rejections do not sum to the shed submissions";
  let merged = quantiles (Json.member "latency_all_steps" j) in
  if merged <> !sum_lat then
    fail "merged latency count %d but per-tenant histograms hold %d" merged !sum_lat;
  let headroom = Json.member "headroom" j in
  let peak =
    try Json.to_int_exn (Json.member "peak_bytes" headroom)
    with _ -> fail "headroom without peak_bytes"
  in
  let budget =
    try Json.to_int_exn (Json.member "budget_bytes" headroom)
    with _ -> fail "headroom without budget_bytes"
  in
  if peak > budget then fail "headroom peak %d exceeds the Theorem-4.4 budget %d" peak budget;
  (match Json.member "within_budget" headroom with
   | Json.Bool true -> ()
   | _ -> fail "headroom within_budget is not true");
  (* the acceptance gate: the run's own oracle *)
  let checks = Json.member "checks" j in
  (match Json.member "ledger_verified" checks with
   | Json.Bool true -> ()
   | _ -> fail "ledger_verified is not true");
  (match Json.member "violations" checks with
   | Json.List [] -> ()
   | Json.List vs -> fail "%d oracle violations reported" (List.length vs)
   | _ -> fail "missing violations list");
  (match Json.member "all_passed" checks with
   | Json.Bool true -> ()
   | _ -> fail "all_passed is not true");
  Printf.printf "validate_soak: %s ok (%d submissions, %d accepted, %d completed)\n" path
    (List.length subs) !accepted !completed

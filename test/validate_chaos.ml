(* Smoke-test validator for the `repro chaos` JSON report: structural
   checks plus the acceptance criteria — every simulator campaign ok, no
   invariant violations, no watchdog deadlocks, faults actually injected.
   Usage: validate_chaos report.json *)

module Json = Dfd_trace.Json

let fail fmt = Json_util.failf ~prog:"validate_chaos" fmt

let () =
  let path = match Sys.argv with [| _; p |] -> p | _ -> fail "usage: validate_chaos FILE" in
  let j =
    try Json_util.parse_file path with Json.Parse_error m -> fail "bad JSON: %s" m
  in
  let int_at k = try Json.to_int_exn (Json.member k j) with _ -> fail "missing int %S" k in
  ignore (int_at "seed");
  let campaigns = int_at "campaigns_per_sched" in
  let scheds = try Json.to_list_exn (Json.member "simulator" j) with _ -> fail "no simulator" in
  if List.length scheds <> 4 then fail "expected 4 schedulers, got %d" (List.length scheds);
  let seen_outcomes = ref 0 in
  List.iter
    (fun s ->
       let name = try Json.to_string_exn (Json.member "sched" s) with _ -> fail "no sched name" in
       if not (List.mem name [ "dfd"; "ws"; "adf"; "fifo" ]) then fail "unknown sched %S" name;
       let runs = try Json.to_list_exn (Json.member "runs" s) with _ -> fail "no runs" in
       if List.length runs <> campaigns then
         fail "%s: %d runs, expected %d" name (List.length runs) campaigns;
       List.iter
         (fun r ->
            incr seen_outcomes;
            (match Json.member "outcome" r with
             | Json.String "ok" -> ()
             | Json.String other -> fail "%s: campaign outcome %S" name other
             | _ -> fail "%s: campaign without outcome" name);
            (match Json.member "faults" r with
             | Json.Assoc kinds ->
               if List.length kinds <> 7 then fail "%s: expected 7 fault kinds" name
             | _ -> fail "%s: campaign without fault counts" name))
         runs)
    scheds;
  let summary = Json.member "summary" j in
  let s_int k =
    try Json.to_int_exn (Json.member k summary) with _ -> fail "summary missing %S" k
  in
  if s_int "sim_runs" <> !seen_outcomes then fail "summary sim_runs mismatch";
  if s_int "invariant_violations" <> 0 then fail "invariant violations reported";
  if s_int "deadlocks" <> 0 then fail "watchdog deadlocks reported";
  if s_int "errors" <> 0 then fail "errors reported";
  if s_int "faults_injected" <= 0 then fail "no faults were injected";
  (match Json.member "all_passed" summary with
   | Json.Bool true -> ()
   | _ -> fail "all_passed is not true");
  (* the crash-recovery section is present only under `chaos --crash`; when
     it is, every per-policy recovery fact must hold and the summary must
     agree that the whole campaign passed *)
  (match Json.member "crash" j with
   | Json.Null -> ()
   | Json.List policies ->
     if policies = [] then fail "crash section is empty";
     List.iter
       (fun c ->
          let policy =
            try Json.to_string_exn (Json.member "policy" c) with _ -> fail "crash entry without policy"
          in
          if not (List.mem policy [ "ws"; "dfd" ]) then fail "crash: unknown policy %S" policy;
          List.iter
            (fun k ->
               match Json.member k c with
               | Json.Bool true -> ()
               | Json.Bool false -> fail "crash %s: fact %S failed" policy k
               | _ -> fail "crash %s: missing bool %S" policy k)
            [
              "sorted_at_degraded_p";
              "crash_fired_once";
              "exactly_one_quarantine";
              "degraded_p_is_p_minus_1";
              "held_task_requeued_exactly_once";
              "lineage_audit_ok";
              "headroom_budget_matches_degraded_p";
              "respawn_under_budget";
              "full_strength_restored";
              "clean_run_after_respawn";
              "lineage_audit_after_respawn_ok";
            ])
       policies;
     (match Json.member "crash_passed" summary with
      | Json.Bool true -> ()
      | _ -> fail "crash section present but summary crash_passed is not true")
   | _ -> fail "crash section is not a list");
  Printf.printf "validate_chaos: %s ok (%d campaigns, %d faults injected)\n" path !seen_outcomes
    (s_int "faults_injected")

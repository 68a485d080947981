(* repro soak — deterministic soak campaigns against the supervised job
   service (Dfd_service.Service).

   Two families of campaigns share the driver:

   {b Fault plans} (the historical single-tenant mode) drive the default
   lane for [duration] logical steps under a named plan.  Each plan is a
   pure function from (step, duration) to a list of job submissions,
   drawn from six archetypes whose outcome *class* is deterministic even
   though pool timing is not:

   - ok     small fork-join reduction with allocation hints; completes.
   - spike  one huge allocation hint; completes, but drives the adaptive
            quota controller's pressure signal up.
   - exn    always raises; retried to budget exhaustion, then Failed.
   - flaky  raises on the first attempt only; Completed after one retry.
   - slow   endless forking under a tight per-job deadline; every attempt
            times out, then Failed.
   - wedge  spins on a flag without touching the pool — invisible to
            cooperative cancellation.  The supervisor declares the pool
            wedged, respawns it, and requeues the job exactly once; the
            respawn callback releases the flag, so the second attempt
            completes.  Expected: Completed with requeues = 1.

   {b Tenant plans} (--tenants normal|bully) run the multi-tenant front
   door under seeded open-loop load: three tenants (gold w4, silver w2,
   bronze w1) submit per-step arrivals drawn from per-tenant splitmix64
   streams.  Under `bully', bronze offers ~10x its normal load laced
   with allocation spikes; the oracle then checks the isolation story —
   the bully is shed first (and only the bully) by its own full lane,
   victims complete >= 99% with bounded p99, every lane stays within
   its bound, the bully's K shrinks while the victims' K budgets never
   dip, and the peak per-attempt allocation stays inside the
   Theorem-4.4 headroom budget.  Per-tenant latency quantiles come from [Stats.Histogram];
   the global distribution is their [Histogram.merge].

   After the submission phase the service is driven to idle and audited.
   The JSON report contains only logical-clock facts — counters, the
   ledger, quota trajectories, per-tenant sections —
   never wall-clock readings, so two runs with the same seed and
   arguments are byte-identical.  The exit code is gated on the ledger
   audit and the oracle, never on timing. *)

module Service = Dfd_service.Service
module Tenant = Dfd_service.Tenant
module Retry = Dfd_service.Retry
module Quota_ctl = Dfd_service.Quota_ctl
module Pool = Dfd_runtime.Pool
module Json = Dfd_trace.Json
module Registry = Dfd_obs.Registry
module Headroom = Dfd_obs.Headroom
module Stats = Dfd_structures.Stats
module Prng = Dfd_structures.Prng

type plan = P_none | P_exns | P_wedges | P_spikes | P_mixed

let plan_name = function
  | P_none -> "none"
  | P_exns -> "exns"
  | P_wedges -> "wedges"
  | P_spikes -> "spikes"
  | P_mixed -> "mixed"

let plans =
  [ ("none", P_none); ("exns", P_exns); ("wedges", P_wedges); ("spikes", P_spikes);
    ("mixed", P_mixed) ]

type tenant_mode = T_off | T_normal | T_bully

let tenant_modes = [ ("normal", T_normal); ("bully", T_bully) ]

let tenant_mode_name = function
  | T_off -> "off"
  | T_normal -> "tenants-normal"
  | T_bully -> "tenants-bully"

type kind = Ok_job | Spike | Exn | Flaky | Slow | Wedge

let kind_name = function
  | Ok_job -> "ok"
  | Spike -> "spike"
  | Exn -> "exn"
  | Flaky -> "flaky"
  | Slow -> "slow"
  | Wedge -> "wedge"

(* The submission schedule: which jobs to offer at step [s] (1-based).
   Pure in (plan, duration, s) — the whole campaign replays from the
   report header. *)
let schedule plan ~duration s =
  match plan with
  | P_none -> [ Ok_job ]
  | P_exns ->
    (if s mod 5 = 0 then [ Exn ] else [])
    @ (if s mod 7 = 3 then [ Flaky ] else [])
    @ (if s = 2 then [ Slow ] else [])
    @ [ Ok_job ]
  | P_wedges -> (if s = 3 || s = duration / 2 then [ Wedge ] else []) @ [ Ok_job ]
  | P_spikes -> if s <= duration / 4 then [ Spike ] else [ Ok_job ]
  | P_mixed ->
    (if s <= duration / 6 then [ Spike ] else [])
    @ (if s mod 7 = 0 then [ Exn ] else [])
    @ (if s mod 11 = 4 then [ Flaky ] else [])
    @ (if s = duration / 3 || s = 2 * duration / 3 then [ Wedge ] else [])
    @ (if s = duration - 5 then List.init 12 (fun _ -> Ok_job) else [ Ok_job ])

(* ------------------------------------------------------------------ *)
(* Job bodies                                                          *)
(* ------------------------------------------------------------------ *)

let ok_body () =
  ignore
    (Pool.parallel_reduce ~zero:0 ~op:( + ) ~lo:0 ~hi:64 (fun i ->
         Pool.alloc_hint 16;
         i))

let spike_bytes = 400_000

let spike_body () = Pool.alloc_hint spike_bytes

let exn_body () = failwith "injected"

let flaky_body tripped () =
  if not (Atomic.exchange tripped true) then failwith "flaky"

let slow_body () =
  let rec loop () =
    ignore (Pool.fork_join (fun () -> ()) (fun () -> ()));
    loop ()
  in
  loop ()

let wedge_body flag () = while not (Atomic.get flag) do Domain.cpu_relax () done

(* ------------------------------------------------------------------ *)
(* Service configuration for soak campaigns                            *)
(* ------------------------------------------------------------------ *)

let soak_retry = { Retry.max_attempts = 3; base_delay = 1; max_delay = 8 }

let soak_quota =
  {
    Quota_ctl.k_init = 32_000;
    k_min = 4_000;
    k_max = 32_000;
    high_watermark = 50_000;
    low_watermark = 10_000;
    recover_steps = 2;
  }

let slow_deadline = 0.05

(* The multi-tenant lanes: weight is declared importance, so the
   low-weight bronze lane, with the smallest bound, is where a bully is
   cheapest to run and the first to fill. *)
let soak_tenants =
  [
    Tenant.make ~weight:4 ~queue_bound:16 "gold";
    Tenant.make ~weight:2 ~queue_bound:12 "silver";
    Tenant.make ~weight:1 ~queue_bound:8 "bronze";
  ]

(* Headroom estimates for the tenant campaigns: generous S1/D guesses
   that make the Theorem-4.4 budget a real (finite, nonzero) ceiling the
   400 kB spikes must stay under. *)
let soak_headroom_s1 = 600_000

let soak_headroom_depth = 2

(* ------------------------------------------------------------------ *)
(* JSON rendering (logical-clock facts only)                           *)
(* ------------------------------------------------------------------ *)

let outcome_fields = function
  | None -> [ ("outcome", Json.String "unresolved") ]
  | Some Service.Completed -> [ ("outcome", Json.String "completed") ]
  | Some (Service.Failed m) ->
    [ ("outcome", Json.String "failed"); ("detail", Json.String m) ]
  | Some (Service.Rejected r) ->
    [ ("outcome", Json.String "rejected");
      ("reason", Json.String (Service.reject_reason_name r)) ]
  | Some Service.Cancelled -> [ ("outcome", Json.String "cancelled") ]

(* The counters object is rendered from the registry's sample type (the
   same path `repro metrics` exposes); [Service.counter_samples] fixes its
   key set and order. *)
let counters_json svc = Registry.Snapshot.to_flat_json (Service.counter_samples svc)

let config_json ~policy_name ~with_quota ~tenants =
  Json.Assoc
    [
      ("policy", Json.String policy_name);
      ( "tenants",
        Json.List
          (List.map
             (fun (tn : Tenant.t) ->
                Json.Assoc
                  [
                    ("name", Json.String tn.Tenant.name);
                    ("weight", Json.Int tn.Tenant.weight);
                    ("queue_bound", Json.Int tn.Tenant.queue_bound);
                  ])
             tenants) );
      ( "retry",
        Json.Assoc
          [
            ("max_attempts", Json.Int soak_retry.Retry.max_attempts);
            ("base_delay", Json.Int soak_retry.Retry.base_delay);
            ("max_delay", Json.Int soak_retry.Retry.max_delay);
          ] );
      ( "quota_ctl",
        if with_quota then
          Json.Assoc
            [
              ("k_init", Json.Int soak_quota.Quota_ctl.k_init);
              ("k_min", Json.Int soak_quota.Quota_ctl.k_min);
              ("k_max", Json.Int soak_quota.Quota_ctl.k_max);
              ("high_watermark", Json.Int soak_quota.Quota_ctl.high_watermark);
              ("low_watermark", Json.Int soak_quota.Quota_ctl.low_watermark);
              ("recover_steps", Json.Int soak_quota.Quota_ctl.recover_steps);
            ]
        else Json.Null );
    ]

let quantile_json h =
  let q p = match Stats.Histogram.quantile h p with Some v -> Json.Float v | None -> Json.Null in
  Json.Assoc
    [
      ("count", Json.Int (Stats.Histogram.count h));
      ("p50", q 0.5);
      ("p90", q 0.9);
      ("p99", q 0.99);
    ]

let tenant_json (ts : Service.tenant_stats) =
  Json.Assoc
    [
      ("name", Json.String ts.Service.ts_name);
      ("weight", Json.Int ts.Service.ts_weight);
      ("queue_bound", Json.Int ts.Service.ts_bound);
      ("accepted", Json.Int ts.Service.ts_accepted);
      ("completions", Json.Int ts.Service.ts_completions);
      ("failures", Json.Int ts.Service.ts_failures);
      ("cancelled", Json.Int ts.Service.ts_cancelled);
      ("rejected_queue_full", Json.Int ts.Service.ts_rejected_queue_full);
      ( "first_shed_step",
        match ts.Service.ts_first_shed with None -> Json.Null | Some s -> Json.Int s );
      ("peak_depth", Json.Int ts.Service.ts_peak_depth);
      ("latency_steps", quantile_json ts.Service.ts_latency);
      ( "quota",
        match ts.Service.ts_quota with None -> Json.Null | Some k -> Json.Int k );
      ( "quota_trajectory",
        Json.List
          (List.map
             (fun (s, k) -> Json.List [ Json.Int s; Json.Int k ])
             ts.Service.ts_quota_trajectory) );
    ]

let headroom_json svc =
  let h = Service.headroom svc in
  let peak = Headroom.peak h and budget = Headroom.budget h in
  Json.Assoc
    [
      ("peak_bytes", Json.Int peak);
      ("budget_bytes", Json.Int budget);
      ("within_budget", Json.Bool (peak <= budget));
    ]

let ledger_json entries =
  Json.List
    (List.map
       (fun (e : Service.entry) ->
          Json.Assoc
            ([
               ("job", Json.Int e.Service.job);
               ("tenant", Json.String e.Service.tenant);
               ("class", Json.String e.Service.class_);
               ("attempts", Json.Int e.Service.attempts);
               ("requeues", Json.Int e.Service.requeues);
             ]
             @ outcome_fields e.Service.outcome))
       entries)

let write_report ~json_out report =
  match json_out with
  | None -> ()
  | Some path ->
    (try
       let oc = open_out path in
       Json.to_channel oc report;
       output_char oc '\n';
       close_out oc
     with Sys_error m ->
       Printf.eprintf "repro: cannot write %s: %s\n" path m;
       exit 1);
    Printf.printf "report: %s\n" path

let finish ~violations =
  List.iter (fun m -> Printf.printf "  VIOLATION: %s\n" m) violations;
  if violations = [] then begin
    print_endline "soak: PASS";
    0
  end
  else begin
    print_endline "soak: FAIL";
    1
  end

(* ------------------------------------------------------------------ *)
(* The single-tenant fault campaign                                    *)
(* ------------------------------------------------------------------ *)

let run_fault_soak ~seed ~duration ~plan ~policy ~wedge_grace ~json_out ~flight_dir =
  let dfd = policy = `Dfd in
  let pool_policy =
    if dfd then Pool.Dfdeques { quota = soak_quota.Quota_ctl.k_init } else Pool.Work_stealing
  in
  let policy_name = if dfd then "dfd" else "ws" in
  let tenants = [ Tenant.make ~weight:1 ~queue_bound:8 "default" ] in
  let wedge_flags : (int, bool Atomic.t) Hashtbl.t = Hashtbl.create 8 in
  let on_pool_retired ~in_flight =
    match in_flight with
    | Some id -> (
        match Hashtbl.find_opt wedge_flags id with
        | Some flag -> Atomic.set flag true
        | None -> ())
    | None -> ()
  in
  let config =
    {
      Service.seed;
      tenants;
      retry = soak_retry;
      quota_ctl = (if dfd then Some soak_quota else None);
      default_deadline = None;
      wedge_grace;
      domains = 2;
      max_respawns = 16;
      worker_respawn_budget = 0;
      on_pool_retired = Some on_pool_retired;
    }
  in
  let svc = Service.create ?flight_dir ~config pool_policy in
  (* submission phase: one service step per schedule step *)
  let submissions = ref [] in
  (* periodic stable telemetry snapshots for the report: only probes
     registered stable (the dfd_service_* family) appear, so each snapshot
     is a pure function of (seed, submission order) — byte-identical per
     seed like the rest of the report *)
  let snap_every = max 1 (duration / 4) in
  let snaps = ref [] in
  let take_snap s = snaps := (s, Service.metrics_snapshot ~stable_only:true svc) :: !snaps in
  for s = 1 to duration do
    List.iter
      (fun kind ->
         let class_ = kind_name kind in
         let deadline = match kind with Slow -> Some slow_deadline | _ -> None in
         let result =
           match kind with
           | Wedge ->
             (* the release flag must be findable by the id [submit]
                assigns, so the respawn callback can free the stuck task *)
             let flag = Atomic.make false in
             let result = Service.admission (Service.submit svc ~class_ (wedge_body flag)) in
             (match result with
              | Ok id -> Hashtbl.replace wedge_flags id flag
              | Error _ -> ());
             result
           | Ok_job -> Service.admission (Service.submit svc ~class_ ok_body)
           | Spike -> Service.admission (Service.submit svc ~class_ spike_body)
           | Exn -> Service.admission (Service.submit svc ~class_ exn_body)
           | Flaky ->
             Service.admission (Service.submit svc ~class_ (flaky_body (Atomic.make false)))
           | Slow -> Service.admission (Service.submit svc ~class_ ?deadline slow_body)
         in
         submissions := (s, kind, result) :: !submissions)
      (schedule plan ~duration s);
    Service.step svc;
    if s mod snap_every = 0 then take_snap s
  done;
  (* drain: retries may still be pending *)
  Service.drive ~max_steps:(duration * 20) svc;
  take_snap (Service.now svc);
  let snaps = List.rev !snaps in
  let idle = Service.idle svc in
  let c = Service.counters svc in
  let entries = Service.ledger svc in
  let entry_tbl = Hashtbl.create 64 in
  List.iter (fun (e : Service.entry) -> Hashtbl.replace entry_tbl e.Service.job e) entries;
  (* ---- the oracle ---- *)
  let violations = ref [] in
  let violate fmt = Printf.ksprintf (fun m -> violations := m :: !violations) fmt in
  if not idle then violate "service not idle after drain";
  (match Service.verify_ledger svc with
   | Ok () -> ()
   | Error m -> violate "ledger audit failed: %s" m);
  if c.Service.duplicate_acks <> 0 then
    violate "%d duplicate acknowledgements" c.Service.duplicate_acks;
  let submissions = List.rev !submissions in
  let accepted_wedges = ref 0 in
  List.iter
    (fun (step, kind, result) ->
       match result with
       | Error _ -> ()
       | Ok id ->
         if kind = Wedge then incr accepted_wedges;
         (match Hashtbl.find_opt entry_tbl id with
          | None -> violate "job %d (step %d) missing from the ledger" id step
          | Some e ->
            let expect_outcome name pred =
              match e.Service.outcome with
              | Some o when pred o -> ()
              | o ->
                violate "job %d (%s, step %d): expected %s, got %s" id (kind_name kind) step
                  name
                  (match o with
                   | None -> "unresolved"
                   | Some Service.Completed -> "completed"
                   | Some (Service.Failed m) -> "failed: " ^ m
                   | Some (Service.Rejected r) ->
                     "rejected: " ^ Service.reject_reason_name r
                   | Some Service.Cancelled -> "cancelled")
            in
            let completed = function Service.Completed -> true | _ -> false in
            let failed = function Service.Failed _ -> true | _ -> false in
            (match kind with
             | Ok_job | Spike -> expect_outcome "completed" completed
             | Flaky ->
               expect_outcome "completed" completed;
               if e.Service.attempts <> 2 then
                 violate "job %d (flaky): expected 2 attempts, got %d" id e.Service.attempts
             | Exn | Slow ->
               expect_outcome "failed" failed;
               if e.Service.attempts <> soak_retry.Retry.max_attempts then
                 violate "job %d (%s): expected %d attempts, got %d" id (kind_name kind)
                   soak_retry.Retry.max_attempts e.Service.attempts
             | Wedge ->
               expect_outcome "completed" completed;
               if e.Service.requeues <> 1 then
                 violate "job %d (wedge): expected exactly 1 requeue, got %d" id
                   e.Service.requeues)))
    submissions;
  if c.Service.wedges <> !accepted_wedges then
    violate "wedge counter %d but %d wedge jobs accepted" c.Service.wedges !accepted_wedges;
  if c.Service.respawns <> !accepted_wedges then
    violate "respawn counter %d but %d wedge jobs accepted" c.Service.respawns !accepted_wedges;
  (* adaptive-K acceptance: under dfd with spikes in the plan, the
     controller must have shrunk K below its initial value and recovered
     to the ceiling once pressure subsided *)
  let quota_traj = Service.quota_trajectory svc in
  if dfd && (plan = P_spikes || plan = P_mixed) then begin
    if not (List.exists (fun (_, k) -> k < soak_quota.Quota_ctl.k_init) quota_traj) then
      violate "quota controller never shrank K below k_init under allocation spikes";
    (match Service.quota svc with
     | Some k when k = soak_quota.Quota_ctl.k_max -> ()
     | Some k -> violate "quota did not recover to k_max after calm period (final K = %d)" k
     | None -> violate "dfd service reports no quota")
  end;
  let violations = List.rev !violations in
  let passed = violations = [] in
  (* ---- the report ---- *)
  let report =
    Json.Assoc
      [
        ("seed", Json.Int seed);
        ("plan", Json.String (plan_name plan));
        ("duration_steps", Json.Int duration);
        ("final_step", Json.Int (Service.now svc));
        ("config", config_json ~policy_name ~with_quota:dfd ~tenants);
        ( "submissions",
          Json.List
            (List.map
               (fun (step, kind, result) ->
                  Json.Assoc
                    ([ ("step", Json.Int step); ("kind", Json.String (kind_name kind)) ]
                     @
                     match result with
                     | Ok id -> [ ("accepted", Json.Bool true); ("job", Json.Int id) ]
                     | Error r ->
                       [ ("accepted", Json.Bool false);
                         ("reason", Json.String (Service.reject_reason_name r)) ]))
               submissions) );
        ("ledger", ledger_json entries);
        ( "quota_trajectory",
          Json.List
            (List.map (fun (s, k) -> Json.List [ Json.Int s; Json.Int k ]) quota_traj) );
        ("counters", counters_json svc);
        ( "metrics",
          Json.Assoc
            [
              ("snapshot_every", Json.Int snap_every);
              ( "snapshots",
                Json.List
                  (List.map
                     (fun (s, samples) ->
                        Json.Assoc
                          [
                            ("step", Json.Int s);
                            ("samples", Registry.Snapshot.to_json samples);
                          ])
                     snaps) );
            ] );
        ( "checks",
          Json.Assoc
            [
              ("ledger_verified", Json.Bool (Service.verify_ledger svc = Ok ()));
              ("violations", Json.List (List.map (fun m -> Json.String m) violations));
              ("all_passed", Json.Bool passed);
            ] );
      ]
  in
  Service.shutdown ~reap:true svc;
  write_report ~json_out report;
  Printf.printf
    "soak[%s/%s]: %d submitted (%d accepted, %d shed), %d completed, %d failed, %d retries, %d \
     timeouts, %d wedges -> %d respawns, %d quota moves\n"
    (plan_name plan) policy_name (List.length submissions) c.Service.accepted
    c.Service.rejected_queue_full c.Service.completions c.Service.failures c.Service.retries
    c.Service.timeouts c.Service.wedges c.Service.respawns (List.length quota_traj);
  finish ~violations

(* ------------------------------------------------------------------ *)
(* The multi-tenant open-loop campaign                                 *)
(* ------------------------------------------------------------------ *)

(* Per-step arrivals for one tenant, drawn from its own stream so adding
   a tenant never shifts another's schedule.  Rates are per-mille per
   step; in bully mode bronze offers a deterministic 2 plus a coin for a
   third — roughly 10x its normal 0.25/step. *)
let arrivals mode tenant rng =
  let bernoulli rate = if Prng.int rng 1000 < rate then 1 else 0 in
  match (tenant, mode) with
  | "gold", _ -> bernoulli 250
  | "silver", _ -> bernoulli 220
  | "bronze", T_bully -> 2 + bernoulli 500
  | "bronze", _ -> bernoulli 250
  | _ -> 0

type t_submission = {
  u_step : int;
  u_tenant : string;
  u_class : string;
  u_result : (int, Service.reject_reason) result;
}

let run_tenant_soak ~seed ~duration ~mode ~policy ~wedge_grace ~json_out ~flight_dir =
  let dfd = policy = `Dfd in
  let pool_policy =
    if dfd then Pool.Dfdeques { quota = soak_quota.Quota_ctl.k_init } else Pool.Work_stealing
  in
  let policy_name = if dfd then "dfd" else "ws" in
  let config =
    {
      Service.seed;
      tenants = soak_tenants;
      retry = soak_retry;
      quota_ctl = (if dfd then Some soak_quota else None);
      default_deadline = None;
      wedge_grace;
      domains = 2;
      max_respawns = 4;
      worker_respawn_budget = 0;
      on_pool_retired = None;
    }
  in
  let svc =
    Service.create ?flight_dir ~headroom_s1:soak_headroom_s1
      ~headroom_depth:soak_headroom_depth ~config pool_policy
  in
  let master = Prng.create seed in
  let streams =
    List.map (fun (tn : Tenant.t) -> (tn.Tenant.name, Prng.split master)) soak_tenants
  in
  let submissions = ref [] in
  let bronze_jobs = ref 0 in
  let submit_one ~s tenant =
    (* class and body per tenant: gold is plain load; silver bursts a
       pair every 7th step; bronze in bully mode laces every 4th job with
       an allocation spike that only its own K controller should feel *)
    let class_, body =
      match tenant with
      | "gold" -> ("ok", ok_body)
      | "silver" -> ((if s mod 7 = 3 then "dup" else "ok"), ok_body)
      | _ ->
        incr bronze_jobs;
        if mode = T_bully then
          if !bronze_jobs mod 4 = 0 then ("spike", spike_body) else ("bully", ok_body)
        else ("ok", ok_body)
    in
    let h = Service.submit svc ~tenant ~class_ body in
    submissions :=
      { u_step = s; u_tenant = tenant; u_class = class_; u_result = Service.admission h }
      :: !submissions
  in
  for s = 1 to duration do
    List.iter
      (fun (name, rng) ->
         let n = arrivals mode name rng in
         let n = if name = "silver" && s mod 7 = 3 then n + 1 else n in
         for _ = 1 to n do
           submit_one ~s name
         done)
      streams;
    Service.step svc
  done;
  Service.drive ~max_steps:(duration * 20) svc;
  let submissions = List.rev !submissions in
  let idle = Service.idle svc in
  let c = Service.counters svc in
  let entries = Service.ledger svc in
  let stats = Service.tenant_stats svc in
  let stat name = List.find (fun ts -> ts.Service.ts_name = name) stats in
  let bronze = stat "bronze" and gold = stat "gold" and silver = stat "silver" in
  (* ---- the oracle ---- *)
  let violations = ref [] in
  let violate fmt = Printf.ksprintf (fun m -> violations := m :: !violations) fmt in
  if not idle then violate "service not idle after drain";
  (match Service.verify_ledger svc with
   | Ok () -> ()
   | Error m -> violate "ledger audit failed: %s" m);
  if c.Service.duplicate_acks <> 0 then
    violate "%d duplicate acknowledgements" c.Service.duplicate_acks;
  (* every lane must stay within its configured bound, bully or not *)
  List.iter
    (fun ts ->
       if ts.Service.ts_peak_depth > ts.Service.ts_bound then
         violate "tenant %s peak queue depth %d exceeds bound %d" ts.Service.ts_name
           ts.Service.ts_peak_depth ts.Service.ts_bound)
    stats;
  (* the per-attempt allocation peak must respect the Theorem-4.4 budget *)
  let h = Service.headroom svc in
  if Headroom.peak h > Headroom.budget h then
    violate "headroom peak %d bytes exceeds Theorem-4.4 budget %d" (Headroom.peak h)
      (Headroom.budget h);
  (* victims complete >= 99% of their admitted work *)
  let completion_ratio ts =
    if ts.Service.ts_accepted = 0 then 1.0
    else float_of_int ts.Service.ts_completions /. float_of_int ts.Service.ts_accepted
  in
  List.iter
    (fun ts ->
       if completion_ratio ts < 0.99 then
         violate "victim tenant %s completion ratio %.3f < 0.99" ts.Service.ts_name
           (completion_ratio ts))
    [ gold; silver ];
  (match mode with
   | T_bully ->
     (* the bully's own full lane must have shed it, and strictly first *)
     (match bronze.Service.ts_first_shed with
      | None -> violate "bully was never shed"
      | Some bs ->
        List.iter
          (fun ts ->
             match ts.Service.ts_first_shed with
             | Some vs when vs <= bs ->
               violate "victim %s shed at step %d, not after the bully (step %d)"
                 ts.Service.ts_name vs bs
             | _ -> ())
          [ gold; silver ]);
     (* victims' tail latency stays bounded: DRR guarantees their share *)
     List.iter
       (fun ts ->
          match Stats.Histogram.quantile ts.Service.ts_latency 0.99 with
          | Some p99 when p99 > 20.0 ->
            violate "victim %s p99 latency %.1f steps exceeds 20" ts.Service.ts_name p99
          | _ -> ())
       [ gold; silver ];
     if dfd then begin
       (* isolation of the K budgets: the bully's controller shrank,
          the victims' never dipped below their initial K *)
       if
         not
           (List.exists
              (fun (_, k) -> k < soak_quota.Quota_ctl.k_init)
              bronze.Service.ts_quota_trajectory)
       then violate "bully's K never shrank despite allocation spikes";
       List.iter
         (fun ts ->
            if
              List.exists
                (fun (_, k) -> k < soak_quota.Quota_ctl.k_init)
                ts.Service.ts_quota_trajectory
            then violate "victim %s's K dipped below k_init" ts.Service.ts_name)
         [ gold; silver ]
     end
   | T_normal | T_off ->
     (* under normal load nothing is shed anywhere *)
     List.iter
       (fun ts ->
          if ts.Service.ts_rejected_queue_full > 0 then
            violate "tenant %s saw %d rejections under normal load" ts.Service.ts_name
              ts.Service.ts_rejected_queue_full)
       stats);
  let violations = List.rev !violations in
  let passed = violations = [] in
  (* the global latency distribution is the merge of the per-tenant
     histograms — same observations, no re-binning *)
  let merged =
    List.fold_left
      (fun acc ts -> Stats.Histogram.merge acc ts.Service.ts_latency)
      (Stats.Histogram.create ()) stats
  in
  let report =
    Json.Assoc
      [
        ("seed", Json.Int seed);
        ("plan", Json.String (tenant_mode_name mode));
        ("duration_steps", Json.Int duration);
        ("final_step", Json.Int (Service.now svc));
        ("config", config_json ~policy_name ~with_quota:dfd ~tenants:soak_tenants);
        ( "submissions",
          Json.List
            (List.map
               (fun u ->
                  Json.Assoc
                    ([
                       ("step", Json.Int u.u_step);
                       ("tenant", Json.String u.u_tenant);
                       ("kind", Json.String u.u_class);
                     ]
                     @
                     match u.u_result with
                     | Ok id -> [ ("accepted", Json.Bool true); ("job", Json.Int id) ]
                     | Error r ->
                       [
                         ("accepted", Json.Bool false);
                         ("reason", Json.String (Service.reject_reason_name r));
                       ]))
               submissions) );
        ("tenants", Json.List (List.map tenant_json stats));
        ("latency_all_steps", quantile_json merged);
        ("headroom", headroom_json svc);
        ("ledger", ledger_json entries);
        ("counters", counters_json svc);
        ( "checks",
          Json.Assoc
            [
              ("ledger_verified", Json.Bool (Service.verify_ledger svc = Ok ()));
              ("violations", Json.List (List.map (fun m -> Json.String m) violations));
              ("all_passed", Json.Bool passed);
            ] );
      ]
  in
  Service.shutdown ~reap:true svc;
  write_report ~json_out report;
  Printf.printf
    "soak[%s/%s]: %d submitted (%d accepted, %d shed), %d completed, %d failed; bully first \
     shed %s\n"
    (tenant_mode_name mode) policy_name (List.length submissions) c.Service.accepted
    c.Service.rejected_queue_full c.Service.completions c.Service.failures
    (match bronze.Service.ts_first_shed with
     | Some s -> Printf.sprintf "at step %d" s
     | None -> "never");
  finish ~violations

let run_soak ~seed ~duration ~plan ~tenants ~policy ~wedge_grace ~json_out ~flight_dir =
  if duration < 12 then begin
    prerr_endline "repro soak: --duration-steps must be at least 12";
    exit 2
  end;
  match tenants with
  | T_off -> run_fault_soak ~seed ~duration ~plan ~policy ~wedge_grace ~json_out ~flight_dir
  | mode -> run_tenant_soak ~seed ~duration ~mode ~policy ~wedge_grace ~json_out ~flight_dir

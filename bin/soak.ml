(* repro soak — deterministic soak campaigns against the supervised job
   service (Dfd_service.Service).

   Every plan runs through one loop: for [duration] logical steps it
   offers the plan's submissions for that step, then advances the service
   by one step.  Jobs are drawn from eight kinds whose outcome *class* is
   deterministic even though pool timing is not:

   - ok     small fork-join reduction with allocation hints; completes.
   - dup    an ok job from a bursting tenant; completes.
   - bully  an ok job from a tenant offering ~10x its share; completes
            if admitted.
   - spike  one huge allocation hint; completes, and sets the
            per-attempt allocation peak the headroom gauges record.
   - exn    always raises; retried to budget exhaustion, then Failed.
   - flaky  raises on the first attempt only; Completed after one retry.
   - slow   endless forking under a tight per-job deadline; every attempt
            times out, then Failed.
   - wedge  spins on a flag without touching the pool — invisible to
            cooperative cancellation.  The supervisor declares the pool
            wedged, respawns it, and requeues the job exactly once; the
            respawn callback releases the flag, so the second attempt
            completes.  Expected: Completed with requeues = 1.

   The five fault plans (none, exns, wedges, spikes, mixed) submit a pure
   function of (step, duration) to the one default lane.  The two tenant
   plans (tenants-normal, tenants-bully) run the multi-tenant front door
   under seeded open-loop load: three tenants (gold w4, silver w2,
   bronze w1) submit per-step arrivals drawn from per-tenant splitmix64
   streams.  Under the bully plan, bronze offers ~10x its normal load
   laced with allocation spikes.

   One oracle judges every plan: the service is idle after the drain,
   the ledger audits clean, no acknowledgement is duplicated, every lane
   stays within its bound, the per-attempt allocation peak stays inside
   the Theorem-4.4 headroom budget, wedges = respawns = accepted wedge
   jobs, and every accepted job ends with its kind's outcome.  The
   headroom peak must also be exact: the spike's bytes when a spike
   completed, else one ok body's bytes when any ok/dup/bully job
   completed, else 0.  Two plan-specific checks follow: the bully must
   be shed first and alone with the victims' p99 bounded; tenants-normal
   must shed nothing.  A dfd service runs every attempt at the one K
   [soak_quota].

   After the submission phase the service is driven to idle and audited.
   Every plan writes one report shape.  It holds only logical-clock
   facts — counters, the ledger, per-tenant sections, stable telemetry
   snapshots — never wall-clock readings, so
   two runs with the same seed and arguments are byte-identical.  The
   exit code is gated on the ledger audit and the oracle, never on
   timing. *)

module Service = Dfd_service.Service
module Tenant = Dfd_service.Tenant
module Retry = Dfd_service.Retry
module Pool = Dfd_runtime.Pool
module Json = Dfd_trace.Json
module Registry = Dfd_obs.Registry
module Headroom = Dfd_obs.Headroom
module Stats = Dfd_structures.Stats
module Prng = Dfd_structures.Prng

type plan =
  | P_none
  | P_exns
  | P_wedges
  | P_spikes
  | P_mixed
  | P_tenants_normal
  | P_tenants_bully

let plans =
  [ ("none", P_none); ("exns", P_exns); ("wedges", P_wedges); ("spikes", P_spikes);
    ("mixed", P_mixed); ("tenants-normal", P_tenants_normal);
    ("tenants-bully", P_tenants_bully) ]

let plan_name plan = fst (List.find (fun (_, p) -> p = plan) plans)

type kind = Ok_job | Dup | Bully | Spike | Exn | Flaky | Slow | Wedge

let kind_name = function
  | Ok_job -> "ok"
  | Dup -> "dup"
  | Bully -> "bully"
  | Spike -> "spike"
  | Exn -> "exn"
  | Flaky -> "flaky"
  | Slow -> "slow"
  | Wedge -> "wedge"

(* ------------------------------------------------------------------ *)
(* Service configuration for soak campaigns                            *)
(* ------------------------------------------------------------------ *)

let soak_retry = { Retry.max_attempts = 3; base_delay = 1; max_delay = 8 }

(* The DFDeques memory threshold K of a dfd soak's pool. *)
let soak_quota = 32_000

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

let tenants_of = function
  | P_tenants_normal | P_tenants_bully -> soak_tenants
  | _ -> [ Tenant.make ~weight:1 ~queue_bound:8 "default" ]

(* Headroom estimates: generous S1/D guesses that make the Theorem-4.4
   budget a real (finite, nonzero) ceiling the 400 kB spikes must stay
   under. *)
let soak_headroom_s1 = 600_000

let soak_headroom_depth = 2

(* ------------------------------------------------------------------ *)
(* The submission schedule                                             *)
(* ------------------------------------------------------------------ *)

(* Per-step arrivals for one tenant, drawn from its own stream so adding
   a tenant never shifts another's schedule.  Rates are per-mille per
   step; under the bully plan bronze offers a deterministic 2 plus a coin
   for a third — roughly 10x its normal 0.25/step. *)
let arrivals ~bully tenant rng =
  let bernoulli rate = if Prng.int rng 1000 < rate then 1 else 0 in
  match tenant with
  | "gold" -> bernoulli 250
  | "silver" -> bernoulli 220
  | "bronze" when bully -> 2 + bernoulli 500
  | "bronze" -> bernoulli 250
  | _ -> 0

(* [schedule plan ~seed ~duration] is the function from step [s]
   (1-based) to the submissions offered at that step, as (tenant, kind)
   pairs; [None] is the default lane.  Fault plans are pure in
   (duration, s); tenant plans draw from streams split off [seed], so the
   whole campaign replays from the report header. *)
let schedule plan ~seed ~duration =
  let default kinds = List.map (fun k -> (None, k)) kinds in
  match plan with
  | P_none -> fun _ -> default [ Ok_job ]
  | P_exns ->
    fun s ->
      default
        ((if s mod 5 = 0 then [ Exn ] else [])
         @ (if s mod 7 = 3 then [ Flaky ] else [])
         @ (if s = 2 then [ Slow ] else [])
         @ [ Ok_job ])
  | P_wedges ->
    fun s -> default ((if s = 3 || s = duration / 2 then [ Wedge ] else []) @ [ Ok_job ])
  | P_spikes -> fun s -> default (if s <= duration / 4 then [ Spike ] else [ Ok_job ])
  | P_mixed ->
    fun s ->
      default
        ((if s <= duration / 6 then [ Spike ] else [])
         @ (if s mod 7 = 0 then [ Exn ] else [])
         @ (if s mod 11 = 4 then [ Flaky ] else [])
         @ (if s = duration / 3 || s = 2 * duration / 3 then [ Wedge ] else [])
         @ (if s = duration - 5 then List.init 12 (fun _ -> Ok_job) else [ Ok_job ]))
  | P_tenants_normal | P_tenants_bully ->
    let bully = plan = P_tenants_bully in
    let master = Prng.create seed in
    let streams =
      List.map (fun (tn : Tenant.t) -> (tn.Tenant.name, Prng.split master)) soak_tenants
    in
    let bronze_jobs = ref 0 in
    (* gold is plain load; silver bursts a pair every 7th step; the bully
       laces every 4th job with an allocation spike *)
    let kind s = function
      | "gold" -> Ok_job
      | "silver" -> if s mod 7 = 3 then Dup else Ok_job
      | _ ->
        incr bronze_jobs;
        if not bully then Ok_job else if !bronze_jobs mod 4 = 0 then Spike else Bully
    in
    fun s ->
      List.concat_map
        (fun (name, rng) ->
           let n = arrivals ~bully name rng in
           let n = if name = "silver" && s mod 7 = 3 then n + 1 else n in
           let rec offer i =
             if i = n then []
             else
               let k = kind s name in
               (Some name, k) :: offer (i + 1)
           in
           offer 0)
        streams

(* ------------------------------------------------------------------ *)
(* Job bodies                                                          *)
(* ------------------------------------------------------------------ *)

let ok_hints = 64

let ok_hint_bytes = 16

let ok_body () =
  ignore
    (Pool.parallel_reduce ~zero:0 ~op:( + ) ~lo:0 ~hi:ok_hints (fun i ->
         Pool.alloc_hint ok_hint_bytes;
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
(* JSON rendering (logical-clock facts only)                           *)
(* ------------------------------------------------------------------ *)

let outcome_name = function
  | None -> "unresolved"
  | Some Service.Completed -> "completed"
  | Some (Service.Failed _) -> "failed"
  | Some (Service.Rejected _) -> "rejected"
  | Some Service.Cancelled -> "cancelled"

let outcome_fields o =
  ("outcome", Json.String (outcome_name o))
  ::
  (match o with
   | Some (Service.Failed m) -> [ ("detail", Json.String m) ]
   | Some (Service.Rejected r) -> [ ("reason", Json.String (Service.reject_reason_name r)) ]
   | _ -> [])

(* The counters object is rendered from the registry's sample type (the
   same path `repro metrics` exposes); [Service.counter_samples] fixes its
   key set and order. *)
let counters_json svc = Registry.Snapshot.to_flat_json (Service.counter_samples svc)

let config_json ~policy_name ~dfd ~tenants =
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
      ("quota", if dfd then Json.Int soak_quota else Json.Null);
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
    ]

let headroom_json h =
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

type submission = {
  step : int;
  tenant : string option;  (** [None]: the default lane. *)
  kind : kind;
  result : (int, Service.reject_reason) result;
}

let submission_json u =
  Json.Assoc
    ([ ("step", Json.Int u.step) ]
     @ (match u.tenant with Some t -> [ ("tenant", Json.String t) ] | None -> [])
     @ [ ("kind", Json.String (kind_name u.kind)) ]
     @
     match u.result with
     | Ok id -> [ ("accepted", Json.Bool true); ("job", Json.Int id) ]
     | Error r ->
       [ ("accepted", Json.Bool false); ("reason", Json.String (Service.reject_reason_name r)) ])

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

(* ------------------------------------------------------------------ *)
(* The oracle                                                          *)
(* ------------------------------------------------------------------ *)

let oracle ~plan ~svc ~submissions =
  let violations = ref [] in
  let violate fmt = Printf.ksprintf (fun m -> violations := m :: !violations) fmt in
  let c = Service.counters svc in
  let stats = Service.tenant_stats svc in
  (* ---- universal: every plan ---- *)
  if not (Service.idle svc) then violate "service not idle after drain";
  (match Service.verify_ledger svc with
   | Ok () -> ()
   | Error m -> violate "ledger audit failed: %s" m);
  if c.Service.duplicate_acks <> 0 then
    violate "%d duplicate acknowledgements" c.Service.duplicate_acks;
  List.iter
    (fun ts ->
       if ts.Service.ts_peak_depth > ts.Service.ts_bound then
         violate "tenant %s peak queue depth %d exceeds bound %d" ts.Service.ts_name
           ts.Service.ts_peak_depth ts.Service.ts_bound)
    stats;
  let h = Service.headroom svc in
  if Headroom.peak h > Headroom.budget h then
    violate "headroom peak %d bytes exceeds Theorem-4.4 budget %d" (Headroom.peak h)
      (Headroom.budget h);
  let entry_tbl = Hashtbl.create 64 in
  List.iter (fun (e : Service.entry) -> Hashtbl.replace entry_tbl e.Service.job e) (Service.ledger svc);
  let accepted_wedges = ref 0 in
  List.iter
    (fun u ->
       match u.result with
       | Error _ -> ()
       | Ok id -> (
           if u.kind = Wedge then incr accepted_wedges;
           let name = kind_name u.kind in
           match Hashtbl.find_opt entry_tbl id with
           | None -> violate "job %d (step %d) missing from the ledger" id u.step
           | Some e ->
             let expect_outcome expected =
               let o = e.Service.outcome in
               if outcome_name o <> expected then
                 violate "job %d (%s, step %d): expected %s, got %s" id name u.step expected
                   (match o with
                    | Some (Service.Failed m) -> "failed: " ^ m
                    | Some (Service.Rejected r) -> "rejected: " ^ Service.reject_reason_name r
                    | o -> outcome_name o)
             in
             match u.kind with
             | Ok_job | Dup | Bully | Spike -> expect_outcome "completed"
             | Flaky ->
               expect_outcome "completed";
               if e.Service.attempts <> 2 then
                 violate "job %d (flaky): expected 2 attempts, got %d" id e.Service.attempts
             | Exn | Slow ->
               expect_outcome "failed";
               if e.Service.attempts <> soak_retry.Retry.max_attempts then
                 violate "job %d (%s): expected %d attempts, got %d" id name
                   soak_retry.Retry.max_attempts e.Service.attempts
             | Wedge ->
               expect_outcome "completed";
               if e.Service.requeues <> 1 then
                 violate "job %d (wedge): expected exactly 1 requeue, got %d" id
                   e.Service.requeues))
    submissions;
  if c.Service.wedges <> !accepted_wedges then
    violate "wedge counter %d but %d wedge jobs accepted" c.Service.wedges !accepted_wedges;
  if c.Service.respawns <> !accepted_wedges then
    violate "respawn counter %d but %d wedge jobs accepted" c.Service.respawns !accepted_wedges;
  (* the headroom peak is the largest completed attempt's allocation:
     a spike's hint, else one ok body's hints (the other kinds hint
     nothing) *)
  let completed kinds =
    List.exists
      (fun u ->
         List.mem u.kind kinds
         &&
         match u.result with
         | Ok id -> (Hashtbl.find entry_tbl id).Service.outcome = Some Service.Completed
         | Error _ -> false)
      submissions
  in
  let expected_peak =
    if completed [ Spike ] then spike_bytes
    else if completed [ Ok_job; Dup; Bully ] then ok_hints * ok_hint_bytes
    else 0
  in
  if Headroom.peak h <> expected_peak then
    violate "headroom peak %d bytes, expected exactly %d" (Headroom.peak h) expected_peak;
  (* ---- plan-specific ---- *)
  let stat name = List.find (fun ts -> ts.Service.ts_name = name) stats in
  (match plan with
   | P_tenants_bully ->
     let bronze = stat "bronze" and victims = [ stat "gold"; stat "silver" ] in
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
          victims);
     (* victims' tail latency stays bounded: DRR guarantees their share *)
     List.iter
       (fun ts ->
          match Stats.Histogram.quantile ts.Service.ts_latency 0.99 with
          | Some p99 when p99 > 20.0 ->
            violate "victim %s p99 latency %.1f steps exceeds 20" ts.Service.ts_name p99
          | _ -> ())
       victims
   | P_tenants_normal ->
     (* under normal load nothing is shed anywhere *)
     List.iter
       (fun ts ->
          if ts.Service.ts_rejected_queue_full > 0 then
            violate "tenant %s saw %d rejections under normal load" ts.Service.ts_name
              ts.Service.ts_rejected_queue_full)
       stats
   | _ -> ());
  List.rev !violations

(* ------------------------------------------------------------------ *)
(* The campaign                                                        *)
(* ------------------------------------------------------------------ *)

let run_soak ~seed ~duration ~plan ~policy ~wedge_grace ~json_out ~flight_dir =
  if duration < 12 then begin
    prerr_endline "repro soak: --duration-steps must be at least 12";
    exit 2
  end;
  let dfd = policy = `Dfd in
  let pool_policy = if dfd then Pool.Dfdeques { quota = soak_quota } else Pool.Work_stealing in
  let policy_name = if dfd then "dfd" else "ws" in
  let tenants = tenants_of plan in
  let wedge_flags : (int, bool Atomic.t) Hashtbl.t = Hashtbl.create 8 in
  let on_pool_retired ~in_flight =
    match Option.bind in_flight (Hashtbl.find_opt wedge_flags) with
    | Some flag -> Atomic.set flag true
    | None -> ()
  in
  let config =
    {
      Service.seed;
      tenants;
      retry = soak_retry;
      default_deadline = None;
      wedge_grace;
      domains = 2;
      max_respawns = 16;
      on_pool_retired = Some on_pool_retired;
    }
  in
  let svc =
    Service.create ?flight_dir ~headroom_s1:soak_headroom_s1
      ~headroom_depth:soak_headroom_depth ~config pool_policy
  in
  let submit ?tenant kind =
    let class_ = kind_name kind in
    let admit ?deadline body = Service.admission (Service.submit svc ?tenant ~class_ ?deadline body) in
    match kind with
    | Wedge ->
      (* the release flag must be findable by the id [submit] assigns,
         so the respawn callback can free the stuck task *)
      let flag = Atomic.make false in
      let result = admit (wedge_body flag) in
      Result.iter (fun id -> Hashtbl.replace wedge_flags id flag) result;
      result
    | Ok_job | Dup | Bully -> admit ok_body
    | Spike -> admit spike_body
    | Exn -> admit exn_body
    | Flaky -> admit (flaky_body (Atomic.make false))
    | Slow -> admit ~deadline:slow_deadline slow_body
  in
  let next = schedule plan ~seed ~duration in
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
      (fun (tenant, kind) ->
         submissions := { step = s; tenant; kind; result = submit ?tenant kind } :: !submissions)
      (next s);
    Service.step svc;
    if s mod snap_every = 0 then take_snap s
  done;
  (* drain: retries may still be pending *)
  Service.drive ~max_steps:(duration * 20) svc;
  take_snap (Service.now svc);
  let submissions = List.rev !submissions in
  let violations = oracle ~plan ~svc ~submissions in
  let c = Service.counters svc in
  let stats = Service.tenant_stats svc in
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
        ("plan", Json.String (plan_name plan));
        ("duration_steps", Json.Int duration);
        ("final_step", Json.Int (Service.now svc));
        ("config", config_json ~policy_name ~dfd ~tenants);
        ("submissions", Json.List (List.map submission_json submissions));
        ("tenants", Json.List (List.map tenant_json stats));
        ("latency_all_steps", quantile_json merged);
        ("headroom", headroom_json (Service.headroom svc));
        ("ledger", ledger_json (Service.ledger svc));
        ("counters", counters_json svc);
        ( "metrics",
          Json.Assoc
            [
              ("snapshot_every", Json.Int snap_every);
              ( "snapshots",
                Json.List
                  (List.rev_map
                     (fun (s, samples) ->
                        Json.Assoc
                          [ ("step", Json.Int s); ("samples", Registry.Snapshot.to_json samples) ])
                     !snaps) );
            ] );
        ( "checks",
          Json.Assoc
            [
              ("ledger_verified", Json.Bool (Service.verify_ledger svc = Ok ()));
              ("violations", Json.List (List.map (fun m -> Json.String m) violations));
              ("all_passed", Json.Bool (violations = []));
            ] );
      ]
  in
  Service.shutdown ~reap:true svc;
  write_report ~json_out report;
  Printf.printf
    "soak[%s/%s]: %d submitted (%d accepted, %d shed), %d completed, %d failed, %d retries, %d \
     timeouts, %d wedges -> %d respawns\n"
    (plan_name plan) policy_name (List.length submissions) c.Service.accepted
    c.Service.rejected_queue_full c.Service.completions c.Service.failures c.Service.retries
    c.Service.timeouts c.Service.wedges c.Service.respawns;
  List.iter (fun m -> Printf.printf "  VIOLATION: %s\n" m) violations;
  if violations = [] then begin
    print_endline "soak: PASS";
    0
  end
  else begin
    print_endline "soak: FAIL";
    1
  end

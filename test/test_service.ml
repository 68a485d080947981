(* Tests for the supervised job service (lib/service): the seeded
   full-jitter retry policy (property-tested), the adaptive-K quota
   controller (unit-tested on the logical clock), the weighted-fair
   admission queue (DRR order unit-tested, the weight-share bound
   property-tested), submission handles, and the service itself
   end-to-end against a real pool — exactly-once ledger, non-blocking
   admission, cancellation, deadline/retry layering, wedge detection
   with pool respawn, multi-tenant shed ordering, and the adaptive-K
   control loop reacting to allocation pressure. *)

module Service = Dfd_service.Service
module Handle = Dfd_service.Handle
module Tenant = Dfd_service.Tenant
module Fair_queue = Dfd_service.Fair_queue
module Retry = Dfd_service.Retry
module Quota_ctl = Dfd_service.Quota_ctl
module Pool = Dfd_runtime.Pool
module Tracer = Dfd_trace.Tracer
module Event = Dfd_trace.Event
module Stats = Dfd_structures.Stats

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Retry: seeded full-jitter backoff (properties)                      *)
(* ------------------------------------------------------------------ *)

(* (seed, job, policy) generator: small but covers the ramp, the cap and
   the budget edge (max_attempts = 1 means no retries at all). *)
let retry_case =
  QCheck.(
    quad (int_bound 1_000_000) (int_bound 500) (int_range 1 8)
      (pair (int_range 1 5) (int_bound 15)))

let policy_of (max_attempts, (base_delay, extra)) =
  { Retry.max_attempts; base_delay; max_delay = base_delay + extra }

let qcheck_delays_bounded =
  QCheck.Test.make ~count:200 ~name:"retry delays lie in [1, max_delay]" retry_case
    (fun (seed, job, ma, bd) ->
       let pol = policy_of (ma, bd) in
       List.for_all (fun d -> 1 <= d && d <= pol.Retry.max_delay)
         (Retry.schedule pol ~seed ~job))

let qcheck_budget_never_exceeded =
  QCheck.Test.make ~count:200
    ~name:"retry budget: exactly max_attempts - 1 delays, then None forever" retry_case
    (fun (seed, job, ma, bd) ->
       let pol = policy_of (ma, bd) in
       let t = Retry.create pol ~seed ~job in
       let delays = ref 0 in
       (* call well past exhaustion: the budget must hold anyway *)
       for _ = 1 to (2 * ma) + 3 do
         match Retry.next_delay t with Some _ -> incr delays | None -> ()
       done;
       !delays = ma - 1 && Retry.attempts t = ma)

let qcheck_attempts_monotone =
  QCheck.Test.make ~count:200
    ~name:"attempt counter is monotone and clamped at max_attempts" retry_case
    (fun (seed, job, ma, bd) ->
       let pol = policy_of (ma, bd) in
       let t = Retry.create pol ~seed ~job in
       let ok = ref true in
       let prev = ref (Retry.attempts t) in
       for _ = 1 to ma + 4 do
         ignore (Retry.next_delay t);
         let a = Retry.attempts t in
         if a < !prev || a > ma then ok := false;
         prev := a
       done;
       !ok && !prev = ma)

let qcheck_schedule_deterministic =
  QCheck.Test.make ~count:200 ~name:"equal (seed, job) give byte-identical schedules"
    retry_case
    (fun (seed, job, ma, bd) ->
       let pol = policy_of (ma, bd) in
       let s1 = Retry.schedule pol ~seed ~job in
       let s2 = Retry.schedule pol ~seed ~job in
       (* and the incremental API agrees with the pure one *)
       let t = Retry.create pol ~seed ~job in
       let rec steps acc =
         match Retry.next_delay t with None -> List.rev acc | Some d -> steps (d :: acc)
       in
       s1 = s2 && s1 = steps [])

(* ------------------------------------------------------------------ *)
(* Fair queue: DRR dispatch                                            *)
(* ------------------------------------------------------------------ *)

let test_fair_queue_drr_order () =
  let q = Fair_queue.create () in
  Fair_queue.add_tenant q ~name:"a" ~weight:2 ~bound:8;
  Fair_queue.add_tenant q ~name:"b" ~weight:1 ~bound:8;
  List.iter (fun i -> ignore (Fair_queue.push q ~tenant:"a" i)) [ 1; 2; 3; 4 ];
  List.iter (fun i -> ignore (Fair_queue.push q ~tenant:"b" i)) [ 10; 20 ];
  let pops = List.init 6 (fun _ -> Option.get (Fair_queue.pop q)) in
  Alcotest.(check (list (pair string int)))
    "weight-2 lane gets two pops per round"
    [ ("a", 1); ("a", 2); ("b", 10); ("a", 3); ("a", 4); ("b", 20) ]
    pops;
  checkb "drained" true (Fair_queue.pop q = None)

let test_fair_queue_bounds_and_remove () =
  let q = Fair_queue.create () in
  Fair_queue.add_tenant q ~name:"a" ~weight:1 ~bound:2;
  checkb "push ok" true (Fair_queue.push q ~tenant:"a" 1 = Ok ());
  checkb "push ok" true (Fair_queue.push q ~tenant:"a" 2 = Ok ());
  checkb "bound refuses" true (Fair_queue.push q ~tenant:"a" 3 = Error `Queue_full);
  Fair_queue.push_force q ~tenant:"a" 3;
  checki "forced push bypasses the bound" 3 (Fair_queue.depth q "a");
  Fair_queue.push_front q ~tenant:"a" 0;
  checki "peak depth tracked" 4 (Fair_queue.peak_depth q "a");
  checkb "front requeue pops first" true (Fair_queue.pop q = Some ("a", 0));
  checkb "remove finds a queued job" true
    (Fair_queue.remove q ~tenant:"a" (fun x -> x = 2) = Some 2);
  checkb "removed job is gone" true (Fair_queue.remove q ~tenant:"a" (fun x -> x = 2) = None);
  checki "total" 2 (Fair_queue.total q)

(* The isolation property behind the whole front door: over any interval
   in which every lane stays backlogged, each lane's dispatch count is
   within one quantum (its weight) of its weight-proportional share. *)
let fq_case =
  QCheck.(pair (list_of_size Gen.(int_range 2 4) (int_range 1 5)) (int_range 1 60))

let qcheck_fair_share =
  QCheck.Test.make ~count:300
    ~name:"DRR dispatch share within one quantum of weight share" fq_case
    (fun (weights, n) ->
       let q = Fair_queue.create () in
       List.iteri
         (fun i w -> Fair_queue.add_tenant q ~name:(string_of_int i) ~weight:w ~bound:n)
         weights;
       (* every lane holds n jobs, so no lane drains within n pops *)
       List.iteri
         (fun i _ ->
            for j = 1 to n do
              ignore (Fair_queue.push q ~tenant:(string_of_int i) j)
            done)
         weights;
       let counts = Array.make (List.length weights) 0 in
       for _ = 1 to n do
         match Fair_queue.pop q with
         | Some (t, _) ->
           let i = int_of_string t in
           counts.(i) <- counts.(i) + 1
         | None -> ()
       done;
       let total_w = List.fold_left ( + ) 0 weights in
       (* |count_i - n * w_i / W| <= w_i, compared without rounding *)
       List.for_all
         (fun (i, w) -> abs ((total_w * counts.(i)) - (n * w)) <= w * total_w)
         (List.mapi (fun i w -> (i, w)) weights))

(* ------------------------------------------------------------------ *)
(* Handle: status machine and callbacks                                *)
(* ------------------------------------------------------------------ *)

let test_handle_lifecycle () =
  let h = Handle.make ~id:7 ~tenant:"t" in
  checki "id" 7 (Handle.id h);
  Alcotest.(check string) "tenant" "t" (Handle.tenant h);
  checkb "fresh handle is queued" true (Handle.status h = Handle.Queued);
  checkb "not done" false (Handle.is_done h);
  let log = ref [] in
  Handle.on_done h (fun v -> log := ("a", v) :: !log);
  Handle.on_done h (fun v -> log := ("b", v) :: !log);
  Handle.set_running h;
  checkb "running" true (Handle.status h = Handle.Running);
  Handle.set_queued h;
  checkb "back to queued on retry" true (Handle.status h = Handle.Queued);
  Handle.resolve h 1;
  checkb "done" true (Handle.is_done h);
  Alcotest.(check (list (pair string int)))
    "callbacks fired once, in registration order"
    [ ("b", 1); ("a", 1) ] !log;
  Handle.resolve h 2;
  checkb "second resolve ignored" true (Handle.status h = Handle.Done 1);
  Handle.set_running h;
  checkb "set_running after done is a no-op" true (Handle.status h = Handle.Done 1);
  Handle.on_done h (fun v -> log := ("late", v) :: !log);
  checkb "late registration fires immediately with the settled value" true
    (List.hd !log = ("late", 1))

(* ------------------------------------------------------------------ *)
(* Quota controller: AIMD on the logical clock                         *)
(* ------------------------------------------------------------------ *)

let test_quota_ctl_shrink_floor_recover () =
  let cfg =
    {
      Quota_ctl.k_init = 16_000;
      k_min = 2_000;
      k_max = 16_000;
      high_watermark = 10_000;
      low_watermark = 2_000;
      recover_steps = 2;
    }
  in
  let qc = Quota_ctl.create cfg in
  (match Quota_ctl.observe qc ~now:1 ~pressure:100_000 with
   | Quota_ctl.Shrink { from_quota = 16_000; to_quota = 8_000 } -> ()
   | _ -> Alcotest.fail "expected first shrink 16000 -> 8000");
  ignore (Quota_ctl.observe qc ~now:2 ~pressure:100_000);
  ignore (Quota_ctl.observe qc ~now:3 ~pressure:100_000);
  checki "pinned at the floor" 2_000 (Quota_ctl.quota qc);
  (match Quota_ctl.observe qc ~now:4 ~pressure:100_000 with
   | Quota_ctl.Steady -> ()
   | _ -> Alcotest.fail "at the floor, high pressure must hold steady");
  (* calm: the EWMA decays, then K doubles every [recover_steps] *)
  let grows = ref 0 in
  for i = 5 to 60 do
    match Quota_ctl.observe qc ~now:i ~pressure:0 with
    | Quota_ctl.Grow _ -> incr grows
    | _ -> ()
  done;
  checki "recovered to the ceiling" 16_000 (Quota_ctl.quota qc);
  checki "three doublings back" 3 !grows;
  checkb "trajectory recorded every move" true
    (List.length (Quota_ctl.trajectory qc) = 3 + 3)

let test_quota_ctl_validates () =
  let bad cfg = try Quota_ctl.validate cfg; false with Invalid_argument _ -> true in
  let base = Quota_ctl.default_config in
  checkb "k_min > 0" true (bad { base with Quota_ctl.k_min = 0 });
  checkb "k_max >= k_min" true (bad { base with Quota_ctl.k_max = base.Quota_ctl.k_min - 1 });
  checkb "k_init in range" true (bad { base with Quota_ctl.k_init = base.Quota_ctl.k_max + 1 });
  checkb "watermarks ordered" true
    (bad { base with Quota_ctl.low_watermark = base.Quota_ctl.high_watermark + 1 });
  checkb "recover_steps >= 1" true (bad { base with Quota_ctl.recover_steps = 0 })

(* ------------------------------------------------------------------ *)
(* Service end-to-end                                                  *)
(* ------------------------------------------------------------------ *)

let base_config =
  {
    Service.default_config with
    Service.seed = 42;
    domains = 2;
    retry = { Retry.max_attempts = 3; base_delay = 1; max_delay = 4 };
  }

let with_service ?(config = base_config) ?tracer ?fault policy f =
  let svc = Service.create ?tracer ?fault ~config policy in
  (* [reap] is only safe when a test has released its wedge tasks; tests
     that wedge call shutdown themselves *)
  Fun.protect ~finally:(fun () -> try Service.shutdown svc with _ -> ()) (fun () -> f svc)

let entry svc id = List.find (fun e -> e.Service.job = id) (Service.ledger svc)

(* submit-and-check-admission, the migration of the old result API *)
let sub svc ?tenant ?class_ ?deadline f =
  Service.admission (Service.submit svc ?tenant ?class_ ?deadline f)

let test_all_complete_exactly_once () =
  with_service Pool.Work_stealing (fun svc ->
      let ran = Atomic.make 0 in
      let ids =
        List.init 20 (fun _ ->
            Result.get_ok
              (sub svc (fun () ->
                   Atomic.incr ran;
                   ignore (Pool.parallel_reduce ~zero:0 ~op:( + ) ~lo:0 ~hi:64 Fun.id))))
      in
      Service.drive svc;
      checkb "idle after drive" true (Service.idle svc);
      checki "every job ran exactly once" 20 (Atomic.get ran);
      let c = Service.counters svc in
      checki "20 completions" 20 c.Service.completions;
      checki "no failures" 0 c.Service.failures;
      checki "no duplicate acks" 0 c.Service.duplicate_acks;
      List.iter
        (fun id ->
           checkb "ledger says completed" true
             ((entry svc id).Service.outcome = Some Service.Completed))
        ids;
      (match Service.verify_ledger svc with
       | Ok () -> ()
       | Error m -> Alcotest.fail ("ledger audit: " ^ m)))

let test_retry_to_budget_then_failed () =
  with_service Pool.Work_stealing (fun svc ->
      let runs = Atomic.make 0 in
      let id =
        Result.get_ok
          (sub svc ~class_:"boom" (fun () ->
               Atomic.incr runs;
               failwith "boom"))
      in
      Service.drive svc;
      checki "attempted exactly max_attempts times" 3 (Atomic.get runs);
      let e = entry svc id in
      checkb "failed terminally" true
        (match e.Service.outcome with Some (Service.Failed _) -> true | _ -> false);
      checki "ledger attempts" 3 e.Service.attempts;
      let c = Service.counters svc in
      checki "two retries scheduled" 2 c.Service.retries;
      (match Service.verify_ledger svc with
       | Ok () -> ()
       | Error m -> Alcotest.fail ("ledger audit: " ^ m)))

let test_flaky_recovers_after_one_retry () =
  with_service Pool.Work_stealing (fun svc ->
      let tripped = Atomic.make false in
      let id =
        Result.get_ok
          (sub svc ~class_:"flaky" (fun () ->
               if not (Atomic.exchange tripped true) then failwith "flaky"))
      in
      Service.drive svc;
      let e = entry svc id in
      checkb "completed" true (e.Service.outcome = Some Service.Completed);
      checki "two attempts" 2 e.Service.attempts;
      checki "one retry" 1 (Service.counters svc).Service.retries)

let test_queue_full_sheds () =
  let config =
    { base_config with Service.tenants = [ Tenant.make ~queue_bound:2 "default" ] }
  in
  with_service ~config Pool.Work_stealing (fun svc ->
      checkb "first accepted" true (Result.is_ok (sub svc (fun () -> ())));
      checkb "second accepted" true (Result.is_ok (sub svc (fun () -> ())));
      let fired = ref None in
      let h3 = Service.submit svc ~on_done:(fun o -> fired := Some o) (fun () -> ()) in
      checkb "third shed" true (Service.admission h3 = Error Service.Queue_full);
      (* a synchronous rejection is terminal on the handle and fires the
         completion callback — the caller needs no second code path *)
      checkb "shed handle resolved synchronously" true
        (Handle.status h3 = Handle.Done (Service.Rejected Service.Queue_full));
      checkb "on_done fired for the rejection" true
        (!fired = Some (Service.Rejected Service.Queue_full));
      Service.drive svc;
      let c = Service.counters svc in
      checki "queue_full counted" 1 c.Service.rejected_queue_full;
      checki "accepted ran" 2 c.Service.completions;
      (* the shed submission still has a ledger entry with a terminal
         outcome — rejected jobs are recorded, not lost *)
      (match Service.verify_ledger svc with
       | Ok () -> ()
       | Error m -> Alcotest.fail ("ledger audit: " ^ m)))

let test_handle_await_poll_callbacks () =
  with_service Pool.Work_stealing (fun svc ->
      let seen = ref None in
      let h = Service.submit svc ~on_done:(fun o -> seen := Some o) (fun () -> ()) in
      checkb "queued right after submit" true (Service.poll h = Handle.Queued);
      (match Service.await svc h with
       | Some Service.Completed -> ()
       | _ -> Alcotest.fail "await must drive the job to its outcome");
      checkb "poll agrees" true (Service.poll h = Handle.Done Service.Completed);
      checkb "callback fired with the outcome" true (!seen = Some Service.Completed);
      (* await on a settled handle returns without stepping *)
      checkb "await is idempotent" true (Service.await svc h = Some Service.Completed))

let test_cancel_queued_job () =
  with_service Pool.Work_stealing (fun svc ->
      let ran = Atomic.make false in
      let victim = Service.submit svc (fun () -> Atomic.set ran true) in
      let bystander = Service.submit svc (fun () -> ()) in
      checkb "cancel succeeds while queued" true (Service.cancel svc victim);
      checkb "cancel is terminal on the handle" true
        (Handle.status victim = Handle.Done Service.Cancelled);
      checkb "second cancel returns false" false (Service.cancel svc victim);
      Service.drive svc;
      checkb "cancelled work never ran" false (Atomic.get ran);
      checkb "bystander unaffected" true
        (Handle.status bystander = Handle.Done Service.Completed);
      checkb "cannot cancel a finished job" false (Service.cancel svc bystander);
      checki "cancelled counted" 1 (Service.counters svc).Service.cancelled;
      (match Service.verify_ledger svc with
       | Ok () -> ()
       | Error m -> Alcotest.fail ("ledger audit: " ^ m)))

(* The isolation story end-to-end: a bully filling its low-weight lane
   is refused at its own bound; the victim is admitted throughout and its
   tail latency stays bounded. *)
let test_bully_shed_first_victims_bounded () =
  let config =
    {
      base_config with
      Service.tenants =
        [ Tenant.make ~weight:4 ~queue_bound:16 "gold";
          Tenant.make ~weight:1 ~queue_bound:4 "bronze" ];
    }
  in
  with_service ~config Pool.Work_stealing (fun svc ->
      (* the bully fills its whole lane *)
      for _ = 1 to 4 do
        checkb "bully backlog admitted" true (Result.is_ok (sub svc ~tenant:"bronze" (fun () -> ())))
      done;
      (match sub svc ~tenant:"bronze" (fun () -> ()) with
       | Error Service.Queue_full -> ()
       | _ -> Alcotest.fail "the bully must be shed at its own bound");
      checkb "the victim is still admitted" true
        (Result.is_ok (sub svc ~tenant:"gold" (fun () -> ())));
      Service.drive svc;
      let stats = Service.tenant_stats svc in
      let stat n = List.find (fun ts -> ts.Service.ts_name = n) stats in
      let bronze = stat "bronze" and gold = stat "gold" in
      checkb "bully has a first-shed step" true (bronze.Service.ts_first_shed <> None);
      checkb "victim was never shed" true (gold.Service.ts_first_shed = None);
      checki "victim saw zero rejections" 0 gold.Service.ts_rejected_queue_full;
      checki "one queue_full shed, attributed to the bully" 1
        bronze.Service.ts_rejected_queue_full;
      (* DRR gives the weight-4 victim its share: latency stays small
         even with the bully's backlog ahead of it in wall order *)
      (match Stats.Histogram.quantile gold.Service.ts_latency 0.99 with
       | Some p99 -> checkb "victim p99 bounded" true (p99 <= 10.0)
       | None -> Alcotest.fail "victim completed nothing");
      checkb "lane depth stayed within its bound" true
        (bronze.Service.ts_peak_depth <= bronze.Service.ts_bound);
      (match Service.verify_ledger svc with
       | Ok () -> ()
       | Error m -> Alcotest.fail ("ledger audit: " ^ m)))

let test_unknown_tenant_rejected () =
  with_service Pool.Work_stealing (fun svc ->
      checkb "unknown tenant raises" true
        (try
           ignore (Service.submit svc ~tenant:"nope" (fun () -> ()));
           false
         with Invalid_argument _ -> true))

let test_deadline_enforced () =
  let config =
    { base_config with Service.retry = { Retry.max_attempts = 2; base_delay = 1; max_delay = 2 } }
  in
  with_service ~config Pool.Work_stealing (fun svc ->
      let id =
        Result.get_ok
          (sub svc ~class_:"slow" ~deadline:0.05 (fun () ->
               let rec loop () =
                 ignore (Pool.fork_join (fun () -> ()) (fun () -> ()));
                 loop ()
               in
               loop ()))
      in
      Service.drive svc;
      let e = entry svc id in
      (match e.Service.outcome with
       | Some (Service.Failed m) ->
         checkb "failure mentions the deadline" true (m = "deadline exceeded")
       | o ->
         Alcotest.failf "expected deadline failure, got %s"
           (match o with
            | Some Service.Completed -> "completed"
            | Some (Service.Rejected _) -> "rejected"
            | Some Service.Cancelled -> "cancelled"
            | _ -> "unresolved"));
      checki "every attempt timed out" 2 (Service.counters svc).Service.timeouts)

(* The supervision contract: a job that spins outside cooperative
   cancellation wedges the pool; the supervisor kills it, respawns, and
   requeues the job exactly once.  The respawn callback releases the
   spin flag, so the second attempt completes — zero lost jobs, zero
   duplicated acknowledgements, and the fresh pool keeps serving. *)
let test_wedge_respawn_exactly_once () =
  let wedge_flags : (int, bool Atomic.t) Hashtbl.t = Hashtbl.create 4 in
  let config =
    {
      base_config with
      Service.wedge_grace = 0.5;
      on_pool_retired =
        Some
          (fun ~in_flight ->
            match in_flight with
            | Some id -> (
                match Hashtbl.find_opt wedge_flags id with
                | Some flag -> Atomic.set flag true
                | None -> ())
            | None -> ());
    }
  in
  let svc = Service.create ~config (Pool.Dfdeques { quota = 4096 }) in
  let flag = Atomic.make false in
  let wedge_id =
    Result.get_ok
      (Service.admission
         (Service.submit svc ~class_:"wedge" (fun () ->
              while not (Atomic.get flag) do
                Domain.cpu_relax ()
              done)))
  in
  Hashtbl.replace wedge_flags wedge_id flag;
  Service.drive svc;
  let e = entry svc wedge_id in
  checkb "wedged job completed on the respawned pool" true
    (e.Service.outcome = Some Service.Completed);
  checki "requeued exactly once" 1 e.Service.requeues;
  let c = Service.counters svc in
  checki "one wedge" 1 c.Service.wedges;
  checki "one respawn" 1 c.Service.respawns;
  checki "no duplicate acks" 0 c.Service.duplicate_acks;
  (* the respawned pool is a working pool *)
  let after = Result.get_ok (Service.admission (Service.submit svc (fun () -> ()))) in
  Service.drive svc;
  checkb "post-respawn job completes" true
    ((entry svc after).Service.outcome = Some Service.Completed);
  (match Service.verify_ledger svc with
   | Ok () -> ()
   | Error m -> Alcotest.fail ("ledger audit: " ^ m));
  Service.shutdown ~reap:true svc

let test_supervisor_gives_up () =
  let config =
    { base_config with Service.wedge_grace = 0.3; max_respawns = 0 }
  in
  let svc = Service.create ~config Pool.Work_stealing in
  let flag = Atomic.make false in
  ignore
    (Result.get_ok
       (Service.admission
          (Service.submit svc (fun () ->
               while not (Atomic.get flag) do
                 Domain.cpu_relax ()
               done))));
  checkb "giveup past max_respawns" true
    (try
       Service.drive svc;
       false
     with Service.Supervisor_giveup _ -> true);
  (* release the stuck task so shutdown can join the executor *)
  Atomic.set flag true;
  Service.shutdown svc

(* The surgical alternative to the wholesale respawn above: a seeded
   scheduler-level wedge (the victim dies holding an unstarted task, so
   [w_holding] is visible) is quarantined in place — the job completes
   at p-1 without retiring the pool, the slot respawns under the worker
   budget, and the wholesale machinery never fires.  [max_respawns = 0]
   makes that last claim load-bearing: any escalation would raise
   [Supervisor_giveup] and fail the test. *)
let test_surgical_quarantine_over_pool_respawn () =
  let config =
    {
      base_config with
      Service.domains = 3;
      wedge_grace = 0.3;
      max_respawns = 0;
      worker_respawn_budget = 1;
    }
  in
  let fault () =
    Dfd_fault.Fault.create
      ~rates:{ Dfd_fault.Fault.zero_rates with Dfd_fault.Fault.worker_wedge = Some 1 }
      ~seed:11 ()
  in
  List.iter
    (fun policy ->
       with_service ~config ~fault:(fault ()) policy (fun svc ->
           let id =
             Result.get_ok
               (sub svc (fun () ->
                    ignore (Pool.parallel_reduce ~zero:0 ~op:( + ) ~lo:0 ~hi:20_000 Fun.id)))
           in
           Service.drive svc;
           let e = entry svc id in
           checkb "job completed at p-1" true (e.Service.outcome = Some Service.Completed);
           checki "single attempt (no requeue)" 1 e.Service.attempts;
           let c = Service.counters svc in
           checki "one surgical quarantine" 1 c.Service.quarantines;
           checki "no wholesale wedge" 0 c.Service.wedges;
           checki "no pool respawn" 0 c.Service.respawns;
           (match Service.verify_ledger svc with
            | Ok () -> ()
            | Error m -> Alcotest.fail ("ledger audit: " ^ m));
           (* the slot was respawned under the worker budget, so the pool
              serves the next job at full strength *)
           let after = Result.get_ok (sub svc (fun () -> ())) in
           Service.drive svc;
           checkb "post-quarantine job completes" true
             ((entry svc after).Service.outcome = Some Service.Completed)))
    [ Pool.Work_stealing; Pool.Dfdeques { quota = 4096 } ]

(* Terminal error classes skip the retry schedule entirely: the job
   fails on its first attempt with zero retries scheduled.  A plain
   [Failure] stays retryable — the budget still applies to it. *)
let test_terminal_errors_not_retried () =
  checkb "Invalid_argument is terminal" true (Retry.is_terminal (Invalid_argument "x"));
  checkb "Supervisor_giveup is terminal" true
    (Retry.is_terminal (Service.Supervisor_giveup "wedged"));
  checkb "Failure stays retryable" false (Retry.is_terminal (Failure "boom"));
  checkb "Not_found stays retryable" false (Retry.is_terminal Not_found);
  with_service Pool.Work_stealing (fun svc ->
      let runs = Atomic.make 0 in
      let id =
        Result.get_ok
          (sub svc ~class_:"fatal" (fun () ->
               Atomic.incr runs;
               invalid_arg "schema mismatch"))
      in
      Service.drive svc;
      checki "ran exactly once" 1 (Atomic.get runs);
      let e = entry svc id in
      checkb "failed terminally" true
        (match e.Service.outcome with Some (Service.Failed _) -> true | _ -> false);
      checki "single attempt recorded" 1 e.Service.attempts;
      checki "no retries scheduled" 0 (Service.counters svc).Service.retries;
      (match Service.verify_ledger svc with
       | Ok () -> ()
       | Error m -> Alcotest.fail ("ledger audit: " ^ m)))

(* The ISSUE acceptance test for the control loop: an allocation spike
   observed through the pool's [alloc_bytes] counter drives K down (via
   [Pool.run ?quota], with [Quota_adjusted] trace events), and a calm
   stretch restores it to the ceiling. *)
let test_adaptive_quota_reacts () =
  let qcfg =
    {
      Quota_ctl.k_init = 32_000;
      k_min = 4_000;
      k_max = 32_000;
      high_watermark = 20_000;
      low_watermark = 5_000;
      recover_steps = 2;
    }
  in
  let config = { base_config with Service.quota_ctl = Some qcfg } in
  let tracer = Tracer.create () in
  with_service ~config ~tracer (Pool.Dfdeques { quota = 32_000 }) (fun svc ->
      checki "starts at k_init" 32_000 (Option.get (Service.quota svc));
      (* allocation spikes: each job reports 200 kB, far above the
         high watermark; only the first admission is asserted here *)
      checkb "first spike admitted" true
        (Result.is_ok (sub svc ~class_:"spike" (fun () -> Pool.alloc_hint 200_000)));
      Service.step svc;
      for _ = 1 to 3 do
        ignore (Service.submit svc ~class_:"spike" (fun () -> Pool.alloc_hint 200_000));
        Service.step svc
      done;
      Service.step svc;
      (* one more tick so the last spike's pressure is observed *)
      let shrunk = Option.get (Service.quota svc) in
      checkb "spike drove K down" true (shrunk < 32_000);
      checkb "trajectory shows the shrink" true
        (List.exists (fun (_, k) -> k < 32_000) (Service.quota_trajectory svc));
      (* calm: idle steps with zero pressure until the controller
         recovers the ceiling *)
      for _ = 1 to 40 do
        Service.step svc
      done;
      checki "calm restored K to the ceiling" 32_000 (Option.get (Service.quota svc));
      checkb "Quota_adjusted events were traced" true
        (Tracer.count tracer
           (Event.Quota_adjusted { from_quota = 0; to_quota = 0; pressure = 0 })
         > 0))

let () =
  Alcotest.run "service"
    [
      ( "retry",
        [
          QCheck_alcotest.to_alcotest ~long:false qcheck_delays_bounded;
          QCheck_alcotest.to_alcotest ~long:false qcheck_budget_never_exceeded;
          QCheck_alcotest.to_alcotest ~long:false qcheck_attempts_monotone;
          QCheck_alcotest.to_alcotest ~long:false qcheck_schedule_deterministic;
        ] );
      ( "fair_queue",
        [
          Alcotest.test_case "DRR dispatch order" `Quick test_fair_queue_drr_order;
          Alcotest.test_case "bounds, requeue, remove" `Quick test_fair_queue_bounds_and_remove;
          QCheck_alcotest.to_alcotest ~long:false qcheck_fair_share;
        ] );
      ( "handle",
        [ Alcotest.test_case "lifecycle and callbacks" `Quick test_handle_lifecycle ] );
      ( "quota_ctl",
        [
          Alcotest.test_case "shrink, floor, recover" `Quick test_quota_ctl_shrink_floor_recover;
          Alcotest.test_case "config validation" `Quick test_quota_ctl_validates;
        ] );
      ( "service",
        [
          Alcotest.test_case "all complete exactly once" `Quick test_all_complete_exactly_once;
          Alcotest.test_case "retry to budget then failed" `Quick
            test_retry_to_budget_then_failed;
          Alcotest.test_case "flaky recovers" `Quick test_flaky_recovers_after_one_retry;
          Alcotest.test_case "queue full sheds" `Quick test_queue_full_sheds;
          Alcotest.test_case "await, poll, callbacks" `Quick test_handle_await_poll_callbacks;
          Alcotest.test_case "cancel queued job" `Quick test_cancel_queued_job;
          Alcotest.test_case "bully shed first, victims bounded" `Quick
            test_bully_shed_first_victims_bounded;
          Alcotest.test_case "unknown tenant rejected" `Quick test_unknown_tenant_rejected;
          Alcotest.test_case "deadline enforced" `Quick test_deadline_enforced;
          Alcotest.test_case "wedge respawn exactly once" `Quick
            test_wedge_respawn_exactly_once;
          Alcotest.test_case "supervisor gives up" `Quick test_supervisor_gives_up;
          Alcotest.test_case "surgical quarantine over pool respawn" `Quick
            test_surgical_quarantine_over_pool_respawn;
          Alcotest.test_case "terminal errors not retried" `Quick
            test_terminal_errors_not_retried;
          Alcotest.test_case "adaptive K reacts" `Quick test_adaptive_quota_reacts;
        ] );
    ]

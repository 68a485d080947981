(* Tests for the supervised job service (lib/service): the weighted-fair
   admission queue (DRR order unit-tested, the weight-share bound
   property-tested), the per-job attempt budget, and the service itself
   end-to-end against a real pool — exactly-once ledger and [on_done],
   non-blocking admission, a failed attempt's place in its lane,
   deadline/retry layering, wedge detection with pool respawn and
   multi-tenant shed ordering. *)

module Service = Dfd_service.Service
module Tenant = Dfd_service.Tenant
module Fair_queue = Dfd_service.Fair_queue
module Pool = Dfd_runtime.Pool
module Stats = Dfd_structures.Stats

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Fair queue: DRR dispatch                                            *)
(* ------------------------------------------------------------------ *)

let test_fair_queue_drr_order () =
  let q = Fair_queue.create () in
  Fair_queue.add_tenant q ~name:"a" ~weight:2;
  Fair_queue.add_tenant q ~name:"b" ~weight:1;
  List.iter (fun i -> Fair_queue.push q ~tenant:"a" i) [ 1; 2; 3; 4 ];
  List.iter (fun i -> Fair_queue.push q ~tenant:"b" i) [ 10; 20 ];
  let pops = List.init 6 (fun _ -> Option.get (Fair_queue.pop q)) in
  Alcotest.(check (list (pair string int)))
    "weight-2 lane gets two pops per round"
    [ ("a", 1); ("a", 2); ("b", 10); ("a", 3); ("a", 4); ("b", 20) ]
    pops;
  checkb "drained" true (Fair_queue.pop q = None)

(* The lane bound is [Service.submit]'s admission check (over queued and
   in-flight jobs); the queue itself is unbounded.  The service-level
   [Queue_full] tests cover the bound. *)
let test_fair_queue_bounds_and_requeue () =
  let q = Fair_queue.create () in
  Fair_queue.add_tenant q ~name:"a" ~weight:1;
  List.iter (fun i -> Fair_queue.push q ~tenant:"a" i) [ 1; 2; 3 ];
  checki "depth counts every push" 3 (Fair_queue.depth q "a");
  Fair_queue.push_front q ~tenant:"a" 0;
  checki "peak depth tracked" 4 (Fair_queue.peak_depth q "a");
  checkb "front requeue pops first" true (Fair_queue.pop q = Some ("a", 0));
  checki "total" 3 (Fair_queue.total q)

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
         (fun i w -> Fair_queue.add_tenant q ~name:(string_of_int i) ~weight:w)
         weights;
       (* every lane holds n jobs, so no lane drains within n pops *)
       List.iteri
         (fun i _ ->
            for j = 1 to n do
              Fair_queue.push q ~tenant:(string_of_int i) j
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
(* Service end-to-end                                                  *)
(* ------------------------------------------------------------------ *)

let base_config =
  {
    Service.default_config with
    Service.domains = 2;
    max_attempts = 3;
  }

let with_service ?(config = base_config) policy f =
  let svc = Service.create ~config policy in
  (* [reap] is only safe when a test has released its wedge tasks; tests
     that wedge call shutdown themselves *)
  Fun.protect ~finally:(fun () -> try Service.shutdown svc with _ -> ()) (fun () -> f svc)

let entry svc id = List.find (fun e -> e.Service.job = id) (Service.ledger svc)

(* A forking job body: fib n on the service's pool. *)
let rec fib n =
  if n < 2 then n
  else
    let a, b = Pool.fork_join (fun () -> fib (n - 1)) (fun () -> fib (n - 2)) in
    a + b

let test_all_complete_exactly_once () =
  with_service Pool.Work_stealing (fun svc ->
      let ran = Atomic.make 0 in
      let ids =
        List.init 20 (fun _ ->
            Result.get_ok
              (Service.submit svc (fun () ->
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
          (Service.submit svc ~class_:"boom" (fun () ->
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
      checki "exactly max_attempts - 1 retries" 2 c.Service.retries;
      (* the budget holds past exhaustion: further steps run nothing *)
      for _ = 1 to 5 do
        Service.step svc
      done;
      checki "no attempt after the failure" 3 (Atomic.get runs);
      (match Service.verify_ledger svc with
       | Ok () -> ()
       | Error m -> Alcotest.fail ("ledger audit: " ^ m)))

let test_flaky_recovers_after_one_retry () =
  with_service Pool.Work_stealing (fun svc ->
      let tripped = Atomic.make false in
      let id =
        Result.get_ok
          (Service.submit svc ~class_:"flaky" (fun () ->
               if not (Atomic.exchange tripped true) then failwith "flaky"))
      in
      Service.drive svc;
      let e = entry svc id in
      checkb "completed" true (e.Service.outcome = Some Service.Completed);
      checki "two attempts" 2 e.Service.attempts;
      checki "one retry" 1 (Service.counters svc).Service.retries)

(* The per-job budget, one step at a time: an always-failing job's
   ledger attempt count never decreases, never exceeds [max_attempts],
   and ends there with exactly [max_attempts - 1] retries, for budgets
   from 1 (no retry at all) up. *)
let test_attempts_monotone_and_clamped () =
  List.iter
    (fun ma ->
       let config = { base_config with Service.domains = 0; max_attempts = ma } in
       with_service ~config Pool.Work_stealing (fun svc ->
           let runs = Atomic.make 0 in
           let id =
             Result.get_ok
               (Service.submit svc (fun () ->
                    Atomic.incr runs;
                    failwith "boom"))
           in
           let prev = ref 0 in
           for _ = 1 to ma + 4 do
             Service.step svc;
             let a = (entry svc id).Service.attempts in
             checkb (Printf.sprintf "budget %d: attempts monotone and <= budget" ma) true
               (!prev <= a && a <= ma);
             prev := a
           done;
           checki (Printf.sprintf "budget %d: attempts end at the budget" ma) ma !prev;
           checki (Printf.sprintf "budget %d: runs" ma) ma (Atomic.get runs);
           checki (Printf.sprintf "budget %d: retries" ma) (ma - 1)
             (Service.counters svc).Service.retries;
           checkb (Printf.sprintf "budget %d: failed" ma) true
             (match (entry svc id).Service.outcome with
              | Some (Service.Failed _) -> true
              | _ -> false)))
    [ 1; 2; 3; 5 ]

let test_queue_full_sheds () =
  let config =
    { base_config with Service.tenants = [ Tenant.make ~queue_bound:2 "default" ] }
  in
  with_service ~config Pool.Work_stealing (fun svc ->
      checkb "first accepted" true (Result.is_ok (Service.submit svc (fun () -> ())));
      checkb "second accepted" true (Result.is_ok (Service.submit svc (fun () -> ())));
      let fired = ref None in
      checkb "third shed" true
        (Service.submit svc ~on_done:(fun o -> fired := Some o) (fun () -> ())
        = Error Service.Queue_full);
      (* a shed fires the completion callback before [submit] returns —
         the caller needs no second code path *)
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

(* A failed attempt goes straight to the back of its own lane: F fails
   once, so B1 and B2, queued behind it, run before F's retry.  [on_done]
   fires exactly once per job — for a shed, inside [submit]; for a
   completion; and for a retried job only when its retry completes. *)
let test_retry_back_of_lane_on_done_once () =
  let config =
    { base_config with Service.tenants = [ Tenant.make ~queue_bound:3 "default" ] }
  in
  with_service ~config Pool.Work_stealing (fun svc ->
      let order = Atomic.make [] in
      let fired = Hashtbl.create 4 in
      let on_done name o =
        Hashtbl.replace fired name (o :: Option.value ~default:[] (Hashtbl.find_opt fired name))
      in
      let fired_for name = Option.value ~default:[] (Hashtbl.find_opt fired name) in
      let job name body =
        Service.submit svc ~class_:name ~on_done:(on_done name) (fun () ->
            Atomic.set order (name :: Atomic.get order);
            body ())
      in
      let tripped = Atomic.make false in
      let f =
        Result.get_ok (job "F" (fun () -> if not (Atomic.exchange tripped true) then failwith "once"))
      in
      let b1 = Result.get_ok (job "B1" ignore) in
      ignore (Result.get_ok (job "B2" ignore));
      checkb "S shed at the bound" true (job "S" ignore = Error Service.Queue_full);
      checkb "shed fired inside submit" true
        (fired_for "S" = [ Service.Rejected Service.Queue_full ]);
      Service.step svc;
      checki "F's failed attempt counted" 1 (entry svc f).Service.attempts;
      checkb "F unsettled after its failure" true ((entry svc f).Service.outcome = None);
      checkb "a failed attempt fires nothing" true (fired_for "F" = []);
      Service.drive svc;
      Alcotest.(check (list string)) "run order" [ "F"; "B1"; "B2"; "F" ]
        (List.rev (Atomic.get order));
      List.iter
        (fun name ->
           checkb (name ^ ": on_done fired once, Completed") true
             (fired_for name = [ Service.Completed ]))
        [ "F"; "B1"; "B2" ];
      checkb "shed still fired once" true
        (fired_for "S" = [ Service.Rejected Service.Queue_full ]);
      checki "F took two attempts" 2 (entry svc f).Service.attempts;
      checki "B1 took one" 1 (entry svc b1).Service.attempts;
      checki "one retry" 1 (Service.counters svc).Service.retries;
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
        checkb "bully backlog admitted" true (Result.is_ok (Service.submit svc ~tenant:"bronze" (fun () -> ())))
      done;
      (match Service.submit svc ~tenant:"bronze" (fun () -> ()) with
       | Error Service.Queue_full -> ()
       | _ -> Alcotest.fail "the bully must be shed at its own bound");
      checkb "the victim is still admitted" true
        (Result.is_ok (Service.submit svc ~tenant:"gold" (fun () -> ())));
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
    { base_config with Service.max_attempts = 2 }
  in
  with_service ~config Pool.Work_stealing (fun svc ->
      let id =
        Result.get_ok
          (Service.submit svc ~class_:"slow" ~deadline:0.05 (fun () ->
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
  let s1 = 10_000 and depth = 5 and k = 4096 in
  let svc =
    Service.create ~headroom_s1:s1 ~headroom_depth:depth ~config (Pool.Dfdeques { quota = k })
  in
  (* the Theorem 4.4 budget at the pool's fixed width, p = domains + 1 *)
  let budget () = Dfd_obs.Headroom.budget (Service.headroom svc) in
  checki "budget at p=3" (s1 + (8 * min k s1 * 3 * depth)) (budget ());
  let budget_before = budget () in
  let tasks_total () =
    match
      List.find_opt
        (fun s -> s.Dfd_obs.Registry.name = "dfd_pool_tasks_total")
        (Service.metrics_snapshot svc)
    with
    | Some { Dfd_obs.Registry.value = Dfd_obs.Registry.Counter_v v; _ } -> v
    | _ -> Alcotest.fail "dfd_pool_tasks_total missing"
  in
  (* enough tasks on the first pool that a series restarted by the
     respawn would read lower afterwards *)
  ignore (Service.submit svc (fun () -> ignore (fib 12)));
  Service.drive svc;
  let tasks_before = tasks_total () in
  checkb "first pool ran the forking job" true (tasks_before > 100);
  let flag = Atomic.make false in
  let wedge_id =
    Result.get_ok
      (Service.submit svc ~class_:"wedge" (fun () ->
           while not (Atomic.get flag) do
             Domain.cpu_relax ()
           done))
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
  let after = Result.get_ok (Service.submit svc (fun () -> ())) in
  Service.drive svc;
  checkb "post-respawn job completes" true
    ((entry svc after).Service.outcome = Some Service.Completed);
  checkb "dfd_pool_tasks_total monotone across the respawn" true
    (tasks_total () >= tasks_before);
  checki "the respawn keeps the headroom budget" budget_before (budget ());
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
       (Service.submit svc (fun () ->
            while not (Atomic.get flag) do
              Domain.cpu_relax ()
            done)));
  checkb "giveup past max_respawns" true
    (try
       Service.drive svc;
       false
     with Service.Supervisor_giveup _ -> true);
  (* release the stuck task so shutdown can join the executor *)
  Atomic.set flag true;
  Service.shutdown svc

(* Terminal error classes are never retried: the job fails on its first
   attempt with zero retries.  So does a job whose work raises the
   service's own [Supervisor_giveup].  A plain [Failure] stays
   retryable — the budget still applies to it. *)
let test_terminal_errors_not_retried () =
  checkb "Invalid_argument is terminal" true (Service.is_terminal (Invalid_argument "x"));
  checkb "Supervisor_giveup is terminal" true
    (Service.is_terminal (Service.Supervisor_giveup "wedged"));
  checkb "Failure stays retryable" false (Service.is_terminal (Failure "boom"));
  checkb "Not_found stays retryable" false (Service.is_terminal Not_found);
  with_service Pool.Work_stealing (fun svc ->
      let fails_once name raise_it =
        let runs = Atomic.make 0 in
        let id =
          Result.get_ok
            (Service.submit svc ~class_:"fatal" (fun () ->
                 Atomic.incr runs;
                 raise_it ()))
        in
        Service.drive svc;
        checki (name ^ ": ran exactly once") 1 (Atomic.get runs);
        let e = entry svc id in
        checkb (name ^ ": failed terminally") true
          (match e.Service.outcome with Some (Service.Failed _) -> true | _ -> false);
        checki (name ^ ": single attempt recorded") 1 e.Service.attempts
      in
      fails_once "Invalid_argument" (fun () -> invalid_arg "schema mismatch");
      fails_once "Supervisor_giveup is terminal" (fun () ->
          raise (Service.Supervisor_giveup "wedged"));
      checki "no retries scheduled" 0 (Service.counters svc).Service.retries;
      (match Service.verify_ledger svc with
       | Ok () -> ()
       | Error m -> Alcotest.fail ("ledger audit: " ^ m)))

let () =
  Alcotest.run "service"
    [
      ( "retry",
        [
          Alcotest.test_case "attempt counter is monotone and clamped at max_attempts" `Quick
            test_attempts_monotone_and_clamped;
        ] );
      ( "fair_queue",
        [
          Alcotest.test_case "DRR dispatch order" `Quick test_fair_queue_drr_order;
          Alcotest.test_case "bounds and requeue" `Quick test_fair_queue_bounds_and_requeue;
          QCheck_alcotest.to_alcotest ~long:false qcheck_fair_share;
        ] );
      ( "service",
        [
          Alcotest.test_case "all complete exactly once" `Quick test_all_complete_exactly_once;
          Alcotest.test_case "retry to budget then failed" `Quick
            test_retry_to_budget_then_failed;
          Alcotest.test_case "flaky recovers" `Quick test_flaky_recovers_after_one_retry;
          Alcotest.test_case "queue full sheds" `Quick test_queue_full_sheds;
          Alcotest.test_case "retry at the back, on_done once" `Quick
            test_retry_back_of_lane_on_done_once;
          Alcotest.test_case "bully shed first, victims bounded" `Quick
            test_bully_shed_first_victims_bounded;
          Alcotest.test_case "unknown tenant rejected" `Quick test_unknown_tenant_rejected;
          Alcotest.test_case "deadline enforced" `Quick test_deadline_enforced;
          Alcotest.test_case "wedge respawn exactly once" `Quick
            test_wedge_respawn_exactly_once;
          Alcotest.test_case "supervisor gives up" `Quick test_supervisor_gives_up;
          Alcotest.test_case "terminal errors not retried" `Quick
            test_terminal_errors_not_retried;
        ] );
    ]

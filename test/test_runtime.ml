(* Tests for the real Domains-based fork-join pool: correctness of results
   under both deque disciplines, exception propagation, the quota
   mechanism, and determinism-independent invariants.  (This container has
   one core, so these are correctness tests, not speedup tests — the pool
   still runs real concurrent domains.) *)

module Pool = Dfd_runtime.Pool
module Watchdog = Dfd_fault.Watchdog
module Stats = Dfd_structures.Stats

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* Extra worker domains derived from the machine but capped at 4 workers
   total: oversubscribing a small CI container is the main source of
   flaky slow runs, and these are correctness tests — beyond a handful
   of workers they exercise nothing new. *)
let default_domains = min 4 (max 2 (Domain.recommended_domain_count ())) - 1

let with_pool ?(domains = default_domains) policy f =
  let pool = Pool.create ~domains policy in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* Bounded spin-wait: poll [cond] under a wall-clock no-progress watchdog
   instead of looping forever — if the pool wedges, the test fails with
   its diagnostic snapshot rather than hanging the whole suite. *)
let spin_until ?(limit_ms = 20_000) ~snapshot cond =
  let wd = Watchdog.create ~limit:limit_ms ~snapshot () in
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if not (cond ()) then begin
      Watchdog.check wd ~now:(int_of_float ((Unix.gettimeofday () -. t0) *. 1000.));
      Domain.cpu_relax ();
      go ()
    end
  in
  go ()

let policies = [ (Pool.Work_stealing, "WS"); (Pool.Dfdeques { quota = 4096 }, "DFD") ]

let rec fib n =
  if n < 2 then n
  else begin
    let a, b = Pool.fork_join (fun () -> fib (n - 1)) (fun () -> fib (n - 2)) in
    a + b
  end

(* One guaranteed steal.  The right branch keeps forking until a thief
   has run the left one, so its worker passes a fork boundary after every
   request; an unstolen fork costs no sync op, and this run must publish
   and steal.  Needs a worker domain. *)
let forced_steal pool =
  let taken = Atomic.make false in
  Pool.run pool (fun () ->
      ignore
        (Pool.fork_join
           (fun () -> Atomic.set taken true)
           (fun () ->
              spin_until ~snapshot:(fun () -> Pool.snapshot pool) (fun () ->
                  ignore (Pool.fork_join ignore ignore);
                  Atomic.get taken))))

let test_fib () =
  List.iter
    (fun (policy, name) ->
       with_pool policy (fun pool ->
           checki (name ^ " fib 20") 6765 (Pool.run pool (fun () -> fib 20))))
    policies

let test_fork_join_order () =
  List.iter
    (fun (policy, name) ->
       with_pool policy (fun pool ->
           let a, b =
             Pool.run pool (fun () -> Pool.fork_join (fun () -> "left") (fun () -> "right"))
           in
           Alcotest.(check string) (name ^ " left") "left" a;
           Alcotest.(check string) (name ^ " right") "right" b))
    policies

let test_parallel_for_sum () =
  List.iter
    (fun (policy, name) ->
       with_pool policy (fun pool ->
           let n = 10_000 in
           let acc = Array.make n 0 in
           Pool.run pool (fun () -> Pool.parallel_for ~lo:0 ~hi:n (fun i -> acc.(i) <- i));
           let total = Array.fold_left ( + ) 0 acc in
           checki (name ^ " sum") (n * (n - 1) / 2) total))
    policies

let test_parallel_map () =
  with_pool Pool.Work_stealing (fun pool ->
      let input = Array.init 1000 (fun i -> i) in
      let out = Pool.run pool (fun () -> Pool.parallel_map (fun x -> x * x) input) in
      checkb "squares" true (Array.for_all (fun _ -> true) out);
      checki "spot" (37 * 37) out.(37);
      checki "len" 1000 (Array.length out))

let test_empty_ranges () =
  with_pool Pool.Work_stealing (fun pool ->
      Pool.run pool (fun () -> Pool.parallel_for ~lo:5 ~hi:5 (fun _ -> assert false));
      checki "empty map" 0 (Array.length (Pool.run pool (fun () -> Pool.parallel_map succ [||]))))

let test_parallel_reduce () =
  List.iter
    (fun (policy, name) ->
       with_pool policy (fun pool ->
           let n = 5000 in
           let total =
             Pool.run pool (fun () ->
                 Pool.parallel_reduce ~zero:0 ~op:( + ) ~lo:0 ~hi:n (fun i -> i))
           in
           checki (name ^ " reduce") (n * (n - 1) / 2) total;
           let mx =
             Pool.run pool (fun () ->
                 Pool.parallel_reduce ~zero:min_int ~op:max ~lo:0 ~hi:n (fun i ->
                     (i * 7919) mod 1000))
           in
           checki (name ^ " max reduce") 999 mx))
    policies

let test_parallel_prefix_sum () =
  with_pool Pool.Work_stealing (fun pool ->
      let arr = Array.init 4000 (fun i -> i + 1) in
      let out = Pool.run pool (fun () -> Pool.parallel_prefix_sum ~zero:0 ~op:( + ) arr) in
      checki "first is zero" 0 out.(0);
      checki "exclusive prefix" (1 + 2 + 3) out.(3);
      checki "last" (3999 * 4000 / 2) out.(3999);
      (* reference check at random points *)
      List.iter
        (fun i ->
           let expect = i * (i + 1) / 2 in
           checki (Printf.sprintf "prefix %d" i) expect out.(i))
        [ 1; 17; 1023; 1024; 1025; 2500 ];
      checki "empty" 0 (Array.length (Pool.run pool (fun () -> Pool.parallel_prefix_sum ~zero:0 ~op:( + ) [||]))))

let test_psort_correct () =
  List.iter
    (fun (policy, name) ->
       with_pool policy (fun pool ->
           let rng = Dfd_structures.Prng.create 31 in
           List.iter
             (fun n ->
                let arr = Array.init n (fun _ -> Dfd_structures.Prng.int rng 10_000) in
                let expect = Array.copy arr in
                Array.sort compare expect;
                Pool.run pool (fun () -> Dfd_runtime.Psort.sort ~cutoff:64 ~cmp:compare arr);
                checkb
                  (Printf.sprintf "%s psort n=%d" name n)
                  true (arr = expect))
             [ 0; 1; 2; 63; 64; 65; 1000; 10_000 ]))
    policies

let test_psort_already_sorted_and_reverse () =
  with_pool Pool.Work_stealing (fun pool ->
      let n = 5000 in
      let asc = Array.init n (fun i -> i) in
      Pool.run pool (fun () -> Dfd_runtime.Psort.sort ~cutoff:128 ~cmp:compare asc);
      checkb "ascending stays sorted" true (Dfd_runtime.Psort.sorted ~cmp:compare asc);
      let desc = Array.init n (fun i -> n - i) in
      Pool.run pool (fun () -> Dfd_runtime.Psort.sort ~cutoff:128 ~cmp:compare desc);
      checkb "descending gets sorted" true (Dfd_runtime.Psort.sorted ~cmp:compare desc);
      checki "still a permutation" (n * (n + 1) / 2) (Array.fold_left ( + ) 0 desc))

let test_psort_duplicates_and_custom_cmp () =
  with_pool (Pool.Dfdeques { quota = 8192 }) (fun pool ->
      let arr = Array.init 3000 (fun i -> i mod 7) in
      Pool.run pool (fun () -> Dfd_runtime.Psort.sort ~cutoff:100 ~cmp:compare arr);
      checkb "duplicates sorted" true (Dfd_runtime.Psort.sorted ~cmp:compare arr);
      (* descending comparator *)
      let arr2 = Array.init 2000 (fun i -> (i * 7919) mod 500) in
      let cmp a b = compare b a in
      Pool.run pool (fun () -> Dfd_runtime.Psort.sort ~cutoff:100 ~cmp arr2);
      checkb "descending order" true (Dfd_runtime.Psort.sorted ~cmp arr2))

exception Boom

let test_exception_propagation () =
  List.iter
    (fun (policy, name) ->
       with_pool policy (fun pool ->
           checkb (name ^ " child exn") true
             (try
                ignore
                  (Pool.run pool (fun () ->
                       Pool.fork_join (fun () -> raise Boom) (fun () -> 1)));
                false
              with Boom -> true);
           checkb (name ^ " parent exn") true
             (try
                ignore
                  (Pool.run pool (fun () ->
                       Pool.fork_join (fun () -> 1) (fun () -> raise Boom)));
                false
              with Boom -> true);
           (* the pool survives exceptions *)
           checki (name ^ " still works") 55 (Pool.run pool (fun () -> fib 10))))
    policies

exception Boom_inline

(* On a pool with no worker domains nothing is ever stolen, so every
   join takes its branch back and runs it inline, without the branch's
   promise.  The branch's exception must still reach the caller of
   [run], be counted once and be noted as a [task_exn] fault; when both
   branches raise, the forked branch's exception still wins. *)
let test_inline_join_exception () =
  let tracer = Dfd_trace.Tracer.create ~lanes:2 () in
  let pool = Pool.create ~domains:0 ~tracer Pool.Work_stealing in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
       let task_exn_events () =
         List.length
           (List.filter
              (fun e -> e.Dfd_trace.Event.kind = Dfd_trace.Event.Fault_injected { fault = "task_exn" })
              (Dfd_trace.Tracer.events tracer))
       in
       checkb "forked branch's exception reaches run" true
         (match Pool.run pool (fun () -> Pool.fork_join (fun () -> raise Boom) (fun () -> 1)) with
          | _ -> false
          | exception Boom -> true);
       checki "task_exns rose by exactly 1" 1 (Pool.counters pool).Pool.task_exns;
       checki "one task_exn fault event" 1 (task_exn_events ());
       checkb "forked branch's exception wins over the inline one" true
         (match
            Pool.run pool (fun () ->
                Pool.fork_join (fun () -> raise Boom) (fun () -> raise Boom_inline))
          with
          | _ -> false
          | exception Boom -> true
          | exception Boom_inline -> false);
       checki "nothing was stolen" 0 (Pool.counters pool).Pool.steals;
       checki "pool still works" 55 (Pool.run pool (fun () -> fib 10)))

let rec forks_of_fib n = if n < 2 then 0 else 1 + forks_of_fib (n - 1) + forks_of_fib (n - 2)

(* The unstolen fork's exact sync-op cost on a pool with no worker
   domains: 0.  Its push and its join's pop touch only the private part,
   and with no other worker nothing is ever requested, parked or
   published. *)
let test_sync_ops_per_fork () =
  let pool = Pool.create ~domains:0 Pool.Work_stealing in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
       checki "fib 20" 6765 (Pool.run pool (fun () -> fib 20));
       checki "0 per fork" 0 (Pool.sync_ops pool))

(* Allocation per unstolen fork, measured as 21 words with [fib] above
   (its two thunks included): nothing on the fork path may box again,
   such as a task wrapped as [Some] in a deque cell, a sync-op cell
   wrapped as [Some] per call or a result stored in a promise that only
   a thief would read.  Counts words, not time. *)
let test_fork_alloc_bound () =
  let pool = Pool.create ~domains:0 Pool.Work_stealing in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
       ignore (Pool.run pool (fun () -> fib 10));
       let w0 = Gc.minor_words () in
       ignore (Sys.opaque_identity (Pool.run pool (fun () -> fib 20)));
       let words = Gc.minor_words () -. w0 in
       let forks = forks_of_fib 20 in
       (* a few hundred words of slack for [run]'s own fixed cost *)
       checkb
         (Printf.sprintf "%.0f words for %d forks, at most 21 per fork" words forks)
         true
         (words <= float_of_int ((21 * forks) + 256)))

let test_nested_run_rejected () =
  with_pool Pool.Work_stealing (fun pool ->
      checkb "nested run fails" true
        (try
           Pool.run pool (fun () -> Pool.run pool (fun () -> ()));
           false
         with Pool.Nested_run -> true);
      (* the failed nested call must not poison the outer context *)
      checki "outer run still works" 55 (Pool.run pool (fun () -> fib 10)))

let test_fork_join_outside_run_rejected () =
  checkb "fork_join outside run" true
    (try
       ignore (Pool.fork_join (fun () -> 1) (fun () -> 2));
       false
     with Pool.Not_in_pool -> true)

let test_alloc_hint_quota () =
  with_pool (Pool.Dfdeques { quota = 100 }) (fun pool ->
      Pool.run pool (fun () ->
          Pool.parallel_for ~lo:0 ~hi:64 (fun _ -> Pool.alloc_hint 64));
      let giveups = List.assoc "quota_giveups" (Pool.stats pool) in
      checkb "quota giveups occur under DFDeques" true (giveups >= 0))

let test_rank_error_instrumented () =
  with_pool (Pool.Dfdeques { quota = 2048 }) (fun pool ->
      ignore (Pool.run pool (fun () -> fib 16));
      let c = Pool.counters pool in
      let h = Pool.rank_error pool in
      (* one rank-error sample per successful steal, and the membership
         counters reconcile: every reaped deque was first inserted *)
      checki "rank samples = steals" c.Pool.steals (Stats.Histogram.count h);
      checkb "inserts cover removes" true (c.Pool.r_inserts >= c.Pool.r_removes);
      checkb "removes non-negative" true (c.Pool.r_removes >= 0));
  with_pool Pool.Work_stealing (fun pool ->
      ignore (Pool.run pool (fun () -> fib 12));
      checkb "WS records no rank error" true
        (Stats.Histogram.is_empty (Pool.rank_error pool)))

let test_stats_counters () =
  with_pool Pool.Work_stealing (fun pool ->
      ignore (Pool.run pool (fun () -> fib 15));
      forced_steal pool;
      let stats = Pool.stats pool in
      checkb "tasks ran" true (List.assoc "tasks_run" stats > 0);
      (* one alist entry per field of the [Pool.counters] record *)
      checkb "all counters present" true (List.length stats = 11);
      checkb "WS counts its sync ops" true (List.assoc "sync_ops" stats > 0))

(* Both policies count their scheduling sync ops: a run with a steal
   reports a positive total, and the count only grows — through the stats
   entry and a second such run.  Idle worker domains keep polling between
   reads, so successive reads are ordered, not equal. *)
let test_sync_ops_counted policy () =
  with_pool policy (fun pool ->
      forced_steal pool;
      let first = Pool.sync_ops pool in
      checkb "a steal counts sync ops" true (first > 0);
      let listed = List.assoc "sync_ops" (Pool.stats pool) in
      checkb "stats entry reads the same count" true (listed >= first);
      forced_steal pool;
      checkb "a second run adds to the count" true (Pool.sync_ops pool > listed))

(* Every deque call charges the calling worker's own cell: on a pool
   with no worker domains, worker 0 runs a fork_join tree alone, then
   publishes a task to its public deque and takes it back, so all the
   sync ops land in its cell and worker 1's cell stays at 0. *)
let test_sync_ops_per_worker policy () =
  let pool = Pool.For_testing.create_detached ~workers:2 policy in
  Pool.For_testing.as_worker pool 0 (fun () ->
      checki "fib 12" 144 (fib 12);
      Pool.For_testing.push pool 0 ignore;
      checkb "took the published task" true (Pool.For_testing.help pool 0));
  let c0 = !(Pool.For_testing.sync_cell pool 0) in
  checkb "worker 0 counted its sync ops" true (c0 > 0);
  checki "idle worker 1 counted none" 0 !(Pool.For_testing.sync_cell pool 1);
  checki "total is the sum of the cells" c0 (Pool.sync_ops pool)

(* The sync-op cells' layout rule: no two workers' cells within 128
   bytes.  An address is read by reinterpreting a ref as an int, so the
   difference of two such reads is half the byte distance; the cells
   are in the major heap by then, where blocks do not move.  Garbage
   refs allocated first leave holes in the free slots of the cells' size
   class, so the rule must hold on a used heap, not only on a fresh one. *)
let test_sync_cells_apart policy () =
  let addr (r : int ref) = 2 * (Obj.magic r : int) in
  for round = 1 to 20 do
    let junk = Array.init (round * 1000) (fun i -> ref i) in
    Gc.minor ();
    let kept = Array.init (round * 100) (fun i -> junk.(i * 7 mod Array.length junk)) in
    Gc.full_major ();
    let pool = Pool.For_testing.create_detached ~workers:4 policy in
    let cells = List.init 4 (Pool.For_testing.sync_cell pool) in
    List.iteri
      (fun i a ->
         List.iteri
           (fun j b ->
              if i < j then
                checkb
                  (Printf.sprintf "round %d: cells %d and %d >= 128 bytes apart" round i j)
                  true
                  (abs (addr a - addr b) >= 128))
           cells)
      cells;
    ignore (Sys.opaque_identity kept)
  done

let test_heartbeat_monotonic () =
  List.iter
    (fun (policy, name) ->
       with_pool policy (fun pool ->
           checki (name ^ " heartbeat starts at 0") 0 (Pool.heartbeat pool);
           ignore (Pool.run pool (fun () -> fib 12));
           let h1 = Pool.heartbeat pool in
           checkb (name ^ " heartbeat advanced") true (h1 > 0);
           ignore (Pool.run pool (fun () -> fib 12));
           let h2 = Pool.heartbeat pool in
           checkb (name ^ " heartbeat monotonic") true (h2 > h1);
           checki (name ^ " heartbeat = tasks_run") (Pool.counters pool).Pool.tasks_run h2))
    policies

let test_many_sequential_runs () =
  with_pool (Pool.Dfdeques { quota = 512 }) (fun pool ->
      for i = 1 to 20 do
        checki "repeat" (i * 10) (Pool.run pool (fun () -> i * 10))
      done)

let test_deep_nesting () =
  (* a fork chain deeper than any deque fast path *)
  let rec chain d = if d = 0 then 1 else fst (Pool.fork_join (fun () -> chain (d - 1)) (fun () -> 0)) + 0 in
  List.iter
    (fun (policy, name) ->
       with_pool policy (fun pool ->
           checki (name ^ " deep chain") 1 (Pool.run pool (fun () -> chain 500))))
    policies

(* The crash-domain precondition: a worker's private part is empty at
   every top-of-loop take, where an injected crash may fire.  Worker 0
   forks fib trees; two helper domains play workers 1 and 2 through the
   top-of-loop step and check their own private part before every take.
   Stolen fib branches fork too, so the helpers' private parts are used
   in between.  Worker 0 keeps forking until the helpers have stolen a
   few times, so the check is not vacuous. *)
let test_private_empty_at_top_take policy () =
  let pool = Pool.For_testing.create_detached ~workers:3 policy in
  let finished = Atomic.make false in
  let takes = Array.init 3 (fun _ -> Atomic.make 0) in
  let nonempty = Atomic.make 0 in
  let helper i =
    Domain.spawn (fun () ->
        Pool.For_testing.as_worker pool i (fun () ->
            while not (Atomic.get finished) do
              if Pool.For_testing.private_len pool i <> 0 then Atomic.incr nonempty;
              match Pool.For_testing.help_top pool i with
              | `Ran -> Atomic.incr takes.(i)
              | `Idle | `Stopped -> Domain.cpu_relax ()
            done))
  in
  let helpers = [ helper 1; helper 2 ] in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set finished true;
      List.iter Domain.join helpers)
    (fun () ->
       Pool.For_testing.as_worker pool 0 (fun () ->
           spin_until ~snapshot:(fun () -> Pool.snapshot pool) (fun () ->
               checki "fib 16" 987 (fib 16);
               (Pool.counters pool).Pool.steals >= 4)));
  checki "no top-of-loop take with a nonempty private part" 0 (Atomic.get nonempty);
  checkb "the helpers took tasks" true (Atomic.get takes.(1) + Atomic.get takes.(2) > 0);
  for w = 0 to 2 do
    checki (Printf.sprintf "worker %d private part empty after the run" w) 0
      (Pool.For_testing.private_len pool w)
  done

let test_zero_extra_domains () =
  (* degenerate pool: caller is the only worker; everything runs inline *)
  let pool = Pool.create ~domains:0 Pool.Work_stealing in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () -> checki "fib on 1 worker" 610 (Pool.run pool (fun () -> fib 15)))

(* ------------------------------------------------------------------ *)
(* Fault injection, timeouts, graceful degradation                     *)
(* ------------------------------------------------------------------ *)

module Fault = Dfd_fault.Fault

(* Property (per seed, both policies): an injected task exception always
   reaches the caller of [run], and the same pool then completes a clean
   run — injected failures never wedge workers or poison pool state. *)
let qcheck_injected_exn_propagates =
  QCheck.Test.make ~count:30 ~name:"injected task exn reaches run caller; pool reusable"
    QCheck.(pair (int_bound 1_000_000) bool)
    (fun (seed, use_dfd) ->
       let policy = if use_dfd then Pool.Dfdeques { quota = 4096 } else Pool.Work_stealing in
       let rates = { Fault.zero_rates with Fault.task_exn_prob = 1.0 } in
       let fault = Fault.create ~rates ~seed () in
       let pool = Pool.create ~domains:default_domains ~fault policy in
       Fun.protect
         ~finally:(fun () -> Pool.shutdown pool)
         (fun () ->
            let propagated =
              try
                ignore (Pool.run pool (fun () -> Pool.fork_join (fun () -> 1) (fun () -> 2)));
                false
              with Fault.Injected_failure _ -> true
            in
            Fault.set_enabled fault false;
            let clean = Pool.run pool (fun () -> fib 12) = 144 in
            propagated && clean && (Pool.counters pool).Pool.task_exns > 0))

(* Injected steal failures degrade gracefully: the answer is still right.
   With every steal failing (rate 1.0, WS), progress comes only from the
   owner's own deque, and no steal succeeds: an injected failure fires
   before any victim deque is touched. *)
let test_injected_steal_failures_degrade_gracefully () =
  List.iter
    (fun (policy, name, rate) ->
       let rates = { Fault.zero_rates with Fault.steal_fail_prob = rate } in
       let fault = Fault.create ~rates ~seed:99 () in
       let pool = Pool.create ~domains:default_domains ~fault policy in
       Fun.protect
         ~finally:(fun () -> Pool.shutdown pool)
         (fun () ->
            let n = 5000 in
            let total =
              Pool.run pool (fun () ->
                  Pool.parallel_reduce ~zero:0 ~op:( + ) ~lo:0 ~hi:n (fun i -> i))
            in
            let label = Printf.sprintf "%s at steal-failure rate %.1f" name rate in
            checki (label ^ ": correct") (n * (n - 1) / 2) total;
            if rate = 1.0 then checki (label ^ ": zero steals") 0 (Pool.counters pool).Pool.steals))
    (List.map (fun (policy, name) -> (policy, name, 0.5)) policies
     @ [ (Pool.Work_stealing, "WS", 1.0) ])

(* E2E crash domain: a seeded one-shot worker crash fires mid-psort (the
   victim dies on its first top-of-loop take, holding one unstarted
   task).  The surviving workers quarantine it, requeue the held task
   exactly once, and the sort still returns fully ordered at p-1; the
   lineage ledger audits clean, and a respawn under budget restores full
   strength for a subsequent clean run. *)
let test_worker_crash_mid_psort () =
  List.iter
    (fun (policy, name) ->
       let rates = { Fault.zero_rates with Fault.worker_crash = Some 1 } in
       let fault = Fault.create ~rates ~seed:17 () in
       let pool = Pool.create ~domains:3 ~fault ~respawn_budget:1 policy in
       Fun.protect
         ~finally:(fun () -> Pool.shutdown pool)
         (fun () ->
            let n = 20_000 in
            let arr = Array.init n (fun i -> i * 7919 land 0xffff) in
            let expect = Array.copy arr in
            Array.sort compare expect;
            Pool.run pool (fun () -> Dfd_runtime.Psort.sort ~cutoff:64 ~cmp:compare arr);
            checkb (name ^ " sorted at p-1") true (arr = expect);
            checki (name ^ " crash fired once") 1
              (List.assoc "worker_crash" (Fault.counts fault));
            checki (name ^ " exactly one quarantine") 1 (Pool.quarantines pool);
            checki (name ^ " degraded to p-1") 3 (Pool.degraded_p pool);
            checki (name ^ " held task requeued exactly once") 1
              (List.length (List.filter (fun e -> e.Pool.requeued) (Pool.lineage pool)));
            (match Pool.verify_lineage pool with
             | Ok () -> ()
             | Error m -> Alcotest.failf "%s lineage audit: %s" name m);
            let victim = match Pool.lineage pool with e :: _ -> e.Pool.worker | [] -> 0 in
            checkb (name ^ " respawn under budget") true (Pool.respawn_worker pool victim);
            checkb (name ^ " budget exhausted after one respawn") false
              (Pool.respawn_worker pool victim);
            checki (name ^ " full strength restored") 4 (Pool.degraded_p pool);
            checki (name ^ " clean run after respawn") 6765 (Pool.run pool (fun () -> fib 20));
            (match Pool.verify_lineage pool with
             | Ok () -> ()
             | Error m -> Alcotest.failf "%s lineage after respawn: %s" name m)))
    policies

let test_timeout_fires_and_pool_reusable () =
  List.iter
    (fun (policy, name) ->
       with_pool policy (fun pool ->
           checkb (name ^ " timeout fires") true
             (match
                Pool.run ~timeout:0.05 pool (fun () ->
                    let rec loop () =
                      ignore (Pool.fork_join (fun () -> ()) (fun () -> ()));
                      loop ()
                    in
                    loop ())
              with
              | () -> false
              | exception Pool.Timeout -> true);
           (* every fork_join frame joined its branch while unwinding *)
           for w = 0 to default_domains do
             checki (Printf.sprintf "%s worker %d private part empty" name w) 0
               (Pool.For_testing.private_len pool w)
           done;
           (* drained and reusable *)
           checki (name ^ " clean run after timeout") 55 (Pool.run pool (fun () -> fib 10))))
    policies

(* Regression: a pool must survive *consecutive* timeouts (the drain
   after the first must leave no stale cancellation state), and the
   internal cooperative-cancellation signal must never escape [run] —
   the caller sees [Timeout], nothing else. *)
let test_two_consecutive_timeouts () =
  List.iter
    (fun (policy, name) ->
       with_pool policy (fun pool ->
           let endless () =
             let rec loop () =
               ignore (Pool.fork_join (fun () -> ()) (fun () -> ()));
               loop ()
             in
             loop ()
           in
           let observe () =
             match Pool.run ~timeout:0.05 pool endless with
             | () -> "returned"
             | exception Pool.Timeout -> "timeout"
             | exception Pool.Cancelled -> "cancelled-leaked"
             | exception e -> Printexc.to_string e
           in
           Alcotest.(check string) (name ^ " first timeout") "timeout" (observe ());
           Alcotest.(check string) (name ^ " second timeout") "timeout" (observe ());
           checki (name ^ " reusable after two timeouts") 55 (Pool.run pool (fun () -> fib 10))))
    policies

let test_alloc_hint_outside_run () =
  checkb "alloc_hint outside run raises Not_in_pool" true
    (try
       Pool.alloc_hint 64;
       false
     with Pool.Not_in_pool -> true)

let test_dynamic_quota () =
  with_pool (Pool.Dfdeques { quota = 10_000 }) (fun pool ->
      Alcotest.(check (option int)) "initial quota" (Some 10_000) (Pool.quota pool);
      Pool.set_quota pool 2_500;
      Alcotest.(check (option int)) "adjusted quota" (Some 2_500) (Pool.quota pool);
      checki "still correct after shrink" 6765 (Pool.run pool (fun () -> fib 20));
      checkb "set_quota rejects non-positive" true
        (try
           Pool.set_quota pool 0;
           false
         with Invalid_argument _ -> true));
  with_pool Pool.Work_stealing (fun pool ->
      Alcotest.(check (option int)) "WS pool has no quota" None (Pool.quota pool);
      checkb "set_quota rejects WS pools" true
        (try
           Pool.set_quota pool 100;
           false
         with Invalid_argument _ -> true))

let test_alloc_bytes_counter () =
  List.iter
    (fun (policy, name) ->
       with_pool policy (fun pool ->
           Pool.run pool (fun () ->
               Pool.parallel_for ~lo:0 ~hi:32 (fun _ -> Pool.alloc_hint 100));
           checki (name ^ " alloc_bytes counts hints") 3200
             (Pool.counters pool).Pool.alloc_bytes))
    policies

let test_timeout_not_spurious () =
  with_pool Pool.Work_stealing (fun pool ->
      (* generous deadline, short computation: must not raise *)
      checki "no spurious timeout" 6765 (Pool.run ~timeout:60.0 pool (fun () -> fib 20)))

let test_background_run_observed () =
  (* a run driven from another domain, observed by watchdog-bounded
     polling: completion must become visible without unbounded waiting *)
  List.iter
    (fun (policy, name) ->
       with_pool policy (fun pool ->
           let res = Atomic.make 0 in
           let d = Domain.spawn (fun () -> Atomic.set res (Pool.run pool (fun () -> fib 16))) in
           spin_until ~snapshot:(fun () -> Pool.snapshot pool) (fun () -> Atomic.get res <> 0);
           Domain.join d;
           checki (name ^ " background fib") 987 (Atomic.get res);
           checkb (name ^ " heartbeat advanced") true (Pool.heartbeat pool > 0)))
    policies

let test_snapshot_mentions_state () =
  List.iter
    (fun (policy, name) ->
       with_pool policy (fun pool ->
           ignore (Pool.run pool (fun () -> fib 10));
           let s = Pool.snapshot pool in
           let has sub =
             let n = String.length s and m = String.length sub in
             let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
             go 0
           in
           checkb (name ^ " snapshot has counters") true (has "tasks_run");
           checkb (name ^ " snapshot has queue state") true (has "queued=0")))
    policies

let () =
  Alcotest.run "runtime"
    [
      ( "pool",
        [
          Alcotest.test_case "fib" `Quick test_fib;
          Alcotest.test_case "fork_join order" `Quick test_fork_join_order;
          Alcotest.test_case "parallel_for" `Quick test_parallel_for_sum;
          Alcotest.test_case "parallel_map" `Quick test_parallel_map;
          Alcotest.test_case "parallel_reduce" `Quick test_parallel_reduce;
          Alcotest.test_case "prefix sum" `Quick test_parallel_prefix_sum;
          Alcotest.test_case "parallel sort" `Quick test_psort_correct;
          Alcotest.test_case "sort edge orders" `Quick test_psort_already_sorted_and_reverse;
          Alcotest.test_case "sort duplicates" `Quick test_psort_duplicates_and_custom_cmp;
          Alcotest.test_case "empty ranges" `Quick test_empty_ranges;
          Alcotest.test_case "exceptions" `Quick test_exception_propagation;
          Alcotest.test_case "nested run rejected" `Quick test_nested_run_rejected;
          Alcotest.test_case "fork_join outside run" `Quick test_fork_join_outside_run_rejected;
          Alcotest.test_case "alloc_hint quota" `Quick test_alloc_hint_quota;
          Alcotest.test_case "stats" `Quick test_stats_counters;
          Alcotest.test_case "WS sync ops counted" `Quick
            (test_sync_ops_counted Pool.Work_stealing);
          Alcotest.test_case "DFD sync ops counted" `Quick
            (test_sync_ops_counted (Pool.Dfdeques { quota = 4096 }));
          Alcotest.test_case "WS sync ops per worker" `Quick
            (test_sync_ops_per_worker Pool.Work_stealing);
          Alcotest.test_case "DFD sync ops per worker" `Quick
            (test_sync_ops_per_worker (Pool.Dfdeques { quota = 4096 }));
          Alcotest.test_case "sync cells 128 bytes apart" `Quick
            (test_sync_cells_apart Pool.Work_stealing);
          Alcotest.test_case "DFD sync cells 128 bytes apart" `Quick
            (test_sync_cells_apart (Pool.Dfdeques { quota = 4096 }));
          Alcotest.test_case "inline join exception" `Quick test_inline_join_exception;
          Alcotest.test_case "sync ops per unstolen fork" `Quick test_sync_ops_per_fork;
          Alcotest.test_case "allocation per unstolen fork" `Quick test_fork_alloc_bound;
          Alcotest.test_case "rank error instrumented" `Quick test_rank_error_instrumented;
          Alcotest.test_case "heartbeat" `Quick test_heartbeat_monotonic;
          Alcotest.test_case "sequential runs" `Quick test_many_sequential_runs;
          Alcotest.test_case "deep nesting" `Quick test_deep_nesting;
          Alcotest.test_case "zero extra domains" `Quick test_zero_extra_domains;
          Alcotest.test_case "WS private part empty at top-of-loop takes" `Quick
            (test_private_empty_at_top_take Pool.Work_stealing);
          Alcotest.test_case "DFD private part empty at top-of-loop takes" `Quick
            (test_private_empty_at_top_take (Pool.Dfdeques { quota = 64 }));
        ] );
      ( "robustness",
        [
          QCheck_alcotest.to_alcotest ~long:false qcheck_injected_exn_propagates;
          Alcotest.test_case "steal failures degrade gracefully" `Quick
            test_injected_steal_failures_degrade_gracefully;
          Alcotest.test_case "worker crash mid-psort recovers at p-1" `Quick
            test_worker_crash_mid_psort;
          Alcotest.test_case "timeout fires, pool reusable" `Quick
            test_timeout_fires_and_pool_reusable;
          Alcotest.test_case "two consecutive timeouts" `Quick test_two_consecutive_timeouts;
          Alcotest.test_case "alloc_hint outside run" `Quick test_alloc_hint_outside_run;
          Alcotest.test_case "dynamic quota" `Quick test_dynamic_quota;
          Alcotest.test_case "alloc_bytes counter" `Quick test_alloc_bytes_counter;
          Alcotest.test_case "timeout not spurious" `Quick test_timeout_not_spurious;
          Alcotest.test_case "background run observed" `Quick test_background_run_observed;
          Alcotest.test_case "snapshot" `Quick test_snapshot_mentions_state;
        ] );
    ]

(* Tests for the schedulers and the engine: execution correctness across all
   four policies, the Lemma 3.1 invariant, the dummy-thread transformation,
   mutexes, and the paper's theorems (4.4 space bound, 4.8 time bound,
   greedy lower bounds) as properties over random programs. *)

module Action = Dfd_dag.Action
module Prog = Dfd_dag.Prog
module Analysis = Dfd_dag.Analysis
module Dag_gen = Dfd_dag.Dag_gen
module Prng = Dfd_structures.Prng
module Config = Dfd_machine.Config
module Engine = Dfdeques_core.Engine
module Dummy = Dfdeques_core.Dummy
module Oracle = Dfd_check.Oracle
module Workload = Dfd_benchmarks.Workload
module Benchmarks = Dfd_benchmarks.Registry
module Tracer = Dfd_trace.Tracer
module Event = Dfd_trace.Event
open Prog

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let scheds : (Engine.sched * string) list =
  [ (`Dfdeques, "DFD"); (`Ws, "WS"); (`Adf, "ADF"); (`Fifo, "FIFO") ]

let rec dnc depth leaf =
  if depth = 0 then leaf else par (dnc (depth - 1) leaf) (dnc (depth - 1) leaf)

(* ------------------------------------------------------------------ *)
(* Dummy transformation                                                *)
(* ------------------------------------------------------------------ *)

let test_dummy_threads_needed () =
  checki "exact" 10 (Dummy.threads_needed ~alloc:10_000 ~k:1_000);
  checki "round up" 11 (Dummy.threads_needed ~alloc:10_001 ~k:1_000);
  checki "one" 1 (Dummy.threads_needed ~alloc:5 ~k:1_000)

let test_dummy_transform_shape () =
  let t = Dummy.transform ~alloc:8_000 ~k:1_000 ~cont:Prog.Nil in
  let s = Analysis.analyze t in
  (* 8 dummy threads + internal tree threads; exactly 8 dummy actions. *)
  let dummies = ref 0 in
  Analysis.iter_serial (fun a -> if a = Action.Dummy then incr dummies) t;
  checki "8 dummies" 8 !dummies;
  checkb "alloc survives" true (s.Analysis.total_alloc = 8_000);
  (* depth of the fork tree is logarithmic *)
  checkb "log depth" true (s.Analysis.depth <= 4 * 13 + Action.depth_units (Action.Alloc 8000))

let test_dummy_transform_rejects_small () =
  Alcotest.check_raises "fits threshold"
    (Invalid_argument "Dummy.transform: allocation fits the threshold") (fun () ->
        ignore (Dummy.transform ~alloc:10 ~k:1_000 ~cont:Prog.Nil))

let test_is_dummy_prog () =
  checkb "bare dummy" true (Dummy.is_dummy_prog (Prog.Act (Action.Dummy, Prog.Nil)));
  checkb "not work" false (Dummy.is_dummy_prog (Prog.Act (Action.Work 1, Prog.Nil)))

(* ------------------------------------------------------------------ *)
(* Engine basics: every scheduler completes and agrees on semantics    *)
(* ------------------------------------------------------------------ *)

let run_all ?(p = 4) ?(k = Some 500) prog =
  List.map
    (fun (sched, name) ->
       let cfg = Config.analysis ~p ~mem_threshold:k () in
       (name, Engine.run ~sched ~check_invariants:true cfg prog))
    scheds

let test_all_complete_simple () =
  let prog = finish (dnc 5 (alloc 20 >> work 3 >> free 20)) in
  let s = Analysis.analyze prog in
  List.iter
    (fun (name, r) ->
       checki (name ^ " executes exactly W") s.Analysis.work r.Engine.work;
       checki (name ^ " no leak") 0 r.Engine.final_heap;
       checki (name ^ " threads created") s.Analysis.threads r.Engine.threads_created;
       checkb (name ^ " time >= critical path") true (r.Engine.time >= s.Analysis.depth))
    (run_all prog)

let test_p1_dfdeques_inf_is_serial () =
  (* DFDeques(inf) on one processor executes the 1DF schedule exactly:
     space = S1, live threads = serial live threads. *)
  let prog = finish (dnc 6 (alloc 32 >> work 2 >> free 32)) in
  let s = Analysis.analyze prog in
  let cfg = Config.analysis ~p:1 () in
  let r = Engine.run ~sched:`Dfdeques cfg prog in
  checki "heap peak = S1" s.Analysis.serial_space r.Engine.heap_peak;
  checki "live threads = serial" s.Analysis.serial_live_threads r.Engine.threads_peak;
  checki "work" s.Analysis.work r.Engine.work

let test_p1_ws_is_serial () =
  let prog = finish (dnc 6 (alloc 32 >> work 2 >> free 32)) in
  let s = Analysis.analyze prog in
  let cfg = Config.analysis ~p:1 () in
  let r = Engine.run ~sched:`Ws cfg prog in
  checki "heap peak = S1" s.Analysis.serial_space r.Engine.heap_peak

let test_deterministic_given_seed () =
  let prog = finish (dnc 6 (alloc 16 >> work 3 >> free 16)) in
  let cfg = Config.analysis ~p:4 ~mem_threshold:(Some 200) ~seed:123 () in
  let r1 = Engine.run ~sched:`Dfdeques cfg prog in
  let r2 = Engine.run ~sched:`Dfdeques cfg prog in
  checki "same time" r1.Engine.time r2.Engine.time;
  checki "same steals" r1.Engine.steals r2.Engine.steals;
  checki "same heap" r1.Engine.heap_peak r2.Engine.heap_peak

let test_seed_changes_schedule () =
  let prog = finish (dnc 8 (work 4)) in
  let r1 =
    Engine.run ~sched:`Dfdeques (Config.analysis ~p:4 ~seed:1 ()) prog
  in
  let r2 =
    Engine.run ~sched:`Dfdeques (Config.analysis ~p:4 ~seed:2 ()) prog
  in
  checkb "different seeds -> different steal counts (almost surely)" true
    (r1.Engine.steals <> r2.Engine.steals || r1.Engine.time <> r2.Engine.time)

let test_parallel_speedup () =
  (* A wide dag must run much faster on 8 processors than on 1. *)
  let prog = finish (dnc 8 (work 16)) in
  let t1 = (Engine.run ~sched:`Dfdeques (Config.analysis ~p:1 ()) prog).Engine.time in
  let t8 = (Engine.run ~sched:`Dfdeques (Config.analysis ~p:8 ()) prog).Engine.time in
  checkb "speedup > 4" true (float_of_int t1 /. float_of_int t8 > 4.0)

let test_work_conservation_all_schedulers () =
  let rng = Prng.create 17 in
  for _ = 1 to 20 do
    let prog = Dag_gen.gen_prog rng Dag_gen.default in
    let s = Analysis.analyze prog in
    List.iter
      (fun (name, r) ->
         checkb (name ^ " work >= W") true (r.Engine.work >= s.Analysis.work);
         checki (name ^ " final heap") s.Analysis.final_heap r.Engine.final_heap)
      (run_all ~p:3 ~k:(Some 100) prog)
  done

let test_big_alloc_spawns_dummies () =
  let prog = finish (par (alloc 10_000 >> work 1 >> free 10_000) (work 5)) in
  let cfg = Config.analysis ~p:4 ~mem_threshold:(Some 1_000) () in
  let r = Engine.run ~sched:`Dfdeques ~check_invariants:true cfg prog in
  checki "10 dummies" 10 r.Engine.dummy_threads;
  checki "alloc happened" 10_000 r.Engine.heap_peak;
  let r_adf = Engine.run ~sched:`Adf cfg prog in
  checki "ADF also spawns dummies" 10 r_adf.Engine.dummy_threads;
  (* infinite threshold: no dummies *)
  let rinf = Engine.run ~sched:`Dfdeques (Config.analysis ~p:4 ()) prog in
  checki "no dummies at K=inf" 0 rinf.Engine.dummy_threads

let test_quota_preemptions_happen () =
  (* the quota counts NET allocation between steals, so the leaves must
     hold their allocations live (freed at the very end) to trip it *)
  let prog =
    finish
      (alloc 0
       >> dnc 6 (alloc 400 >> work 2)
       >> free (64 * 400))
  in
  let cfg = Config.analysis ~p:2 ~mem_threshold:(Some 500) () in
  let r = Engine.run ~sched:`Dfdeques ~check_invariants:true cfg prog in
  checkb "quota exhaustions occur" true (r.Engine.quota_exhaustions > 0);
  let rinf = Engine.run ~sched:`Dfdeques (Config.analysis ~p:2 ()) prog in
  checki "none at K=inf" 0 rinf.Engine.quota_exhaustions

let test_ws_ignores_threshold () =
  let prog = finish (dnc 6 (alloc 400 >> work 2) >> free (64 * 400)) in
  let cfg = Config.analysis ~p:2 ~mem_threshold:(Some 500) () in
  let r = Engine.run ~sched:`Ws cfg prog in
  checki "WS never preempts on quota" 0 r.Engine.quota_exhaustions;
  checki "WS never forks dummies" 0 r.Engine.dummy_threads

let test_malformed_program_raises () =
  let bad = Prog.Join Prog.Nil in
  Alcotest.check_raises "naked join"
    (Engine.Malformed_run "join without an unjoined child") (fun () ->
        ignore (Engine.run ~sched:`Dfdeques (Config.analysis ~p:1 ()) bad))

let test_fifo_breadth_first_explosion () =
  (* FIFO must hold many more threads live than DFD on a fork tree. *)
  let prog = finish (dnc 7 (work 8)) in
  let results = run_all ~p:4 ~k:(Some 1_000) prog in
  let get n = (List.assoc n results).Engine.threads_peak in
  checkb "FIFO explodes vs DFD" true (get "FIFO" > 3 * get "DFD");
  checkb "FIFO explodes vs ADF" true (get "FIFO" > 3 * get "ADF")

let test_granularity_ordering () =
  (* WS (= coarse steals) must have larger scheduling granularity than ADF
     (every thread dispatched from the global queue). *)
  let prog = finish (dnc 9 (work 4)) in
  let results = run_all ~p:8 ~k:(Some 10_000) prog in
  let g n = (List.assoc n results).Engine.sched_granularity in
  checkb "WS > ADF granularity" true (g "WS" > g "ADF");
  checkb "DFD > ADF granularity" true (g "DFD" > g "ADF")

(* ------------------------------------------------------------------ *)
(* Locks                                                               *)
(* ------------------------------------------------------------------ *)

let lock_prog n =
  finish
    (par_iter ~lo:0 ~hi:n (fun i -> work (1 + (i mod 3)) >> critical 0 (work 2) >> work 1))

let test_locks_all_schedulers () =
  List.iter
    (fun (sched, name) ->
       let cfg = Config.analysis ~p:4 ~mem_threshold:(Some 10_000) () in
       let r = Engine.run ~sched cfg (lock_prog 16) in
       checkb (name ^ " completes with locks") true (r.Engine.time > 0))
    scheds

let test_spin_locks_complete () =
  let cfg = Config.analysis ~p:4 () in
  let r = Engine.run ~sched:`Ws ~spin_locks:true cfg (lock_prog 16) in
  checkb "spin completes" true (r.Engine.time > 0)

let test_lock_mutual_exclusion () =
  (* Two threads increment a "shared counter" modelled as allocations under
     a lock; if mutual exclusion were broken the engine would raise on the
     unlock of a non-held mutex. *)
  let prog =
    finish (par (critical 1 (work 5)) (critical 1 (work 5)) >> critical 1 (work 1))
  in
  List.iter
    (fun (sched, name) ->
       let r = Engine.run ~sched (Config.analysis ~p:2 ()) prog in
       checkb (name ^ " lock discipline held") true (r.Engine.time > 0))
    scheds

(* Condition variables: a consumer waits under the mutex; a producer that
   works first signals later — the consumer must complete on every
   scheduler, whichever side reaches the condvar first (sticky signals). *)
let cv_prog ~producer_delay ~consumer_delay =
  finish
    (par
       (work consumer_delay >> lock 0 >> wait ~cv:1 ~mutex:0 >> work 2 >> unlock 0)
       (work producer_delay >> critical 0 (work 1) >> signal 1))

let test_condvar_wait_then_signal () =
  List.iter
    (fun (sched, name) ->
       let r =
         Engine.run ~sched (Config.analysis ~p:2 ()) (cv_prog ~producer_delay:50 ~consumer_delay:1)
       in
       checkb (name ^ " completes") true (r.Engine.time > 50))
    scheds

let test_condvar_signal_then_wait () =
  (* the signal fires long before the wait: sticky semantics must prevent
     the lost wakeup *)
  List.iter
    (fun (sched, name) ->
       let r =
         Engine.run ~sched (Config.analysis ~p:2 ()) (cv_prog ~producer_delay:1 ~consumer_delay:50)
       in
       checkb (name ^ " no lost wakeup") true (r.Engine.time > 50))
    scheds

let test_condvar_broadcast () =
  (* three waiters, one broadcast wakes them all *)
  let waiter = lock 0 >> wait ~cv:2 ~mutex:0 >> unlock 0 >> work 1 in
  let prog =
    finish
      (par_list [ waiter; waiter; waiter; work 80 >> critical 0 (work 1) >> broadcast 2 ])
  in
  List.iter
    (fun (sched, name) ->
       let r = Engine.run ~sched (Config.analysis ~p:4 ()) prog in
       checkb (name ^ " all woken") true (r.Engine.time > 80))
    scheds

let test_condvar_wait_without_mutex_raises () =
  let prog = finish (wait ~cv:0 ~mutex:0) in
  checkb "raises" true
    (try
       ignore (Engine.run ~sched:`Dfdeques (Config.analysis ~p:1 ()) prog);
       false
     with Engine.Malformed_run _ -> true)

let test_condvar_orphan_wait_deadlocks () =
  (* a wait that nobody ever signals is detected as a deadlock *)
  let prog =
    finish (par (lock 0 >> wait ~cv:9 ~mutex:0 >> unlock 0) (work 3))
  in
  checkb "deadlock detected" true
    (try
       ignore (Engine.run ~sched:`Dfdeques (Config.analysis ~p:2 ()) prog);
       false
     with Engine.Deadlock _ -> true)

let test_deadlock_detected () =
  (* Classic ABBA deadlock. *)
  let prog =
    finish
      (par
         (lock 0 >> work 5 >> lock 1 >> work 1 >> unlock 1 >> unlock 0)
         (lock 1 >> work 5 >> lock 0 >> work 1 >> unlock 0 >> unlock 1))
  in
  checkb "deadlock raises" true
    (try
       ignore (Engine.run ~sched:`Dfdeques (Config.analysis ~p:2 ()) prog);
       false
     with Engine.Deadlock _ -> true)

(* Mutex and condition-variable ids are names only: renaming them, even to
   negative ids and the extremes of the int range, moves no simulated
   number, under blocking or spinning locks. *)
let test_ids_are_names_only () =
  let named (a, b, cv) =
    let consumer = lock a >> wait ~cv ~mutex:a >> touch [| 64 |] >> work 2 >> unlock a in
    let producer = work 30 >> critical a (touch [| 64 |] >> work 1) >> signal cv in
    let worker i =
      work (1 + (i mod 3))
      >> critical (if i mod 2 = 0 then a else b) (touch [| 8 * i |] >> work 2)
      >> critical b (work 1)
    in
    finish
      (par_list
         [
           consumer;
           consumer;
           producer;
           work 60 >> critical a (work 1) >> broadcast cv;
           par_iter ~lo:0 ~hi:12 worker;
         ])
  in
  let cfg = Config.costed ~p:4 ~seed:3 () in
  List.iter
    (fun (sched, spin_locks) ->
       let run ids = Engine.run ~sched ~spin_locks cfg (named ids) in
       let small = run (1, 2, 3) and odd = run (-1, min_int, max_int) in
       let tag =
         Printf.sprintf "%s%s" (Engine.sched_name sched) (if spin_locks then " spin" else "")
       in
       checkb (tag ^ " ran") true (small.Engine.time > 60);
       checkb (tag ^ ": every simulated number equal") true
         ({ small with Engine.metrics = odd.Engine.metrics } = odd);
       Alcotest.(check (array int))
         (tag ^ ": per-processor actions equal")
         (Dfd_machine.Metrics.per_proc_actions small.Engine.metrics)
         (Dfd_machine.Metrics.per_proc_actions odd.Engine.metrics))
    [ (`Dfdeques, false); (`Ws, false); (`Ws, true) ]

let test_unlock_unheld_raises () =
  let prog = finish (unlock 3) in
  checkb "raises" true
    (try
       ignore (Engine.run ~sched:`Dfdeques (Config.analysis ~p:1 ()) prog);
       false
     with Engine.Malformed_run _ -> true)

(* ------------------------------------------------------------------ *)
(* Edge cases and failure injection                                    *)
(* ------------------------------------------------------------------ *)

let test_empty_program () =
  List.iter
    (fun (sched, name) ->
       let r = Engine.run ~sched (Config.analysis ~p:2 ()) Prog.Nil in
       checki (name ^ " zero work") 0 r.Engine.work;
       checki (name ^ " one thread") 1 r.Engine.threads_created)
    scheds

let test_stuck_raises () =
  let prog = finish (work 1_000) in
  checkb "max_steps raises Stuck" true
    (try
       ignore (Engine.run ~sched:`Dfdeques ~max_steps:10 (Config.analysis ~p:1 ()) prog);
       false
     with Engine.Stuck _ -> true)

let test_leak_reported () =
  let prog = finish (alloc 123 >> work 1) in
  let r = Engine.run ~sched:`Ws (Config.analysis ~p:2 ()) prog in
  checki "leak visible" 123 r.Engine.final_heap;
  checki "peak" 123 r.Engine.heap_peak

let test_long_serial_chain () =
  (* a very deep sequential program must not blow the engine's stack and
     must take exactly W timesteps on one processor (after the initial
     steal of the root) *)
  let n = 50_000 in
  let prog = finish (repeat n (work 1)) in
  let r = Engine.run ~sched:`Dfdeques (Config.analysis ~p:1 ()) prog in
  checki "work" n r.Engine.work;
  checkb "T ~ W" true (r.Engine.time <= n + 4)

let test_self_deadlock_detected () =
  (* recursive acquisition of a non-recursive mutex deadlocks the thread *)
  let prog = finish (lock 0 >> lock 0 >> work 1 >> unlock 0 >> unlock 0) in
  checkb "self deadlock detected" true
    (try
       ignore (Engine.run ~sched:`Dfdeques (Config.analysis ~p:2 ()) prog);
       false
     with Engine.Deadlock _ -> true)

let test_extreme_threshold_k1 () =
  (* K=1: every allocation is "large" and goes through dummy threads *)
  let prog = finish (dnc 3 (alloc 16 >> work 2 >> free 16)) in
  let cfg = Config.analysis ~p:4 ~mem_threshold:(Some 1) () in
  let r = Engine.run ~sched:`Dfdeques ~check_invariants:true cfg prog in
  checkb "many dummies" true (r.Engine.dummy_threads >= 8 * 16);
  checki "no leak" 0 r.Engine.final_heap

let test_many_processors_smoke () =
  let prog = finish (dnc 10 (work 2)) in
  let r = Engine.run ~sched:`Dfdeques (Config.analysis ~p:64 ()) prog in
  checkb "wide machine wins" true (r.Engine.time * 16 < r.Engine.work);
  let r1 = Engine.run ~sched:`Adf (Config.analysis ~p:64 ()) prog in
  checkb "ADF too" true (r1.Engine.time > 0)

let test_spin_locks_with_observer () =
  let prog = lock_prog 8 in
  let count = ref 0 in
  let r =
    Engine.run ~sched:`Ws ~spin_locks:true
      ~observer:(fun ~now:_ ~proc:_ _ a -> count := !count + Action.work_units a)
      (Config.analysis ~p:4 ())
      prog
  in
  checki "observer sees the executed work" r.Engine.work !count

let test_load_balance_wide_dag () =
  (* a wide regular dag must balance nearly perfectly under the
     deque-based schedulers (the paper's automatic load-balancing claim) *)
  let prog = finish (dnc 11 (work 8)) in
  List.iter
    (fun sched ->
       let r = Engine.run ~sched (Config.analysis ~p:8 ()) prog in
       checkb
         (Engine.sched_name sched ^ " balanced")
         true (r.Engine.load_imbalance < 1.3))
    [ `Dfdeques; `Ws ]

let test_more_procs_than_work () =
  (* p far exceeding the dag's parallelism: correct, just mostly idle *)
  let prog = finish (work 5) in
  let r = Engine.run ~sched:`Dfdeques (Config.analysis ~p:32 ()) prog in
  checki "work" 5 r.Engine.work

(* ------------------------------------------------------------------ *)
(* Costed simulator: pinned numbers and jumped all-stalled spans       *)
(* ------------------------------------------------------------------ *)

let table_cfg = Config.costed ~p:8 ~mem_threshold:(Some 50_000) ~seed:1 ()

let table_prog name = (Benchmarks.find name Workload.Fine).Workload.prog ()

(* (program, policy, (time, work, heap_peak, cache_misses, steal_attempts))
   for the seven Table-1 programs, Fine grain, costed p = 8, K = 50 000,
   seed 1.  Any change to the engine, a policy or the cache model that
   moves one simulated number trips this table. *)
let pinned =
  [
    ("VolRend", `Ws, (4985, 24831, 0, 1536, 70));
    ("DenseMM", `Ws, (170951, 312830, 475136, 110226, 31329));
    ("SparseMVM", `Ws, (6166, 12249, 0, 4184, 325));
    ("FFTW", `Ws, (24014, 37762, 131072, 17376, 3264));
    ("FMM", `Ws, (43397, 250477, 222720, 6066, 1290));
    ("BarnesHut", `Ws, (57778, 160766, 32768, 36019, 1493));
    ("DecisionTree", `Ws, (15052, 38268, 280344, 7970, 1571));
    ("VolRend", `Dfdeques, (5369, 24831, 0, 1788, 353));
    ("DenseMM", `Dfdeques, (180764, 312838, 442368, 116189, 39063));
    ("SparseMVM", `Dfdeques, (6122, 12249, 0, 4103, 391));
    ("FFTW", `Dfdeques, (22881, 37770, 131072, 15376, 4981));
    ("FMM", `Dfdeques, (44152, 250477, 220320, 6474, 2043));
    ("BarnesHut", `Dfdeques, (58293, 160766, 32768, 35717, 3136));
    ("DecisionTree", `Dfdeques, (15464, 38273, 280864, 8693, 937));
  ]

let check_pinned run (time, work, heap_peak, misses, attempts) (r : Engine.result) =
  let tag what = run ^ " " ^ what in
  checki (tag "time") time r.Engine.time;
  checki (tag "work") work r.Engine.work;
  checki (tag "heap_peak") heap_peak r.Engine.heap_peak;
  checki (tag "cache_misses") misses r.Engine.cache_misses;
  checki (tag "steal_attempts") attempts r.Engine.steal_attempts

let test_table_numbers_pinned () =
  List.iter
    (fun (name, sched, numbers) ->
       check_pinned
         (Printf.sprintf "%s %s" name (Engine.sched_name sched))
         numbers
         (Engine.run ~sched table_cfg (table_prog name)))
    pinned

(* One processor executes a single 5 000-unit action while the other three
   fail a steal every timestep (steal cost 1: no stall between attempts,
   so no step is jumped) for five times the watchdog's limit.  The
   stalled processor is the only progress: the run must not deadlock. *)
let test_long_action_is_progress () =
  let cfg = Config.costed ~p:4 ~steal_cost:1 ~seed:2 () in
  List.iter
    (fun sched ->
       let r = Engine.run ~sched ~no_progress_limit:1_000 cfg (finish (work 5_000)) in
       checki (Engine.sched_name sched ^ " work") 5_000 r.Engine.work;
       checkb
         (Engine.sched_name sched ^ " thieves kept failing")
         true
         (r.Engine.steal_attempts > 3 * 5_000))
    [ `Ws; `Dfdeques ]

(* What the table above does not reach: the lock-based tree build alone,
   under blocking locks (DFD) and under spin locks with their bus penalty
   (WS), and Barnes-Hut at Medium grain.  Same configuration, same tuple. *)
let pinned_barnes_hut =
  [
    ("BH-TreeBuild", Workload.Fine, `Dfdeques, false, (18875, 86783, 32768, 6981, 868));
    ("BH-TreeBuild", Workload.Fine, `Ws, true, (17997, 86783, 32768, 5973, 372));
    ("BarnesHut", Workload.Medium, `Dfdeques, false, (57513, 160382, 32768, 35154, 3728));
    ("BarnesHut", Workload.Medium, `Ws, false, (58057, 160382, 32768, 35390, 4351));
  ]

let test_barnes_hut_numbers_pinned () =
  List.iter
    (fun (name, grain, sched, spin_locks, numbers) ->
       let prog = (Benchmarks.find name grain).Workload.prog () in
       check_pinned
         (Printf.sprintf "%s %s%s" name (Engine.sched_name sched)
            (if spin_locks then " spin" else ""))
         numbers
         (Engine.run ~sched ~spin_locks table_cfg prog))
    pinned_barnes_hut

let test_sampler_sees_every_multiple () =
  let prog = table_prog "FFTW" in
  let seen = ref [] in
  let r =
    Engine.run ~sched:`Dfdeques
      ~sampler:(7, fun ~now ~heap:_ ~threads:_ ~deques:_ -> seen := now :: !seen)
      table_cfg prog
  in
  checki "observed run unchanged" 22881 r.Engine.time;
  Alcotest.(check (list int))
    "every multiple of 7 up to T, once"
    (List.init (r.Engine.time / 7) (fun i -> 7 * (i + 1)))
    (List.rev !seen)

let test_counter_track_covers_every_step () =
  let prog = table_prog "FFTW" in
  let tracer = Tracer.create ~capacity:256 () in
  let flight = Tracer.create ~capacity:256 ~lanes:9 () in
  let r = Engine.run ~sched:`Ws ~tracer ~flight table_cfg prog in
  checki "traced run unchanged" 24014 r.Engine.time;
  let counter = Event.Counter { deques = 0; heap = 0; threads = 0 } in
  checki "one tracer counter per timestep" r.Engine.time (Tracer.count tracer counter);
  checki "one flight counter per timestep" r.Engine.time (Tracer.count flight counter)

let test_stuck_inside_stalled_span () =
  (* one processor executing a 1000-unit action is stalled through steps
     2..1000, so max_steps = 10 falls inside a span the clock jumps *)
  let seen = ref [] in
  Alcotest.check_raises "Stuck at max_steps" (Engine.Stuck "exceeded 10 timesteps") (fun () ->
      ignore
        (Engine.run ~sched:`Ws ~max_steps:10
           ~sampler:(1, fun ~now ~heap:_ ~threads:_ ~deques:_ -> seen := now :: !seen)
           (Config.analysis ~p:1 ()) (finish (work 1_000))));
  Alcotest.(check (list int)) "sampled up to max_steps" (List.init 10 (fun i -> i + 1)) (List.rev !seen)

(* ------------------------------------------------------------------ *)
(* Theorems as properties                                              *)
(* ------------------------------------------------------------------ *)

(* Theorem 4.4: expected space of DFDeques(K) is
   S1 + O(min(K,S1) * p * D).  Checked through the shared oracle
   (Dfd_check.Oracle) with its generous default constant. *)
let space_bound_prop =
  QCheck.Test.make ~name:"Theorem 4.4: DFDeques space bound" ~count:60
    QCheck.(pair small_int (int_range 1 6))
    (fun (seed, p) ->
       let rng = Prng.create (seed + 1) in
       let prog = Dag_gen.gen_prog rng Dag_gen.allocation_heavy in
       match Oracle.thm44_result (Oracle.thm44 ~seed ~p ~k:256 prog) with
       | Ok () -> true
       | Error msg -> QCheck.Test.fail_reportf "%s (seed=%d)" msg seed)

(* Greedy lower bounds hold for any scheduler: T >= W/p and T >= D. *)
let time_lower_bound_prop =
  QCheck.Test.make ~name:"time lower bounds (all schedulers)" ~count:40
    QCheck.(pair small_int (int_range 1 6))
    (fun (seed, p) ->
       let rng = Prng.create (seed + 100) in
       let prog = Dag_gen.gen_prog rng Dag_gen.default in
       let s = Analysis.analyze prog in
       List.for_all
         (fun (sched, _) ->
            let cfg = Config.analysis ~p ~mem_threshold:(Some 512) ~seed () in
            let r = Engine.run ~sched cfg prog in
            r.Engine.time >= s.Analysis.depth
            && r.Engine.time >= (s.Analysis.timed_work + p - 1) / p)
         scheds)

(* Theorem 4.8: expected time of DFDeques(K) is O(W/p + Sa/(pK) + D). *)
let time_upper_bound_prop =
  QCheck.Test.make ~name:"Theorem 4.8: DFDeques time bound" ~count:60
    QCheck.(pair small_int (int_range 1 6))
    (fun (seed, p) ->
       let rng = Prng.create (seed + 200) in
       let prog = Dag_gen.gen_prog rng Dag_gen.default in
       let s = Analysis.analyze prog in
       let k = 512 in
       let cfg = Config.analysis ~p ~mem_threshold:(Some k) ~seed () in
       let r = Engine.run ~sched:`Dfdeques cfg prog in
       let bound =
         20
         * ((s.Analysis.timed_work / p) + (s.Analysis.total_alloc / (p * k)) + s.Analysis.depth)
         + 20
       in
       if r.Engine.time > bound then
         QCheck.Test.fail_reportf "time %d > bound %d (W'=%d Sa=%d D=%d p=%d)" r.Engine.time
           bound s.Analysis.timed_work s.Analysis.total_alloc s.Analysis.depth p
       else true)

(* Lemma 4.3 consequence: active threads of DFDeques stay far below FIFO's
   breadth-first explosion and within the analytical envelope. *)
let thread_bound_prop =
  QCheck.Test.make ~name:"DFDeques active threads within envelope" ~count:40
    QCheck.(small_int)
    (fun seed ->
       let rng = Prng.create (seed + 300) in
       let prog = Dag_gen.gen_prog rng Dag_gen.fork_heavy in
       let s = Analysis.analyze prog in
       let p = 4 in
       let cfg = Config.analysis ~p ~mem_threshold:(Some 256) ~seed () in
       let r = Engine.run ~sched:`Dfdeques cfg prog in
       (* live threads <= serial live + O(p * D) with a generous constant *)
       r.Engine.threads_peak
       <= s.Analysis.serial_live_threads + (8 * p * s.Analysis.depth))

(* DFDeques(inf) behaves like WS: no quota events, <= p deques ever, and WS
   itself obeys the S1*p space envelope (Corollary 4.6 upper side for
   stack-like programs). *)
let dfd_inf_is_ws_prop =
  QCheck.Test.make ~name:"DFDeques(inf) = WS structural equivalence" ~count:60
    QCheck.(pair small_int (int_range 1 6))
    (fun (seed, p) ->
       let rng = Prng.create (seed + 400) in
       let prog = Dag_gen.gen_prog rng Dag_gen.allocation_heavy in
       let cfg = Config.analysis ~p ~seed () in
       let r = Engine.run ~sched:`Dfdeques ~check_invariants:true cfg prog in
       r.Engine.quota_exhaustions = 0 && r.Engine.dummy_threads = 0
       && r.Engine.deque_peak <= p)

let ws_space_envelope_prop =
  QCheck.Test.make ~name:"WS space <= c * p * S1 (stack-like programs)" ~count:40
    QCheck.(pair small_int (int_range 1 6))
    (fun (seed, p) ->
       let rng = Prng.create (seed + 500) in
       (* leak-free programs approximate the stack-like allocation model of
          Blumofe-Leiserson under which p*S1 holds *)
       let prog =
         Dag_gen.gen_prog rng { Dag_gen.allocation_heavy with leak_prob = 0.0 }
       in
       let s = Analysis.analyze prog in
       let cfg = Config.analysis ~p ~seed () in
       let r = Engine.run ~sched:`Ws cfg prog in
       r.Engine.heap_peak <= max 1 (4 * p * s.Analysis.serial_space))

(* Lemma 3.1 invariant checked continuously on random programs, through
   the shared oracle. *)
let lemma31_prop =
  QCheck.Test.make ~name:"Lemma 3.1 deque ordering invariant" ~count:60
    QCheck.(pair small_int (int_range 1 8))
    (fun (seed, p) ->
       let rng = Prng.create (seed + 600) in
       let prog = Dag_gen.gen_prog rng Dag_gen.fork_heavy in
       match Oracle.lemma31 ~seed ~p ~k:128 prog with
       | Ok () -> true
       | Error msg -> QCheck.Test.fail_reportf "%s (seed=%d p=%d)" msg seed p)

(* Work conservation under every scheduler on random programs. *)
let work_conservation_prop =
  QCheck.Test.make ~name:"work conservation (all schedulers)" ~count:40
    QCheck.(small_int)
    (fun seed ->
       let rng = Prng.create (seed + 700) in
       let prog = Dag_gen.gen_prog rng Dag_gen.default in
       let s = Analysis.analyze prog in
       List.for_all
         (fun (sched, _) ->
            let cfg = Config.analysis ~p:3 ~mem_threshold:(Some 512) ~seed () in
            let r = Engine.run ~sched cfg prog in
            r.Engine.work >= s.Analysis.work
            && r.Engine.final_heap = s.Analysis.final_heap
            && r.Engine.heap_peak >= s.Analysis.final_heap)
         scheds)

(* Lemma 4.2: the expected number of heavy premature nodes in any prefix is
   O(p*D); we check the whole-execution count against a generous multiple. *)
let lemma42_prop =
  QCheck.Test.make ~name:"Lemma 4.2: heavy premature nodes O(p*D)" ~count:60
    QCheck.(pair small_int (int_range 1 8))
    (fun (seed, p) ->
       let rng = Prng.create (seed + 800) in
       let prog = Dag_gen.gen_prog rng Dag_gen.fork_heavy in
       let s = Analysis.analyze prog in
       let cfg = Config.analysis ~p ~mem_threshold:(Some 256) ~seed () in
       let r = Engine.run ~sched:`Dfdeques cfg prog in
       if r.Engine.heavy_premature > (30 * p * s.Analysis.depth) + 50 then
         QCheck.Test.fail_reportf "heavy premature %d > 30*p*D=%d (p=%d D=%d)"
           r.Engine.heavy_premature (30 * p * s.Analysis.depth) p s.Analysis.depth
       else true)

(* Ablations: stealing from the top must reduce scheduling granularity
   (more steals for the same work) — the bottom-steal rule is the
   granularity mechanism of Section 3.3. *)
let test_ablation_steal_position () =
  let prog = finish (dnc 10 (work 6)) in
  let run sched =
    Engine.run ~sched (Config.analysis ~p:8 ~seed:5 ()) prog
  in
  let paper = run `Dfdeques in
  let top =
    run
      (`Dfdeques_variant
         { Dfdeques_core.Dfdeques.steal_from_top = true; victim_anywhere = false })
  in
  checkb "top-steal lowers granularity" true
    (top.Engine.sched_granularity < paper.Engine.sched_granularity);
  checki "same work either way" paper.Engine.work top.Engine.work

let test_ablation_victim_scope_runs () =
  (* the anywhere-victim variant must still satisfy Lemma 3.1 and finish *)
  let prog = finish (dnc 8 (alloc 64 >> work 4 >> free 64)) in
  let r =
    Engine.run
      ~sched:
        (`Dfdeques_variant
           { Dfdeques_core.Dfdeques.steal_from_top = false; victim_anywhere = true })
      ~check_invariants:true
      (Config.analysis ~p:8 ~mem_threshold:(Some 256) ())
      prog
  in
  checkb "completes" true (r.Engine.time > 0)

(* Observer contract: every unit of work is reported exactly once, at most
   one action per (processor, timestep), timesteps never exceed T. *)
let test_observer_contract () =
  let prog = finish (dnc 6 (alloc 32 >> work 3 >> free 32)) in
  let s = Analysis.analyze prog in
  let seen = Hashtbl.create 64 in
  let units = ref 0 in
  let cfg = Config.analysis ~p:4 ~mem_threshold:(Some 500) () in
  let r =
    Engine.run ~sched:`Dfdeques
      ~observer:(fun ~now ~proc _th a ->
          units := !units + Action.work_units a;
          if Hashtbl.mem seen (now, proc) then
            Alcotest.failf "two actions on proc %d at t=%d" proc now;
          Hashtbl.add seen (now, proc) ())
      cfg prog
  in
  checki "observer saw all work" r.Engine.work !units;
  checkb "work >= W" true (!units >= s.Analysis.work);
  Hashtbl.iter (fun (now, _) () -> if now > r.Engine.time then Alcotest.fail "t > T") seen

(* p=1 serial order: the observer must see actions in exact 1DF order for
   DFDeques(inf) on one processor. *)
let test_observer_serial_order () =
  let prog = finish (dnc 4 (alloc 8 >> work 2 >> free 8)) in
  let from_engine = ref [] in
  let cfg = Config.analysis ~p:1 () in
  ignore
    (Engine.run ~sched:`Dfdeques
       ~observer:(fun ~now:_ ~proc:_ _th a -> from_engine := a :: !from_engine)
       cfg prog);
  let from_serial = ref [] in
  Analysis.iter_serial (fun a -> from_serial := a :: !from_serial) prog;
  checkb "exact 1DF order" true (!from_engine = !from_serial)

(* Differential semantics: every scheduler must execute exactly the same
   multiset of actions as the serial 1DF execution (order may differ). *)
let canonical_multiset collect =
  let acc = ref ([], 0) in
  collect (fun a ->
      let others, work = !acc in
      match a with
      | Action.Work n -> acc := (others, work + n)
      | a -> acc := (Action.to_string a :: others, work + Action.work_units a));
  let others, work = !acc in
  (List.sort compare others, work)

let action_multiset_prop =
  QCheck.Test.make ~name:"schedulers execute the 1DF action multiset" ~count:40
    QCheck.(pair small_int (int_range 1 4))
    (fun (seed, p) ->
       let rng = Prng.create (seed + 900) in
       let prog = Dag_gen.gen_prog rng Dag_gen.default in
       let reference = canonical_multiset (fun f -> Analysis.iter_serial f prog) in
       List.for_all
         (fun (sched, _) ->
            (* K=inf so no dummy threads perturb the multiset *)
            let cfg = Config.analysis ~p ~seed () in
            let got =
              canonical_multiset (fun f ->
                  ignore
                    (Engine.run ~sched ~observer:(fun ~now:_ ~proc:_ _ a -> f a) cfg prog))
            in
            got = reference)
         scheds)

(* Lock-heavy random programs complete under every scheduler, blocking and
   spinning, and conserve work. *)
let locks_random_prop =
  QCheck.Test.make ~name:"random lock-heavy programs complete everywhere" ~count:30
    QCheck.(pair small_int (int_range 1 4))
    (fun (seed, p) ->
       let rng = Prng.create (seed + 1000) in
       let prog = Dag_gen.gen_prog rng Dag_gen.lock_heavy in
       let s = Analysis.analyze prog in
       let cfg = Config.analysis ~p ~mem_threshold:(Some 512) ~seed () in
       List.for_all
         (fun (sched, _) ->
            let r = Engine.run ~sched cfg prog in
            r.Engine.work >= s.Analysis.work)
         scheds
       && (Engine.run ~sched:`Ws ~spin_locks:true cfg prog).Engine.work >= s.Analysis.work)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "core"
    [
      ( "dummy",
        [
          Alcotest.test_case "threads needed" `Quick test_dummy_threads_needed;
          Alcotest.test_case "transform shape" `Quick test_dummy_transform_shape;
          Alcotest.test_case "rejects small" `Quick test_dummy_transform_rejects_small;
          Alcotest.test_case "is_dummy_prog" `Quick test_is_dummy_prog;
        ] );
      ( "engine",
        [
          Alcotest.test_case "all schedulers complete" `Quick test_all_complete_simple;
          Alcotest.test_case "p=1 DFD(inf) is serial" `Quick test_p1_dfdeques_inf_is_serial;
          Alcotest.test_case "p=1 WS is serial" `Quick test_p1_ws_is_serial;
          Alcotest.test_case "deterministic" `Quick test_deterministic_given_seed;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_changes_schedule;
          Alcotest.test_case "parallel speedup" `Quick test_parallel_speedup;
          Alcotest.test_case "work conservation" `Quick test_work_conservation_all_schedulers;
          Alcotest.test_case "big alloc dummies" `Quick test_big_alloc_spawns_dummies;
          Alcotest.test_case "quota preemption" `Quick test_quota_preemptions_happen;
          Alcotest.test_case "WS ignores threshold" `Quick test_ws_ignores_threshold;
          Alcotest.test_case "malformed raises" `Quick test_malformed_program_raises;
          Alcotest.test_case "FIFO thread explosion" `Quick test_fifo_breadth_first_explosion;
          Alcotest.test_case "granularity ordering" `Quick test_granularity_ordering;
          Alcotest.test_case "ablation: steal position" `Quick test_ablation_steal_position;
          Alcotest.test_case "ablation: victim scope" `Quick test_ablation_victim_scope_runs;
          Alcotest.test_case "observer contract" `Quick test_observer_contract;
          Alcotest.test_case "observer 1DF order" `Quick test_observer_serial_order;
        ] );
      ( "edges",
        [
          Alcotest.test_case "empty program" `Quick test_empty_program;
          Alcotest.test_case "stuck raises" `Quick test_stuck_raises;
          Alcotest.test_case "leak reported" `Quick test_leak_reported;
          Alcotest.test_case "long serial chain" `Quick test_long_serial_chain;
          Alcotest.test_case "self deadlock" `Quick test_self_deadlock_detected;
          Alcotest.test_case "K=1 extreme" `Quick test_extreme_threshold_k1;
          Alcotest.test_case "64 processors" `Quick test_many_processors_smoke;
          Alcotest.test_case "spin + observer" `Quick test_spin_locks_with_observer;
          Alcotest.test_case "more procs than work" `Quick test_more_procs_than_work;
          Alcotest.test_case "load balance" `Quick test_load_balance_wide_dag;
        ] );
      ( "costed",
        [
          Alcotest.test_case "table numbers pinned" `Quick test_table_numbers_pinned;
          Alcotest.test_case "barnes-hut numbers pinned" `Quick test_barnes_hut_numbers_pinned;
          Alcotest.test_case "long action is progress" `Quick test_long_action_is_progress;
          Alcotest.test_case "sampler every multiple" `Quick test_sampler_sees_every_multiple;
          Alcotest.test_case "counter every step" `Quick test_counter_track_covers_every_step;
          Alcotest.test_case "stuck inside span" `Quick test_stuck_inside_stalled_span;
        ] );
      ( "locks",
        [
          Alcotest.test_case "all schedulers" `Quick test_locks_all_schedulers;
          Alcotest.test_case "spin locks" `Quick test_spin_locks_complete;
          Alcotest.test_case "mutual exclusion" `Quick test_lock_mutual_exclusion;
          Alcotest.test_case "deadlock detection" `Quick test_deadlock_detected;
          Alcotest.test_case "condvar wait/signal" `Quick test_condvar_wait_then_signal;
          Alcotest.test_case "condvar sticky signal" `Quick test_condvar_signal_then_wait;
          Alcotest.test_case "condvar broadcast" `Quick test_condvar_broadcast;
          Alcotest.test_case "condvar needs mutex" `Quick test_condvar_wait_without_mutex_raises;
          Alcotest.test_case "condvar orphan deadlock" `Quick test_condvar_orphan_wait_deadlocks;
          Alcotest.test_case "unlock unheld" `Quick test_unlock_unheld_raises;
          Alcotest.test_case "ids are names only" `Quick test_ids_are_names_only;
        ] );
      ("theorems", qsuite
         [
           space_bound_prop;
           time_lower_bound_prop;
           time_upper_bound_prop;
           thread_bound_prop;
           dfd_inf_is_ws_prop;
           ws_space_envelope_prop;
           lemma31_prop;
           lemma42_prop;
           action_multiset_prop;
           locks_random_prop;
           work_conservation_prop;
         ]);
    ]

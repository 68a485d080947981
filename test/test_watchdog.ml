(* Tests for the no-progress watchdog and its integration with the
   simulation engine: the watchdog alone (fires when starved, never
   spuriously), and random programs under the costed model, whose
   cache-miss penalties and steal costs stall processors for irregular
   spans: every policy completes, Lemma 3.1 holds under that timing, runs
   are deterministic per seed, long stalls are not mistaken for deadlock,
   and a real deadlock carries the diagnostic snapshot. *)

module Watchdog = Dfd_structures.Watchdog
module Prng = Dfd_structures.Prng
module Config = Dfd_machine.Config
module Engine = Dfdeques_core.Engine
module Dag_gen = Dfd_dag.Dag_gen

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* The watchdog                                                        *)
(* ------------------------------------------------------------------ *)

let test_watchdog_quiet_when_touched () =
  let wd = Watchdog.create ~limit:10 ~snapshot:(fun () -> "snap") () in
  (* a check that raised would fail the test here *)
  for now = 1 to 200 do
    Watchdog.touch wd ~now;
    Watchdog.check wd ~now
  done;
  (* the last progress is 200: the limit holds up to 210, and 211 is one past it *)
  Watchdog.check wd ~now:210;
  checkb "fires one past last progress + limit" true
    (try
       Watchdog.check wd ~now:211;
       false
     with Watchdog.No_progress { idle; limit; _ } -> idle = 11 && limit = 10)

let test_watchdog_fires_when_starved () =
  let evals = ref 0 in
  let wd =
    Watchdog.create ~limit:10
      ~snapshot:(fun () ->
          incr evals;
          "state-at-failure")
      ()
  in
  Watchdog.touch wd ~now:5;
  for now = 5 to 15 do
    Watchdog.check wd ~now
  done;
  checki "snapshot not evaluated while healthy" 0 !evals;
  checkb "fires past the limit" true
    (try
       Watchdog.check wd ~now:16;
       false
     with Watchdog.No_progress { idle; limit; snapshot } ->
       idle = 11 && limit = 10 && snapshot = "state-at-failure");
  checki "snapshot evaluated exactly once" 1 !evals

(* ------------------------------------------------------------------ *)
(* Engine integration                                                  *)
(* ------------------------------------------------------------------ *)

let scheds : (string * Engine.sched) list =
  [ ("dfd", `Dfdeques); ("ws", `Ws); ("adf", `Adf); ("fifo", `Fifo) ]

(* A random program under the costed model ([costed = true]) or the
   unit-time analysis model, K = [k], p = 4.  Invariants are checked on
   lock-free programs only: lock wakeups approximate the priority order. *)
let run ?(costed = true) ~sched ~seed ~params ~k () =
  let prog = Dag_gen.gen_prog (Prng.create seed) params in
  let mem_threshold = Some k in
  let cfg =
    if costed then Config.costed ~p:4 ~mem_threshold ~seed ()
    else Config.analysis ~p:4 ~mem_threshold ~seed ()
  in
  Engine.run ~check_invariants:(params.Dag_gen.lock_prob = 0.0) ~sched cfg prog

(* Sixteen campaigns with deeper programs and K = 2000: per policy (index
   i in [scheds]) a lock-free run at seeds b + 1000i and a lock-heavy one
   at b + 1000i + 1, for b = 1 and 5.  Every campaign completes. *)
let check_campaigns ~lock_heavy =
  let params = if lock_heavy then Dag_gen.lock_heavy else { Dag_gen.default with max_depth = 7 } in
  List.iteri
    (fun i (name, sched) ->
       List.iter
         (fun b ->
            let seed = b + (1_000 * i) + Bool.to_int lock_heavy in
            let r = run ~sched ~seed ~params ~k:2000 () in
            checkb (Printf.sprintf "%s seed %d completes" name seed) true (r.Engine.time > 0))
         [ 1; 5 ])
    scheds

(* Under the costed model's stalls every policy completes every lock-free
   random program with its structural invariants (Lemma 3.1 for DFDeques)
   intact.  The stalls really perturb the timing: on some seed the costed
   run takes longer than the unit-time one. *)
let test_all_policies_complete_under_stalls () =
  List.iter
    (fun (name, sched) ->
       let perturbed = ref false in
       for seed = 1 to 5 do
         let r = run ~sched ~seed ~params:Dag_gen.default ~k:1000 () in
         checkb (Printf.sprintf "%s seed %d completes" name seed) true (r.Engine.time > 0);
         let unit_time = run ~costed:false ~sched ~seed ~params:Dag_gen.default ~k:1000 () in
         if r.Engine.time > unit_time.Engine.time then perturbed := true
       done;
       checkb (name ^ " costed time exceeds analysis time on some seed") true !perturbed)
    scheds;
  check_campaigns ~lock_heavy:false

(* Lock-heavy programs touch memory inside their critical sections, so a
   holder's miss stalls delay every thread queued on its mutex. *)
let test_lock_heavy_with_lock_delays () =
  List.iter
    (fun (name, sched) ->
       let r = run ~sched ~seed:11 ~params:Dag_gen.lock_heavy ~k:1000 () in
       checkb (name ^ " lock-heavy completes") true (r.Engine.time > 0))
    scheds;
  check_campaigns ~lock_heavy:true

(* The whole costed simulation is deterministic per seed. *)
let qcheck_costed_determinism =
  QCheck.Test.make ~count:20 ~name:"costed run deterministic per seed"
    QCheck.(int_bound 100_000)
    (fun seed ->
       let fingerprint () =
         let r = run ~sched:`Dfdeques ~seed ~params:Dag_gen.default ~k:1000 () in
         ( r.Engine.time, r.Engine.work, r.Engine.steals, r.Engine.heap_peak,
           r.Engine.threads_created, r.Engine.cache_misses )
       in
       fingerprint () = fingerprint ())

(* A stalled processor counts as progress ("stalled = executing"): miss
   penalties and steal costs of 50 timesteps, far beyond the watchdog's
   limit of 20, must never trip it. *)
let test_stalls_not_spurious_deadlock () =
  let prog = Dag_gen.gen_prog (Prng.create 3) Dag_gen.default in
  let cfg = Config.costed ~p:4 ~seed:3 ~miss_penalty:50 ~steal_cost:50 () in
  let r = Engine.run ~no_progress_limit:20 ~sched:`Ws cfg prog in
  checkb "completes despite long stalls" true (r.Engine.time > 0)

(* A genuine deadlock still surfaces, now with the diagnostic snapshot
   attached by the watchdog. *)
let test_deadlock_message_carries_snapshot () =
  let open Dfd_dag.Prog in
  (* recursive acquisition of a non-recursive mutex: deadlocks under any
     schedule *)
  let prog = finish (lock 0 >> lock 0 >> work 1 >> unlock 0 >> unlock 0) in
  let cfg = Config.analysis ~p:2 ~mem_threshold:None ~seed:1 () in
  checkb "deadlock with snapshot" true
    (try
       ignore (Engine.run ~no_progress_limit:50 ~sched:`Dfdeques cfg prog);
       false
     with Engine.Deadlock m ->
       let has sub =
         let n = String.length m and k = String.length sub in
         let rec go i = i + k <= n && (String.sub m i k = sub || go (i + 1)) in
         go 0
       in
       has "no progress" && has "policy" && has "memory:")

let () =
  Alcotest.run "watchdog"
    [
      ( "watchdog",
        [
          Alcotest.test_case "quiet when touched" `Quick test_watchdog_quiet_when_touched;
          Alcotest.test_case "fires when starved" `Quick test_watchdog_fires_when_starved;
        ] );
      ( "engine",
        [
          Alcotest.test_case "all policies complete under stalls" `Quick
            test_all_policies_complete_under_stalls;
          Alcotest.test_case "lock-heavy with lock delays" `Quick test_lock_heavy_with_lock_delays;
          QCheck_alcotest.to_alcotest ~long:false qcheck_costed_determinism;
          Alcotest.test_case "stalls are not deadlocks" `Quick test_stalls_not_spurious_deadlock;
          Alcotest.test_case "deadlock carries snapshot" `Quick test_deadlock_message_carries_snapshot;
        ] );
    ]

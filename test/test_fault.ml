(* Tests for the fault-injection plan, the no-progress watchdog, and their
   integration with the simulation engine: determinism per seed, graceful
   completion under faults, invariant preservation, and watchdog
   behaviour (fires when starved, never spuriously). *)

module Fault = Dfd_fault.Fault
module Watchdog = Dfd_fault.Watchdog
module Prng = Dfd_structures.Prng
module Engine = Dfdeques_core.Engine
module Dag_gen = Dfd_dag.Dag_gen

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* The injector                                                        *)
(* ------------------------------------------------------------------ *)

(* Drain a fixed decision sequence from an injector. *)
let decision_trace fault n =
  List.init n (fun _ ->
      (Fault.stall_steps fault, Fault.steal_fails fault, Fault.alloc_spike fault,
       Fault.lock_delay fault))

let test_same_seed_same_schedule () =
  let a = Fault.create ~seed:123 () and b = Fault.create ~seed:123 () in
  checkb "identical decision sequences" true (decision_trace a 500 = decision_trace b 500);
  checkb "identical counts" true (Fault.counts a = Fault.counts b);
  let c = Fault.create ~seed:124 () in
  checkb "different seed, different schedule" false
    (decision_trace a 500 = decision_trace c 500)

let test_none_never_injects () =
  let f = Fault.none in
  checkb "disabled" false (Fault.enabled f);
  for _ = 1 to 100 do
    checki "no stall" 0 (Fault.stall_steps f);
    checkb "no steal failure" false (Fault.steal_fails f);
    checki "no spike" 0 (Fault.alloc_spike f);
    checki "no lock delay" 0 (Fault.lock_delay f)
  done;
  checki "nothing counted" 0 (Fault.injected_total f)

let test_zero_rates_never_inject () =
  let f = Fault.create ~rates:Fault.zero_rates ~seed:5 () in
  checkb "enabled" true (Fault.enabled f);
  for _ = 1 to 100 do
    checki "no stall" 0 (Fault.stall_steps f);
    checkb "no steal failure" false (Fault.steal_fails f)
  done;
  checki "nothing counted" 0 (Fault.injected_total f)

let test_counts_shape () =
  let f = Fault.create ~seed:77 () in
  ignore (decision_trace f 2000);
  let counts = Fault.counts f in
  Alcotest.(check (array string))
    "the four kinds, in order"
    [| "stall"; "steal_fail"; "alloc_spike"; "lock_delay" |]
    Fault.kind_names;
  checki "one count per kind" (Array.length Fault.kind_names) (List.length counts);
  List.iteri
    (fun i (name, _) -> Alcotest.(check string) "kind order" Fault.kind_names.(i) name)
    counts;
  checki "total = sum of kinds" (List.fold_left (fun acc (_, c) -> acc + c) 0 counts)
    (Fault.injected_total f);
  checkb "default rates actually inject" true (Fault.injected_total f > 0)

(* ------------------------------------------------------------------ *)
(* The watchdog                                                        *)
(* ------------------------------------------------------------------ *)

let test_watchdog_quiet_when_touched () =
  let wd = Watchdog.create ~limit:10 ~snapshot:(fun () -> "snap") () in
  for now = 1 to 200 do
    Watchdog.touch wd ~now;
    Watchdog.check wd ~now
  done;
  checkb "never fired" false (Watchdog.fired wd);
  checki "last progress" 200 (Watchdog.last_progress wd)

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
  checkb "marked fired" true (Watchdog.fired wd);
  checki "snapshot evaluated exactly once" 1 !evals

(* ------------------------------------------------------------------ *)
(* Engine integration                                                  *)
(* ------------------------------------------------------------------ *)

let scheds : (string * Engine.sched) list =
  [ ("dfd", `Dfdeques); ("ws", `Ws); ("adf", `Adf); ("fifo", `Fifo) ]

let run_with_faults ~sched ~seed ~params ~k ~fault_seed =
  let prog = Dag_gen.gen_prog (Prng.create seed) params in
  let cfg = Dfd_machine.Config.analysis ~p:4 ~mem_threshold:(Some k) ~seed () in
  let fault = Fault.create ~seed:fault_seed () in
  (Engine.run ~check_invariants:(params.Dag_gen.lock_prob = 0.0) ~fault ~sched cfg prog, fault)

let run_default ~sched ~seed ~params =
  run_with_faults ~sched ~seed ~params ~k:1000 ~fault_seed:(seed + 1)

(* Sixteen fault campaigns with deeper programs and K = 2000: per policy
   (index i in [scheds]) a lock-free run at seeds b + 1000i and a
   lock-heavy one at b + 1000i + 1, for b = 1 and 5, each under the
   default fault plan seeded with [seed lxor 0x5eed].  Every campaign
   completes, and the set as a whole injects faults. *)
let check_campaigns ~lock_heavy =
  let params = if lock_heavy then Dag_gen.lock_heavy else { Dag_gen.default with max_depth = 7 } in
  let injected = ref 0 in
  List.iteri
    (fun i (name, sched) ->
       List.iter
         (fun b ->
            let seed = b + (1_000 * i) + Bool.to_int lock_heavy in
            let r, fault =
              run_with_faults ~sched ~seed ~params ~k:2000 ~fault_seed:(seed lxor 0x5eed)
            in
            checkb (Printf.sprintf "%s seed %d completes" name seed) true (r.Engine.time > 0);
            injected := !injected + Fault.injected_total fault)
         [ 1; 5 ])
    scheds;
  checkb "campaigns injected faults" true (!injected > 0)

(* Under the full default fault plan, every policy still completes every
   (lock-free) random program with its structural invariants intact. *)
let test_all_policies_survive_faults () =
  List.iter
    (fun (name, sched) ->
       let injected = ref 0 in
       for seed = 1 to 5 do
         let r, fault = run_default ~sched ~seed ~params:Dag_gen.default in
         checkb (Printf.sprintf "%s seed %d completes" name seed) true (r.Engine.time > 0);
         injected := !injected + Fault.injected_total fault
       done;
       (* a tiny program may see no decision points for one seed, but five
          runs with the default rates always inject somewhere *)
       checkb (name ^ " injected something across seeds") true (!injected > 0))
    scheds;
  check_campaigns ~lock_heavy:false

let test_lock_heavy_with_lock_delays () =
  List.iter
    (fun (name, sched) ->
       let r, _ = run_default ~sched ~seed:11 ~params:Dag_gen.lock_heavy in
       checkb (name ^ " lock-heavy completes") true (r.Engine.time > 0))
    scheds;
  check_campaigns ~lock_heavy:true

(* The whole simulation (faults included) is deterministic per seed. *)
let qcheck_engine_fault_determinism =
  QCheck.Test.make ~count:20 ~name:"engine fault injection deterministic per seed"
    QCheck.(int_bound 100_000)
    (fun seed ->
       let fingerprint () =
         let r, fault = run_default ~sched:`Dfdeques ~seed ~params:Dag_gen.default in
         ( r.Engine.time, r.Engine.work, r.Engine.steals, r.Engine.heap_peak,
           r.Engine.threads_created, Fault.counts fault )
       in
       fingerprint () = fingerprint ())

(* Injected stalls count as progress ("stalled = executing"): even a
   stall-heavy plan with a stall length far beyond the watchdog limit must
   never trip it. *)
let test_stalls_not_spurious_deadlock () =
  let rates = { Fault.zero_rates with Fault.stall_prob = 0.5; Fault.stall_steps = 50 } in
  let prog = Dag_gen.gen_prog (Prng.create 3) Dag_gen.default in
  let cfg = Dfd_machine.Config.analysis ~p:4 ~mem_threshold:None ~seed:3 () in
  let fault = Fault.create ~rates ~seed:4 () in
  let r = Engine.run ~fault ~no_progress_limit:20 ~sched:`Ws cfg prog in
  checkb "completes despite long stalls" true (r.Engine.time > 0)

(* A genuine deadlock still surfaces, now with the diagnostic snapshot
   attached by the watchdog. *)
let test_deadlock_message_carries_snapshot () =
  let open Dfd_dag.Prog in
  (* recursive acquisition of a non-recursive mutex: deadlocks under any
     schedule *)
  let prog = finish (lock 0 >> lock 0 >> work 1 >> unlock 0 >> unlock 0) in
  let cfg = Dfd_machine.Config.analysis ~p:2 ~mem_threshold:None ~seed:1 () in
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
  Alcotest.run "fault"
    [
      ( "injector",
        [
          Alcotest.test_case "same seed same schedule" `Quick test_same_seed_same_schedule;
          Alcotest.test_case "none never injects" `Quick test_none_never_injects;
          Alcotest.test_case "zero rates never inject" `Quick test_zero_rates_never_inject;
          Alcotest.test_case "counts shape" `Quick test_counts_shape;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "quiet when touched" `Quick test_watchdog_quiet_when_touched;
          Alcotest.test_case "fires when starved" `Quick test_watchdog_fires_when_starved;
        ] );
      ( "engine",
        [
          Alcotest.test_case "all policies survive faults" `Quick test_all_policies_survive_faults;
          Alcotest.test_case "lock-heavy with lock delays" `Quick test_lock_heavy_with_lock_delays;
          QCheck_alcotest.to_alcotest ~long:false qcheck_engine_fault_determinism;
          Alcotest.test_case "stalls are not deadlocks" `Quick test_stalls_not_spurious_deadlock;
          Alcotest.test_case "deadlock carries snapshot" `Quick test_deadlock_message_carries_snapshot;
        ] );
    ]

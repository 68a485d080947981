(* repro chaos — seeded fault-injection campaigns against every scheduler.

   Two arenas:

   - the simulator: every policy runs randomly generated programs with the
     full fault plan active (stalls, forced steal failures, allocation
     spikes, lock-hold delays).  Lock-free campaigns additionally run the
     policy's structural invariant check after every timestep; lock-heavy
     campaigns exercise the lock-delay faults (invariant checking is off
     there — mutex wakeups intentionally approximate the priority order).
     The simulator is single-threaded, so each (seed, config) pair replays
     bitwise-identically: the report is byte-stable per seed.

   - the native pool: worker interleavings are not deterministic, so the
     pool campaigns only report deterministic facts — an injected task
     exception with probability 1 always propagates to the [run] caller,
     the pool completes a clean run afterwards, a run with a tight timeout
     over endless forking always raises [Timeout], and a degraded run
     under steal-failure injection still computes the right answer. *)

module Fault = Dfd_fault.Fault
module Prng = Dfd_structures.Prng
module Json = Dfd_trace.Json
module Engine = Dfdeques_core.Engine
module Pool = Dfd_runtime.Pool
module Registry = Dfd_obs.Registry
module Headroom = Dfd_obs.Headroom

type sim_outcome =
  | Ok_run of Engine.result
  | Invariant_violation of string
  | Watchdog_deadlock of string
  | Error of string

let scheds : (string * Engine.sched) list =
  [ ("dfd", `Dfdeques); ("ws", `Ws); ("adf", `Adf); ("fifo", `Fifo) ]

(* One simulator campaign: a fresh program, config and fault plan, all
   derived from [seed] so the whole campaign replays from the report. *)
let sim_campaign ~sched ~p ~seed ~lock_heavy =
  let params =
    if lock_heavy then Dfd_dag.Dag_gen.lock_heavy
    else { Dfd_dag.Dag_gen.default with max_depth = 7 }
  in
  let prog = Dfd_dag.Dag_gen.gen_prog (Prng.create seed) params in
  let cfg =
    Dfd_machine.Config.analysis ~p ~mem_threshold:(Some 2000) ~seed ()
  in
  let fault = Fault.create ~seed:(seed lxor 0x5eed) () in
  let check_invariants = not lock_heavy in
  let outcome =
    match Engine.run ~check_invariants ~fault ~sched cfg prog with
    | r -> Ok_run r
    | exception Engine.Deadlock m -> Watchdog_deadlock m
    | exception Failure m -> Invariant_violation m
    | exception e -> Error (Printexc.to_string e)
  in
  let fields =
    [
      ("seed", Json.Int seed);
      ("program", Json.String (if lock_heavy then "lock_heavy" else "default"));
      ("check_invariants", Json.Bool check_invariants);
      ("faults", Json.Assoc (List.map (fun (k, v) -> (k, Json.Int v)) (Fault.counts fault)));
    ]
  in
  let j =
    match outcome with
    | Ok_run r ->
      Json.Assoc
        (fields
         @ [
             ("outcome", Json.String "ok");
             ("time", Json.Int r.Engine.time);
             ("work", Json.Int r.Engine.work);
             ("steals", Json.Int r.Engine.steals);
             ("heap_peak", Json.Int r.Engine.heap_peak);
           ])
    | Invariant_violation m ->
      Json.Assoc (fields @ [ ("outcome", Json.String "invariant_violation"); ("detail", Json.String m) ])
    | Watchdog_deadlock m ->
      Json.Assoc (fields @ [ ("outcome", Json.String "deadlock"); ("detail", Json.String m) ])
    | Error m -> Json.Assoc (fields @ [ ("outcome", Json.String "error"); ("detail", Json.String m) ])
  in
  (outcome, Fault.injected_total fault, j)

(* ------------------------------------------------------------------ *)
(* Native pool campaigns (deterministic facts only)                    *)
(* ------------------------------------------------------------------ *)

let pool_policies = [ ("ws", Pool.Work_stealing); ("dfd", Pool.Dfdeques { quota = 4096 }) ]

let with_pool ?fault policy f =
  let pool = Pool.create ~domains:3 ?fault policy in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let expected_sum n = n * (n - 1) / 2

let clean_sum pool n =
  Pool.run pool (fun () ->
      Pool.parallel_reduce ~zero:0 ~op:( + ) ~lo:0 ~hi:n (fun i -> i))
  = expected_sum n

(* task_exn_prob = 1.0: the very first fork injects, so the exception
   always reaches the caller of [run] — a deterministic boolean. *)
let pool_exn_campaign ~seed policy =
  let rates = { Fault.zero_rates with Fault.task_exn_prob = 1.0 } in
  let fault = Fault.create ~rates ~seed () in
  with_pool ~fault policy (fun pool ->
      let propagates =
        match Pool.run pool (fun () -> Pool.fork_join (fun () -> 1) (fun () -> 2)) with
        | _ -> false
        | exception Fault.Injected_failure _ -> true
        | exception _ -> false
      in
      Fault.set_enabled fault false;
      let clean_after = clean_sum pool 500 in
      (propagates, clean_after))

(* A tight timeout over endless forking: cancellation is checked at every
   fork, so [Timeout] always fires; the drained pool then completes a
   clean run. *)
let pool_timeout_campaign policy =
  with_pool policy (fun pool ->
      let fired =
        match
          Pool.run ~timeout:0.05 pool (fun () ->
              let rec loop () =
                ignore (Pool.fork_join (fun () -> ()) (fun () -> ()));
                loop ()
              in
              loop ())
        with
        | () -> false
        | exception Pool.Timeout -> true
        | exception _ -> false
      in
      let clean_after = clean_sum pool 500 in
      (fired, clean_after))

(* Steal failures injected at the default rate: graceful degradation means
   the answer is still right. *)
let pool_degraded_campaign ~seed policy =
  let rates = { Fault.zero_rates with Fault.steal_fail_prob = 0.5 } in
  let fault = Fault.create ~rates ~seed () in
  with_pool ~fault policy (fun pool -> clean_sum pool 2000)

(* Lock-free-WS-specific: with every steal forced to fail (probability 1),
   progress can only come from the owner-side lock-free Chase–Lev path —
   the computation must still complete correctly, and the successful-steal
   counter must be exactly 0 (an injected failure fires before any victim
   deque is touched).  Both facts are deterministic booleans, so the
   byte-identical-report guarantee is preserved. *)
let pool_ws_lockfree_campaign ~seed =
  let rates = { Fault.zero_rates with Fault.steal_fail_prob = 1.0 } in
  let fault = Fault.create ~rates ~seed:(seed lxor 0x10cf) () in
  with_pool ~fault Pool.Work_stealing (fun pool ->
      let owner_only_correct = clean_sum pool 2000 in
      let zero_steals = (Pool.counters pool).Pool.steals = 0 in
      ( owner_only_correct && zero_steals,
        Json.Assoc
          [
            ("policy", Json.String "ws_lockfree");
            ("owner_only_correct", Json.Bool owner_only_correct);
            ("zero_steals_under_total_injection", Json.Bool zero_steals);
          ] ))

(* --- per-worker crash-domain campaign (--crash) --------------------- *)

(* Parallel mergesort on the pool: enough forked tasks that the worker
   domains are certain to take some — which is what arms the seeded
   crash below. *)
let merge l r =
  let nl = Array.length l and nr = Array.length r in
  let out = Array.make (nl + nr) 0 in
  let i = ref 0 and j = ref 0 in
  for k = 0 to nl + nr - 1 do
    if !i < nl && (!j >= nr || l.(!i) <= r.(!j)) then begin
      out.(k) <- l.(!i);
      incr i
    end
    else begin
      out.(k) <- r.(!j);
      incr j
    end
  done;
  out

let rec psort a =
  let n = Array.length a in
  if n <= 256 then begin
    Array.sort compare a;
    a
  end
  else begin
    let mid = n / 2 in
    let left = Array.sub a 0 mid and right = Array.sub a mid (n - mid) in
    let l, r = Pool.fork_join (fun () -> psort left) (fun () -> psort right) in
    merge l r
  end

(* Seeded worker crash mid-sort.  The logical take-clock trigger fires on
   the first top-level take by a worker domain (>= 1), which dies holding
   the task; a peer quarantines the slot, requeues the held task through
   the orphan stack and (under DFDeques) abandons the dead owner's deque.
   Every reported fact is deterministic even though the crash's victim
   and interleaving are not: the sort still returns the right answer at
   p-1, exactly one quarantine episode with exactly one requeue is on the
   lineage ledger, the ledger audits clean (no task lost, none run
   twice), the live Theorem-4.4 budget gauge agrees with the degraded-p
   formula, and spending the respawn budget restores full strength for a
   clean second run. *)
let pool_crash_campaign ~seed (name, policy) =
  let domains = 3 in
  let p = domains + 1 in
  let rates = { Fault.zero_rates with Fault.worker_crash = Some 1 } in
  let fault = Fault.create ~rates ~seed () in
  let s1 = 4096 and depth = 16 and c = 8 in
  let k = match policy with Pool.Dfdeques { quota } -> quota | Pool.Work_stealing -> s1 in
  let registry = Registry.create () in
  let headroom = Headroom.create ~registry ~policy:name ~c ~s1 ~depth ~p ~k () in
  let pool = Pool.create ~domains ~fault ~respawn_budget:1 policy in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
       let n = 20_000 in
       let input = Array.init n (fun i -> i * 106_039 land 0xffff) in
       let expect = Array.copy input in
       Array.sort compare expect;
       (* The crash is armed on a worker domain's first top-level take.
          Under load the caller can finish a whole sort before any worker
          domain takes, so the checked sort is repeated until the crash
          has fired, at most [max_rounds] times; every round must sort. *)
       let max_rounds = 20 in
       let fired () = List.assoc "worker_crash" (Fault.counts fault) = 1 in
       let rec sort_rounds round =
         let ok = Pool.run pool (fun () -> psort (Array.copy input)) = expect in
         if ok && (not (fired ())) && round < max_rounds then sort_rounds (round + 1) else ok
       in
       let sorted_ok = sort_rounds 1 in
       let crash_fired = fired () in
       let quarantine_ok = Pool.quarantines pool = 1 in
       let degraded_ok = Pool.degraded_p pool = p - 1 in
       let requeue_ok =
         List.length (List.filter (fun e -> e.Pool.requeued) (Pool.lineage pool)) = 1
       in
       let lineage_ok = Pool.verify_lineage pool = Ok () in
       Headroom.set_p headroom (Pool.degraded_p pool);
       let headroom_ok = Headroom.budget headroom = s1 + (c * min k s1 * (p - 1) * depth) in
       let victim =
         match Pool.lineage pool with e :: _ -> e.Pool.worker | [] -> 0
       in
       let respawn_ok = victim > 0 && Pool.respawn_worker pool victim in
       let restored_ok = Pool.degraded_p pool = p in
       let clean_after = clean_sum pool 2000 in
       let lineage_after_ok = Pool.verify_lineage pool = Ok () in
       let passed =
         sorted_ok && crash_fired && quarantine_ok && degraded_ok && requeue_ok && lineage_ok
         && headroom_ok && respawn_ok && restored_ok && clean_after && lineage_after_ok
       in
       let injected = List.fold_left (fun a (_, n) -> a + n) 0 (Fault.counts fault) in
       ( passed,
         injected,
         Json.Assoc
           [
             ("policy", Json.String name);
             ("sorted_at_degraded_p", Json.Bool sorted_ok);
             ("crash_fired_once", Json.Bool crash_fired);
             ("exactly_one_quarantine", Json.Bool quarantine_ok);
             ("degraded_p_is_p_minus_1", Json.Bool degraded_ok);
             ("held_task_requeued_exactly_once", Json.Bool requeue_ok);
             ("lineage_audit_ok", Json.Bool lineage_ok);
             ("headroom_budget_matches_degraded_p", Json.Bool headroom_ok);
             ("respawn_under_budget", Json.Bool respawn_ok);
             ("full_strength_restored", Json.Bool restored_ok);
             ("clean_run_after_respawn", Json.Bool clean_after);
             ("lineage_audit_after_respawn_ok", Json.Bool lineage_after_ok);
           ] ))

let pool_report ~seed (name, policy) =
  let exn_propagates, clean_after_exn = pool_exn_campaign ~seed policy in
  let timeout_fires, clean_after_timeout = pool_timeout_campaign policy in
  let degraded_ok = pool_degraded_campaign ~seed policy in
  let passed =
    exn_propagates && clean_after_exn && timeout_fires && clean_after_timeout && degraded_ok
  in
  ( passed,
    Json.Assoc
      [
        ("policy", Json.String name);
        ("injected_exn_propagates", Json.Bool exn_propagates);
        ("clean_run_after_exn", Json.Bool clean_after_exn);
        ("timeout_fires", Json.Bool timeout_fires);
        ("clean_run_after_timeout", Json.Bool clean_after_timeout);
        ("degraded_run_correct", Json.Bool degraded_ok);
      ] )

(* ------------------------------------------------------------------ *)
(* The campaign driver                                                 *)
(* ------------------------------------------------------------------ *)

let run_chaos ~seed ~campaigns ~p ~json_out ~skip_pool ~crash =
  let ok = ref 0
  and invariants = ref 0
  and deadlocks = ref 0
  and errors = ref 0
  and faults = ref 0 in
  let sim_json =
    List.mapi
      (fun si (name, sched) ->
         let runs =
           List.init campaigns (fun i ->
               let seed_i = seed + (1_000 * si) + i in
               let lock_heavy = i mod 2 = 1 in
               let outcome, injected, j = sim_campaign ~sched ~p ~seed:seed_i ~lock_heavy in
               (match outcome with
                | Ok_run _ -> incr ok
                | Invariant_violation _ -> incr invariants
                | Watchdog_deadlock _ -> incr deadlocks
                | Error _ -> incr errors);
               faults := !faults + injected;
               j)
         in
         Printf.printf "sim  %-4s %d campaigns done\n%!" name campaigns;
         Json.Assoc [ ("sched", Json.String name); ("runs", Json.List runs) ])
      scheds
  in
  let pool_passed, pool_json =
    if skip_pool then (true, [])
    else begin
      let results = List.map (pool_report ~seed) pool_policies in
      List.iter2
        (fun (name, _) (passed, _) ->
           Printf.printf "pool %-4s %s\n%!" name (if passed then "ok" else "FAILED"))
        pool_policies results;
      let lf_passed, lf_json = pool_ws_lockfree_campaign ~seed in
      Printf.printf "pool ws-lockfree %s\n%!" (if lf_passed then "ok" else "FAILED");
      ( List.for_all fst results && lf_passed,
        List.map snd results @ [ lf_json ] )
    end
  in
  let crash_passed, crash_json =
    if not crash then (true, None)
    else begin
      let results = List.map (pool_crash_campaign ~seed) pool_policies in
      List.iter2
        (fun (name, _) (passed, injected, _) ->
           faults := !faults + injected;
           Printf.printf "crash %-4s %s\n%!" name (if passed then "ok" else "FAILED"))
        pool_policies results;
      ( List.for_all (fun (passed, _, _) -> passed) results,
        Some (Json.List (List.map (fun (_, _, j) -> j) results)) )
    end
  in
  let sim_total = List.length scheds * campaigns in
  let all_passed =
    !ok = sim_total && !invariants = 0 && !deadlocks = 0 && !errors = 0 && pool_passed
    && crash_passed
  in
  let report =
    Json.Assoc
      ([
         ("seed", Json.Int seed);
         ("campaigns_per_sched", Json.Int campaigns);
         ("p", Json.Int p);
         ("simulator", Json.List sim_json);
         ("pool", Json.List pool_json);
       ]
       @ (match crash_json with Some j -> [ ("crash", j) ] | None -> [])
       @ [
           ( "summary",
             Json.Assoc
               ([
                  ("sim_runs", Json.Int sim_total);
                  ("ok", Json.Int !ok);
                  ("invariant_violations", Json.Int !invariants);
                  ("deadlocks", Json.Int !deadlocks);
                  ("errors", Json.Int !errors);
                  ("faults_injected", Json.Int !faults);
                  ("pool_passed", Json.Bool pool_passed);
                ]
                @ (if crash then [ ("crash_passed", Json.Bool crash_passed) ] else [])
                @ [ ("all_passed", Json.Bool all_passed) ]) );
         ])
  in
  (match json_out with
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
     Printf.printf "report: %s\n" path);
  Printf.printf
    "chaos: %d simulator runs (%d ok, %d invariant violations, %d deadlocks, %d errors), %d \
     faults injected, pool %s\n"
    sim_total !ok !invariants !deadlocks !errors !faults
    (if skip_pool then "skipped" else if pool_passed then "ok" else "FAILED");
  if all_passed then begin
    print_endline "chaos: PASS";
    0
  end
  else begin
    print_endline "chaos: FAIL";
    1
  end

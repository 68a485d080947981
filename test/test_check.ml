(* Tests for the systematic concurrency checker (lib/check).

   The headline property: a deliberately injected ordering bug — the
   non-atomic top check/store in Buggy_lfdeque.steal — is found by the
   explorer within its default budget, shrunk to a short decision trace,
   and that trace reproduces through the replay machinery.  The correct
   scenarios must pass, reports must be deterministic functions of the
   seed, and the theorem oracles must hold on random programs across
   every scheduler. *)

module Explore = Dfd_check.Explore
module Scenarios = Dfd_check.Scenarios
module Oracle = Dfd_check.Oracle
module Schedpoint = Dfd_structures.Schedpoint
module Prng = Dfd_structures.Prng
module Dag_gen = Dfd_dag.Dag_gen
module Config = Dfd_machine.Config

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Explorer: injected bug detection, shrinking, replay, determinism    *)
(* ------------------------------------------------------------------ *)

(* Any seed works eventually; this one fails within a few iterations so
   the test stays fast even with shrinking replays on top. *)
let buggy_seed = 5

let test_buggy_caught () =
  let r = Explore.run ~seed:buggy_seed Scenarios.buggy in
  match r.Explore.r_failure with
  | None -> Alcotest.fail "explorer missed the injected steal-commit race"
  | Some f ->
    checkb "found within default budget" true (r.Explore.r_iterations <= r.Explore.r_budget);
    checkb "shrunk" true f.Explore.f_shrunk;
    checkb "minimal trace nonempty" true (f.Explore.f_choices <> []);
    checkb "minimal trace short" true (List.length f.Explore.f_choices <= 16);
    checkb "double delivery is the reason" true
      (String.starts_with ~prefix:"delivery" f.Explore.f_reason);
    (* f_points names the yield points of the whole confirming replay
       (minimal choices plus deterministic fallback tail), so it is at
       least as long as the choice list *)
    checkb "point trace covers the choices" true
      (List.length f.Explore.f_points >= List.length f.Explore.f_choices)

let test_buggy_deterministic () =
  let r1 = Explore.run ~seed:buggy_seed Scenarios.buggy in
  let r2 = Explore.run ~seed:buggy_seed Scenarios.buggy in
  checkb "same seed gives an identical report (failure trace included)" true (r1 = r2)

let test_replay_roundtrip () =
  let r = Explore.run ~seed:buggy_seed Scenarios.buggy in
  let f = Option.get r.Explore.r_failure in
  (match Explore.replay Scenarios.buggy f with
   | Some _reason -> ()
   | None -> Alcotest.fail "minimal trace did not reproduce the failure");
  (* the on-disk replay format must carry everything replay needs *)
  let path = Filename.temp_file "replay" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Explore.write_replay path f;
      let f' = Explore.read_replay path in
      checkb "replay file roundtrips" true (f = f');
      checkb "replay from file reproduces" true
        (Explore.replay Scenarios.buggy f' <> None));
  (* with no recorded decisions the chooser falls back to the serial
     schedule (lowest enabled thread), which never triggers the race *)
  let serial = { f with Explore.f_choices = []; f_points = [] } in
  checkb "serial fallback schedule passes" true
    (Explore.replay Scenarios.buggy serial = None)

let test_replay_rejects_wrong_scenario () =
  let r = Explore.run ~seed:buggy_seed Scenarios.buggy in
  let f = Option.get r.Explore.r_failure in
  checkb "scenario-name mismatch rejected" true
    (match Explore.replay Scenarios.lfdeque_ops f with
     | exception Invalid_argument _ -> true
     | _ -> false)

(* Same headline property for the multiq planted bug (torn membership on
   remove): found, shrunk, and reproducible through a replay file.  Seed
   chosen so the failure lands within a few iterations. *)
let multiq_buggy_seed = 2

let test_multiq_buggy_caught () =
  let r = Explore.run ~seed:multiq_buggy_seed Scenarios.multiq_buggy in
  match r.Explore.r_failure with
  | None -> Alcotest.fail "explorer missed the torn multiq remove"
  | Some f ->
    checkb "found within default budget" true (r.Explore.r_iterations <= r.Explore.r_budget);
    checkb "shrunk" true f.Explore.f_shrunk;
    checkb "minimal trace nonempty" true (f.Explore.f_choices <> []);
    checkb "minimal trace short" true (List.length f.Explore.f_choices <= 16);
    checkb "torn membership is the reason" true
      (String.length f.Explore.f_reason > 0
       && String.sub f.Explore.f_reason 0 (min 10 (String.length f.Explore.f_reason))
          = "membership");
    let path = Filename.temp_file "replay_multiq" ".json" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Explore.write_replay path f;
        let f' = Explore.read_replay path in
        checkb "replay file roundtrips" true (f = f');
        checkb "replay from file reproduces" true
          (Explore.replay Scenarios.multiq_buggy f' <> None));
    (* the serial fallback schedule never opens the remove window *)
    let serial = { f with Explore.f_choices = []; f_points = [] } in
    checkb "serial fallback schedule passes" true
      (Explore.replay Scenarios.multiq_buggy serial = None)

(* The planted parking bug (scan before announce): the lost wake-up is
   found, shrunk, and reproducible through a replay file.  Seed chosen so
   the failure lands within a few iterations. *)
let park_buggy_seed = 2

let test_park_buggy_caught () =
  let r = Explore.run ~seed:park_buggy_seed Scenarios.pool_park_buggy in
  match r.Explore.r_failure with
  | None -> Alcotest.fail "explorer missed the scan-before-announce lost wake-up"
  | Some f ->
    checkb "found within default budget" true (r.Explore.r_iterations <= r.Explore.r_budget);
    checkb "shrunk" true f.Explore.f_shrunk;
    checkb "minimal trace nonempty" true (f.Explore.f_choices <> []);
    checkb "minimal trace short" true (List.length f.Explore.f_choices <= 16);
    checkb "lost wake-up is the reason" true
      (String.starts_with ~prefix:"lost wake-up" f.Explore.f_reason);
    let path = Filename.temp_file "replay_park" ".json" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Explore.write_replay path f;
        let f' = Explore.read_replay path in
        checkb "replay file roundtrips" true (f = f');
        checkb "replay from file reproduces" true
          (Explore.replay Scenarios.pool_park_buggy f' <> None));
    (* the serial fallback runs the pusher to completion first, so the
       parker's scan sees the task *)
    let serial = { f with Explore.f_choices = []; f_points = [] } in
    checkb "serial fallback schedule passes" true
      (Explore.replay Scenarios.pool_park_buggy serial = None);
    (* the correct announce-then-scan step passes the very trace that
       breaks the twin *)
    checkb "real park_step passes the failing trace" true
      (Explore.replay Scenarios.pool_park { f with Explore.f_scenario = "pool_park" } = None)

(* The planted join bug (a branch whose promise is still unwritten runs
   inline): the double run is found by the per-fork run counter, shrunk,
   and reproducible through a replay file.  Seed chosen so the failure
   lands within the default budget. *)
let join_buggy_seed = 14

let test_join_buggy_caught () =
  let r = Explore.run ~seed:join_buggy_seed Scenarios.pool_join_buggy in
  match r.Explore.r_failure with
  | None -> Alcotest.fail "explorer missed the Pending-means-unstolen double run"
  | Some f ->
    checkb "found within default budget" true (r.Explore.r_iterations <= r.Explore.r_budget);
    checkb "shrunk" true f.Explore.f_shrunk;
    checkb "minimal trace nonempty" true (f.Explore.f_choices <> []);
    checkb "minimal trace short" true (List.length f.Explore.f_choices <= 24);
    checkb "a double run is the reason" true
      (String.starts_with ~prefix:"exactly-once broken" f.Explore.f_reason);
    let path = Filename.temp_file "replay_join" ".json" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Explore.write_replay path f;
        let f' = Explore.read_replay path in
        checkb "replay file roundtrips" true (f = f');
        checkb "replay from file reproduces" true
          (Explore.replay Scenarios.pool_join_buggy f' <> None));
    (* the serial fallback runs the forking worker to completion first,
       so nothing is ever stolen *)
    let serial = { f with Explore.f_choices = []; f_points = [] } in
    checkb "serial fallback schedule passes" true
      (Explore.replay Scenarios.pool_join_buggy serial = None);
    (* the real join, which trusts only its pop, passes the same seed and
       budget.  (Replaying the failing trace itself cannot finish: past
       its end the fallback always picks the forking worker, which then
       awaits a thief that is never scheduled.) *)
    let real = Explore.run ~seed:join_buggy_seed Scenarios.pool_ws in
    checkb "real fork_join passes the same seed" true (real.Explore.r_failure = None);
    checki "real fork_join: full budget used" real.Explore.r_budget real.Explore.r_iterations

(* The planted request bug (an owner that clears a request and
   publishes nothing): the livelock is found as an exceeded step budget,
   shrunk, and reproducible through a replay file.  Seed chosen so the
   failure lands within a few iterations. *)
let request_buggy_seed = 1

let test_request_buggy_caught () =
  let r = Explore.run ~seed:request_buggy_seed Scenarios.pool_request_buggy in
  match r.Explore.r_failure with
  | None -> Alcotest.fail "explorer missed the dropped request"
  | Some f ->
    checkb "found within default budget" true (r.Explore.r_iterations <= r.Explore.r_budget);
    checkb "shrunk" true f.Explore.f_shrunk;
    checkb "minimal trace nonempty" true (f.Explore.f_choices <> []);
    checkb "minimal trace short" true (List.length f.Explore.f_choices <= 16);
    checkb "the step budget is the reason" true
      (String.starts_with ~prefix:"step budget exceeded" f.Explore.f_reason);
    let path = Filename.temp_file "replay_request" ".json" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Explore.write_replay path f;
        let f' = Explore.read_replay path in
        checkb "replay file roundtrips" true (f = f');
        checkb "replay from file reproduces" true
          (Explore.replay Scenarios.pool_request_buggy f' <> None));
    (* the serial fallback runs the owner alone: no request is ever
       raised, and it joins its own branch *)
    let serial = { f with Explore.f_choices = []; f_points = [] } in
    checkb "serial fallback schedule passes" true
      (Explore.replay Scenarios.pool_request_buggy serial = None);
    (* the real boundary answers the very request the twin drops *)
    checkb "real boundary passes the failing trace" true
      (Explore.replay Scenarios.pool_request { f with Explore.f_scenario = "pool_request" }
       = None)

(* The planted recall bug (broadcast, then flag): the recalled domain
   asleep in its old pool is found, shrunk, and reproducible through a
   replay file.  Seed chosen so the failure lands within a few
   iterations. *)
let recall_buggy_seed = 1

let test_recall_buggy_caught () =
  let r = Explore.run ~seed:recall_buggy_seed Scenarios.pool_recall_buggy in
  match r.Explore.r_failure with
  | None -> Alcotest.fail "explorer missed the broadcast-before-flag recall"
  | Some f ->
    checkb "found within default budget" true (r.Explore.r_iterations <= r.Explore.r_budget);
    checkb "shrunk" true f.Explore.f_shrunk;
    checkb "minimal trace nonempty" true (f.Explore.f_choices <> []);
    checkb "minimal trace short" true (List.length f.Explore.f_choices <= 16);
    checkb "a recalled domain asleep is the reason" true
      (String.starts_with ~prefix:"recalled domain asleep" f.Explore.f_reason);
    let path = Filename.temp_file "replay_recall" ".json" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Explore.write_replay path f;
        let f' = Explore.read_replay path in
        checkb "replay file roundtrips" true (f = f');
        checkb "replay from file reproduces" true
          (Explore.replay Scenarios.pool_recall_buggy f' <> None));
    (* the serial fallback runs the recaller to completion first, so the
       parker's scan sees the flag *)
    let serial = { f with Explore.f_choices = []; f_points = [] } in
    checkb "serial fallback schedule passes" true
      (Explore.replay Scenarios.pool_recall_buggy serial = None);
    (* the real flag-then-broadcast recall passes the very trace that
       breaks the twin *)
    checkb "real recall passes the failing trace" true
      (Explore.replay Scenarios.pool_recall { f with Explore.f_scenario = "pool_recall" } = None)

let test_correct_scenarios_pass () =
  List.iter
    (fun sc ->
      let r = Explore.run ~budget:30 ~seed:7 sc in
      (match r.Explore.r_failure with
       | Some f ->
         Alcotest.failf "%s failed at iteration %d: %s" sc.Explore.name
           f.Explore.f_iteration f.Explore.f_reason
       | None -> ());
      checki (sc.Explore.name ^ ": full budget used") 30 r.Explore.r_iterations)
    Scenarios.all;
  checkb "yield-point handler uninstalled after runs" false (Schedpoint.active ())

(* The deque scenarios the CI seed matrix runs, at its budget: both
   policies' deque must pass the grow and max_int-wrap races. *)
let test_passes_ci_seeds sc () =
  List.iter
    (fun seed ->
      let r = Explore.run ~budget:150 ~seed sc in
      match r.Explore.r_failure with
      | Some f ->
        Alcotest.failf "%s seed %d failed at iteration %d: %s" sc.Explore.name seed
          f.Explore.f_iteration f.Explore.f_reason
      | None ->
        checki (Printf.sprintf "seed %d: full budget used" seed) 150 r.Explore.r_iterations)
    [ 1; 2; 3 ]

(* [all] holds every correct deque scenario and no planted bug; the
   catalogue is the planted bugs followed by [all], each found by name. *)
let test_catalogue () =
  let names l = List.map (fun sc -> sc.Explore.name) l in
  let all = names Scenarios.all in
  checki "scenario names distinct" (List.length all) (List.length (List.sort_uniq compare all));
  List.iter
    (fun n -> checkb (n ^ " in all") true (List.mem n all))
    [
      "lfdeque_ops";
      "lfdeque_grow";
      "lfdeque_wrap";
      "lfdeque_abandon";
      "lfdeque_reap";
      "pool_park";
      "pool_request";
      "pool_recall";
    ];
  List.iter
    (fun n -> checkb (n ^ " kept out of all") false (List.mem n all))
    [
      "lfdeque_buggy";
      "multiq_buggy";
      "pool_park_buggy";
      "pool_join_buggy";
      "pool_request_buggy";
      "pool_recall_buggy";
    ];
  checkb "the headline buggy scenario is lfdeque_buggy" true
    (Scenarios.buggy.Explore.name = "lfdeque_buggy");
  checkb "catalogue = planted bugs @ all" true
    (names Scenarios.catalogue
     = [
         "multiq_buggy";
         "lfdeque_buggy";
         "pool_park_buggy";
         "pool_join_buggy";
         "pool_request_buggy";
         "pool_recall_buggy";
       ]
       @ all);
  List.iter
    (fun n ->
      checkb (n ^ " found by name") true
        (Option.map (fun sc -> sc.Explore.name) (Scenarios.find n) = Some n))
    (names Scenarios.catalogue)

(* ------------------------------------------------------------------ *)
(* Schedpoint coverage: the yield-point registry must not silently rot  *)
(* ------------------------------------------------------------------ *)

module Lfdeque = Dfd_structures.Lfdeque
module Multiq = Dfd_structures.Multiq
module Pool = Dfd_runtime.Pool
module Buggy_lfdeque = Dfd_check.Buggy_lfdeque
module Buggy_multiq = Dfd_check.Buggy_multiq

(* Number of registered point ids, discovered by walking the name table
   until it falls back to the "p%d" rendering of an unknown id.  Walking
   instead of hard-coding means a new id added without a name entry (or
   vice versa) trips the roundtrip check below rather than hiding. *)
let registered_points =
  let rec go i = if Schedpoint.of_name (Schedpoint.name i) = Some i then go (i + 1) else i in
  go 0

let test_point_ids_distinct () =
  checkb "all known ids registered" true (registered_points >= 26);
  let names = List.init registered_points Schedpoint.name in
  checki "names pairwise distinct" registered_points
    (List.length (List.sort_uniq compare names));
  List.iteri
    (fun i n -> checkb (n ^ " roundtrips through of_name") true (Schedpoint.of_name n = Some i))
    names

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Every yield point must appear, by name, in DESIGN.md's yield-point
   map — a rename or an undocumented addition fails here. *)
let test_points_documented () =
  let design = In_channel.with_open_text "../DESIGN.md" In_channel.input_all in
  for id = 0 to registered_points - 1 do
    checkb
      (Printf.sprintf "point %d (%s) documented in DESIGN.md" id (Schedpoint.name id))
      true
      (contains_substring design (Schedpoint.name id))
  done

(* Every id is actually emitted by the instrumented code: install a
   recording handler (not an explorer session — [Explore.with_session]
   owns the handler slot, so this drives the structures directly) and
   walk each structure through the operations that carry its points.

   [start] is the one exemption: it is a pseudo-point emitted by the
   explorer itself to park controlled threads before their first step,
   not by any instrumented structure, and explorer sessions cannot nest
   under a recording handler. *)
let test_points_hit () =
  let seen = Array.init (registered_points + 1) (fun _ -> Atomic.make false) in
  let record id = if id >= 0 && id < Array.length seen then Atomic.set seen.(id) true in
  Schedpoint.install record;
  Fun.protect ~finally:Schedpoint.uninstall (fun () ->
      (* Lfdeque: push/grow/steal/pop, the last-element race, then the
         ownership lifecycle *)
      let lq = Lfdeque.create ~min_capacity:2 ~owner:0 () in
      List.iter (Lfdeque.push lq) [ 1; 2; 3 ];
      ignore (Lfdeque.steal lq);
      ignore (Lfdeque.pop lq);
      ignore (Lfdeque.pop lq);
      Lfdeque.abandon lq;
      ignore (Lfdeque.is_dead lq);
      (* the buggy variants own the commit-window points *)
      let blq = Buggy_lfdeque.create () in
      Buggy_lfdeque.push blq 1;
      ignore (Buggy_lfdeque.steal blq);
      let bm = Buggy_multiq.create () in
      let be = Buggy_multiq.insert bm 0 in
      ignore (Buggy_multiq.remove bm be);
      (* multiq membership and sampling *)
      let m = Multiq.create ~shards:2 () in
      let e = Multiq.insert_front m 0 in
      let e' = Multiq.insert_after m e 1 in
      ignore (Multiq.sample m 0 1);
      ignore (Multiq.remove m e);
      ignore (Multiq.remove m e');
      (* pool points, including a deterministic await: the forked task
         [fa] is stolen by a helper domain and holds its promise open
         until the parent's await loop has emitted [pool_await], so the
         slow path is taken every run, not by luck.  The parent's second
         branch keeps forking while it waits, so it passes a boundary
         after the helper's request ([pool_request]) and answers it
         ([pool_respond]) by publishing [fa].  Spin-waits are bounded:
         if the handshake wedges, the task returns and the coverage
         assertion fails instead of the test hanging. *)
      let pool = Pool.For_testing.create_detached ~workers:2 Pool.Work_stealing in
      let stolen = Atomic.make false in
      let finished = Atomic.make false in
      let bounded_spin cond =
        let spins = ref 0 in
        while (not (cond ())) && !spins < 200_000_000 do
          incr spins;
          Domain.cpu_relax ()
        done
      in
      let helper =
        Domain.spawn (fun () ->
            Pool.For_testing.as_worker pool 1 (fun () ->
                while not (Atomic.get finished) do
                  ignore (Pool.For_testing.help pool 1);
                  Domain.cpu_relax ()
                done))
      in
      Pool.For_testing.as_worker pool 0 (fun () ->
          let a, b =
            Pool.fork_join
              (fun () ->
                Atomic.set stolen true;
                bounded_spin (fun () -> Atomic.get seen.(Schedpoint.pool_await));
                1)
              (fun () ->
                bounded_spin (fun () ->
                    ignore (Pool.fork_join ignore ignore);
                    Atomic.get stolen);
                2)
          in
          checki "handshake fork_join result" 3 (a + b));
      Atomic.set finished true;
      Domain.join helper;
      (* a parking step on the idle pool: announce, then scan.  Only
         after the handshake: the announce stays up, and while a worker
         is announced the parent publishes [fa] unasked, so the helper
         would steal it without ever requesting. *)
      ignore (Pool.For_testing.park_step pool 1);
      (* a recall of slot 1 by a run of another pool: flag, then broadcast *)
      Pool.For_testing.recall pool 1;
      (* the pool scenarios' leaf work *)
      Dfd_check.Scenarios.work ());
  for id = 0 to registered_points - 1 do
    if id <> Schedpoint.start then
      checkb
        (Printf.sprintf "point %d (%s) hit" id (Schedpoint.name id))
        true
        (Atomic.get seen.(id))
  done;
  checkb "start is the only exemption" true (Schedpoint.start = 0)

(* ------------------------------------------------------------------ *)
(* Theorem oracles                                                     *)
(* ------------------------------------------------------------------ *)

let test_lemma31_oracle () =
  for seed = 0 to 4 do
    let rng = Prng.create (seed + 900) in
    let prog = Dag_gen.gen_prog rng Dag_gen.fork_heavy in
    match Oracle.lemma31 ~seed ~p:4 ~k:128 prog with
    | Ok () -> ()
    | Error m -> Alcotest.failf "lemma31 (seed %d): %s" seed m
  done

let test_thm44_oracle () =
  let rng = Prng.create 41 in
  let prog = Dag_gen.gen_prog rng Dag_gen.allocation_heavy in
  let rep = Oracle.thm44 ~seed:41 ~p:4 ~k:256 prog in
  checkb "bound holds" true rep.Oracle.ok;
  checkb "bound dominates serial space" true (rep.Oracle.bound >= rep.Oracle.s1);
  (match Oracle.thm44_result rep with
   | Ok () -> ()
   | Error m -> Alcotest.failf "thm44_result on ok report: %s" m);
  let broken = { rep with Oracle.ok = false } in
  checkb "violations render as Error" true (Result.is_error (Oracle.thm44_result broken))

(* Satellite: every policy's final memory accounting must match an
   independent recomputation from the executed-action stream, for finite
   and infinite thresholds alike. *)
let space_accounting_prop =
  QCheck.Test.make
    ~name:"accounting: engine heap counters match recomputation from the trace" ~count:24
    QCheck.(triple small_int (int_range 1 6) bool)
    (fun (seed, p, finite) ->
      let rng = Prng.create (seed + 300) in
      let prog = Dag_gen.gen_prog rng Dag_gen.allocation_heavy in
      let mem_threshold = if finite then Some 128 else None in
      let cfg = Config.analysis ~p ~mem_threshold ~seed () in
      List.for_all
        (fun sched ->
          match Oracle.space_accounting ~sched cfg prog with
          | Ok () -> true
          | Error m -> QCheck.Test.fail_reportf "%s (seed=%d p=%d)" m seed p)
        [ `Ws; `Dfdeques; `Adf; `Fifo ])

(* The cross-implementation oracle: serial 1DF, all four simulated
   policies and the real pool agree on every observable total.  Pure
   nested-parallel programs only (lock_prob = 0). *)
let pure_params = { Dag_gen.default with Dag_gen.lock_prob = 0.0 }

let differential_prop =
  QCheck.Test.make ~name:"differential: serial = simulators = native pool" ~count:12
    QCheck.small_int
    (fun seed ->
      let rng = Prng.create (seed + 70) in
      let prog = Dag_gen.gen_prog rng pure_params in
      match Oracle.differential ~seed ~pool_domains:2 prog with
      | Ok () -> true
      | Error m -> QCheck.Test.fail_reportf "%s (seed=%d)" m seed)

let () =
  Alcotest.run "check"
    [
      ( "explorer",
        [
          Alcotest.test_case "injected bug caught and shrunk" `Quick test_buggy_caught;
          Alcotest.test_case "same seed, same report" `Quick test_buggy_deterministic;
          Alcotest.test_case "replay file roundtrip reproduces" `Quick
            test_replay_roundtrip;
          Alcotest.test_case "replay rejects wrong scenario" `Quick
            test_replay_rejects_wrong_scenario;
          Alcotest.test_case "multiq torn remove caught and shrunk" `Quick
            test_multiq_buggy_caught;
          Alcotest.test_case "scan-before-announce parking caught and shrunk" `Quick
            test_park_buggy_caught;
          Alcotest.test_case "Pending-means-unstolen join caught and shrunk" `Quick
            test_join_buggy_caught;
          Alcotest.test_case "dropped request caught as a hang and shrunk" `Quick
            test_request_buggy_caught;
          Alcotest.test_case "broadcast-before-flag recall caught and shrunk" `Quick
            test_recall_buggy_caught;
          Alcotest.test_case "correct scenarios pass" `Quick test_correct_scenarios_pass;
          Alcotest.test_case "lfdeque_grow passes CI seeds 1-3" `Quick
            (test_passes_ci_seeds Scenarios.lfdeque_grow);
          Alcotest.test_case "lfdeque_wrap passes CI seeds 1-3" `Quick
            (test_passes_ci_seeds Scenarios.lfdeque_wrap);
          Alcotest.test_case "scenario catalogue" `Quick test_catalogue;
        ] );
      ( "schedpoint coverage",
        [
          Alcotest.test_case "ids distinct and named" `Quick test_point_ids_distinct;
          Alcotest.test_case "every point documented in DESIGN.md" `Quick
            test_points_documented;
          Alcotest.test_case "every point hit by instrumented code" `Quick test_points_hit;
        ] );
      ( "oracles",
        [
          Alcotest.test_case "Lemma 3.1 on random dags" `Quick test_lemma31_oracle;
          Alcotest.test_case "Theorem 4.4 report" `Quick test_thm44_oracle;
          QCheck_alcotest.to_alcotest ~long:false space_accounting_prop;
          QCheck_alcotest.to_alcotest ~long:false differential_prop;
        ] );
    ]

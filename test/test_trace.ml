(* Tests for the tracing subsystem: JSON round-trips, the laned event
   ring in both its retentions (full trace and crash-forensics flight
   ring, including the dump on deadlock), engine determinism at the
   event-stream level, native-pool tracing, and the Chrome trace
   export. *)

module Json = Dfd_trace.Json
module Event = Dfd_trace.Event
module Tracer = Dfd_trace.Tracer
module Chrome = Dfd_trace.Chrome
module Engine = Dfdeques_core.Engine
module Config = Dfd_machine.Config
module Pool = Dfd_runtime.Pool
module Fault = Dfd_fault.Fault
module Stats = Dfd_structures.Stats

let check = Alcotest.check
let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let j =
    Json.Assoc
      [
        ("a", Json.Int 42);
        ("b", Json.Float 1.5);
        ("c", Json.String "he\"llo\n\t\\");
        ("d", Json.List [ Json.Null; Json.Bool true; Json.Bool false ]);
        ("nested", Json.Assoc [ ("x", Json.Int (-7)) ]);
        ("empty_list", Json.List []);
        ("empty_obj", Json.Assoc []);
      ]
  in
  checkb "roundtrip" true (Json.of_string (Json.to_string j) = j)

let test_json_rejects () =
  let bad s =
    match Json.of_string s with
    | exception Json.Parse_error _ -> true
    | _ -> false
  in
  checkb "trailing garbage" true (bad "{} x");
  checkb "unterminated string" true (bad "\"abc");
  checkb "bare word" true (bad "frue");
  checkb "missing colon" true (bad "{\"a\" 1}");
  checkb "trailing comma" true (bad "[1,]")

let test_json_nonfinite () =
  check Alcotest.string "nan is null" "null" (Json.to_string (Json.Float Float.nan));
  check Alcotest.string "inf is null" "null" (Json.to_string (Json.Float Float.infinity))

(* ------------------------------------------------------------------ *)
(* Event round-trip                                                    *)
(* ------------------------------------------------------------------ *)

let all_kinds =
  [
    Event.Fork { child = 3 };
    Event.Join { child = 9 };
    Event.Steal_attempt { victim = 2 };
    Event.Steal_success { victim = 2; latency = 17 };
    Event.Quota_exhausted { used = 50_001; quota = 50_000 };
    Event.Dummy_exec;
    Event.Deque_created { did = 11 };
    Event.Deque_deleted { did = 11; residency = 400 };
    Event.Cache_miss_stall { misses = 3; stall = 24 };
    Event.Lock_wait { mutex = 5 };
    Event.Action_batch { units = 8 };
    Event.Counter { deques = 4; heap = 123_456; threads = 78 };
    Event.Fault_injected { fault = "steal_fail" };
    Event.Quota_adjusted { from_quota = 50_000; to_quota = 25_000; pressure = 80_000 };
    Event.Steal_rank { victim = 11; rank = 5; err = 2 };
    Event.Worker_quarantined { worker = 2; cause = "crash" };
    Event.Task_requeued { worker = 2 };
    Event.Worker_respawned { worker = 2 };
  ]

let test_event_roundtrip () =
  checki "vocabulary covered" Event.n_kinds (List.length all_kinds);
  List.iteri
    (fun i kind ->
       let e = { Event.ts = 100 + i; proc = i mod 4; tid = i - 1; kind } in
       let e' = Event.of_json (Json.of_string (Json.to_string (Event.to_json e))) in
       checkb (Event.kind_name kind) true (Event.equal e e'))
    all_kinds

let event_gen =
  let open QCheck.Gen in
  let small = 0 -- 1_000_000 in
  let kind =
    oneof
      [
        map (fun child -> Event.Fork { child }) small;
        map (fun child -> Event.Join { child }) small;
        map (fun victim -> Event.Steal_attempt { victim }) (-1 -- 64);
        map2 (fun victim latency -> Event.Steal_success { victim; latency }) (-1 -- 64) small;
        map2 (fun used quota -> Event.Quota_exhausted { used; quota }) small small;
        return Event.Dummy_exec;
        map (fun did -> Event.Deque_created { did }) small;
        map2 (fun did residency -> Event.Deque_deleted { did; residency }) small small;
        map2 (fun misses stall -> Event.Cache_miss_stall { misses; stall }) small small;
        map (fun mutex -> Event.Lock_wait { mutex }) small;
        map (fun units -> Event.Action_batch { units }) small;
        map3 (fun deques heap threads -> Event.Counter { deques; heap; threads }) small small small;
        map
          (fun fault -> Event.Fault_injected { fault })
          (oneofl [ "stall"; "steal_fail"; "task_exn"; "alloc_spike"; "lock_delay" ]);
        map3
          (fun from_quota to_quota pressure ->
             Event.Quota_adjusted { from_quota; to_quota; pressure })
          small small small;
        map3 (fun victim rank err -> Event.Steal_rank { victim; rank; err }) small (0 -- 64)
          (0 -- 64);
        map2
          (fun worker cause -> Event.Worker_quarantined { worker; cause })
          (0 -- 64)
          (oneofl [ "crash"; "wedge" ]);
        map (fun worker -> Event.Task_requeued { worker }) (0 -- 64);
        map (fun worker -> Event.Worker_respawned { worker }) (0 -- 64);
      ]
  in
  map2
    (fun (ts, proc) kind -> { Event.ts; proc; tid = proc - 1; kind })
    (pair small (0 -- 64))
    kind

let event_roundtrip_prop =
  QCheck.Test.make ~name:"event json roundtrip" ~count:500
    (QCheck.make ~print:(Format.asprintf "%a" Event.pp) event_gen)
    (fun e -> Event.equal e (Event.of_json (Json.of_string (Json.to_string (Event.to_json e)))))

(* ------------------------------------------------------------------ *)
(* Tracer ring buffer                                                  *)
(* ------------------------------------------------------------------ *)

(* Every ring test takes its ring as input: the one-lane full-trace
   tracer and the multi-lane flight ring are the same structure. *)

let test_disabled tr () =
  checkb "disabled" false (Tracer.enabled tr);
  Tracer.emit tr ~ts:1 ~proc:0 ~tid:0 Event.Dummy_exec;
  checki "no events" 0 (Tracer.length tr);
  checki "no totals" 0 (Tracer.total tr);
  checkb "no events listed" true (Tracer.events tr = [])

(* The default flight ring of a pool created without one. *)
let pool_flight () =
  let pool = Pool.create ~domains:0 Pool.Work_stealing in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> Pool.flight pool)

let test_ring_overflow ~lanes () =
  let tr = Tracer.create ~capacity:4 ~lanes () in
  checkb "enabled" true (Tracer.enabled tr);
  for i = 1 to 10 do
    Tracer.emit tr ~ts:i ~proc:0 ~tid:0 (Event.Action_batch { units = i })
  done;
  checki "length capped" 4 (Tracer.length tr);
  checki "dropped" 6 (Tracer.dropped tr);
  checki "total" 10 (Tracer.total tr);
  checki "ring keeps capacity" 4 (List.length (Tracer.events tr));
  (* retained events are the newest, oldest first *)
  check
    Alcotest.(list int)
    "newest kept" [ 7; 8; 9; 10 ]
    (List.map (fun e -> e.Event.ts) (Tracer.events tr));
  (* per-kind counts survive the overwrites *)
  checki "count exact" 10 (Tracer.count tr (Event.Action_batch { units = 0 }));
  Tracer.clear tr;
  checki "cleared" 0 (Tracer.length tr);
  checki "cleared totals" 0 (Tracer.total tr)

(* Procs 0 and 1 emit interleaved timestamps.  One lane keeps emission
   order; with two lanes the merge sorts by timestamp.  Out-of-range
   procs land in the last lane, never raise. *)
let test_merge_order ~lanes () =
  let tr = Tracer.create ~capacity:8 ~lanes () in
  List.iter (fun ts -> Tracer.emit tr ~ts ~proc:0 ~tid:0 Event.Dummy_exec) [ 1; 3; 5 ];
  List.iter (fun ts -> Tracer.emit tr ~ts ~proc:1 ~tid:0 Event.Dummy_exec) [ 2; 4 ];
  check
    Alcotest.(list int)
    "merge order"
    (if lanes = 1 then [ 1; 3; 5; 2; 4 ] else [ 1; 2; 3; 4; 5 ])
    (List.map (fun e -> e.Event.ts) (Tracer.events tr));
  Tracer.emit tr ~ts:6 ~proc:99 ~tid:0 Event.Dummy_exec;
  Tracer.emit tr ~ts:7 ~proc:(-1) ~tid:0 Event.Dummy_exec;
  checki "clamped lanes recorded" 7 (Tracer.total tr);
  checkb "clamped events listed last, in order" true
    (match List.rev (Tracer.events tr) with
     | e7 :: e6 :: _ -> e7.Event.ts = 7 && e6.Event.ts = 6
     | _ -> false)

let test_dump_on_deadlock () =
  (* Classic ABBA deadlock (same program as test_core): the engine dies
     with [Engine.Deadlock], after which the flight ring must still dump
     a parseable artifact holding the run's last moments. *)
  let prog =
    Dfd_dag.Prog.(
      finish
        (par
           (lock 0 >> work 5 >> lock 1 >> work 1 >> unlock 1 >> unlock 0)
           (lock 1 >> work 5 >> lock 0 >> work 1 >> unlock 0 >> unlock 1)))
  in
  let flight = Tracer.create ~capacity:64 ~lanes:3 () in
  checkb "deadlock raised" true
    (try
       ignore (Engine.run ~sched:`Dfdeques ~flight (Config.analysis ~p:2 ()) prog);
       false
     with Engine.Deadlock _ -> true);
  checkb "ring captured the run" true (Tracer.total flight > 0);
  let path = Filename.temp_file "dfd_flight" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Tracer.write_file ~path ~reason:"deadlock" flight;
      let ic = open_in_bin path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let j = Json.of_string text in
      let fl = Json.member "flight" j in
      checks "reason recorded" "deadlock" (Json.to_string_exn (Json.member "reason" fl));
      let events = Json.to_list_exn (Json.member "events" fl) in
      checkb "events survive to the artifact" true (events <> []);
      checki "artifact agrees with the live ring" (List.length (Tracer.events flight))
        (List.length events))

(* ------------------------------------------------------------------ *)
(* Engine determinism at event granularity                             *)
(* ------------------------------------------------------------------ *)

let run_traced ~sched ~seed () =
  let b = Dfd_benchmarks.Registry.find "SparseMVM" Dfd_benchmarks.Workload.Fine in
  let tr = Tracer.create () in
  let cfg = Config.costed ~p:4 ~mem_threshold:(Some 50_000) ~seed () in
  ignore (Engine.run ~sched ~tracer:tr cfg (b.Dfd_benchmarks.Workload.prog ()));
  tr

let test_determinism () =
  List.iter
    (fun sched ->
       let a = run_traced ~sched ~seed:42 () in
       let b = run_traced ~sched ~seed:42 () in
       checki "same count" (Tracer.total a) (Tracer.total b);
       checkb "identical event streams" true
         (List.for_all2 Event.equal (Tracer.events a) (Tracer.events b)))
    [ `Dfdeques; `Ws; `Adf; `Fifo ]

let test_seed_sensitivity () =
  let a = run_traced ~sched:`Dfdeques ~seed:1 () in
  let b = run_traced ~sched:`Dfdeques ~seed:2 () in
  checkb "different seeds -> different streams" false
    (Tracer.total a = Tracer.total b
     && List.for_all2 Event.equal (Tracer.events a) (Tracer.events b))

let test_vocabulary_exercised () =
  (* A DFD run must produce the paper-relevant event families. *)
  let tr = run_traced ~sched:`Dfdeques ~seed:42 () in
  List.iter
    (fun kind ->
       checkb (Event.kind_name kind) true (Tracer.count tr kind > 0))
    [
      Event.Fork { child = 0 };
      Event.Steal_attempt { victim = 0 };
      Event.Steal_success { victim = 0; latency = 0 };
      Event.Deque_created { did = 0 };
      Event.Deque_deleted { did = 0; residency = 0 };
      Event.Action_batch { units = 0 };
      Event.Counter { deques = 0; heap = 0; threads = 0 };
    ]

let test_counter_convention () =
  (* Counter samples are machine-wide: both proc and tid must be -1, and
     every processor-attributed event must carry proc >= 0 (event.mli's
     documented convention). *)
  let tr = run_traced ~sched:`Dfdeques ~seed:42 () in
  List.iter
    (fun (e : Event.t) ->
       match e.Event.kind with
       | Event.Counter _ ->
         checki "counter proc" (-1) e.Event.proc;
         checki "counter tid" (-1) e.Event.tid
       | Event.Action_batch _ | Event.Fork _ | Event.Steal_attempt _ | Event.Steal_success _ ->
         checkb "attributed proc" true (e.Event.proc >= 0)
       | _ -> ())
    (Tracer.events tr)

(* ------------------------------------------------------------------ *)
(* Native pool tracing                                                 *)
(* ------------------------------------------------------------------ *)

let rec fib n =
  if n < 2 then n
  else
    let a, b = Pool.fork_join (fun () -> fib (n - 1)) (fun () -> fib (n - 2)) in
    a + b

let check_procs ~n_workers evs =
  List.iter
    (fun (e : Event.t) ->
      checkb "proc in [-1, n_workers)" true (e.proc >= -1 && e.proc < n_workers))
    evs

(* A traced p=2 fib on a ring small enough to overflow: the per-kind
   counts, exact after overwrites, must equal the pool's own counters. *)
let test_pool_tracing policy () =
  let domains = 1 in
  let tracer = Tracer.create ~capacity:64 ~lanes:(domains + 2) () in
  let pool = Pool.create ~domains ~tracer policy in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () -> checki "fib 18" 2584 (Pool.run pool (fun () -> fib 18)));
  (* the worker domains have joined: the ring is quiescent *)
  let c = Pool.counters pool in
  checkb "ring overflowed" true (Tracer.dropped tracer > 0);
  checki "one Action_batch per task run" c.Pool.tasks_run
    (Tracer.count tracer (Event.Action_batch { units = 0 }));
  checki "one Steal_success per steal" c.Pool.steals
    (Tracer.count tracer (Event.Steal_success { victim = 0; latency = 0 }));
  (match policy with
   | Pool.Dfdeques _ ->
     checki "one Steal_rank per rank-error sample"
       (Stats.Histogram.count (Pool.rank_error pool))
       (Tracer.count tracer (Event.Steal_rank { victim = 0; rank = 0; err = 0 }))
   | Pool.Work_stealing -> ());
  let evs = Tracer.events tracer in
  check_procs ~n_workers:(domains + 1) evs;
  let ts = List.map (fun (e : Event.t) -> e.ts) evs in
  checkb "events sorted by ts" true (List.sort compare ts = ts)

(* A supervisor that is not a worker (here the test thread) records on
   the last lane.  Worker 1 wedges on its first take; its last event is
   the wedge fault.  The test thread then quarantines it.  With one slot
   per lane, both events must survive: when external writes wrapped into
   worker n_workers - 1's lane, as on a flight ring of n_workers lanes,
   the quarantine overwrote the wedge.  Such a ring is now refused. *)
let test_external_lane () =
  let n_workers = 2 in
  checkb "a ring without an external lane is refused" true
    (match
       Pool.create ~domains:(n_workers - 1)
         ~flight:(Tracer.create ~capacity:1 ~lanes:n_workers ())
         Pool.Work_stealing
     with
     | pool ->
       Pool.shutdown pool;
       false
     | exception Invalid_argument _ -> true);
  let fault =
    Fault.create ~rates:{ Fault.zero_rates with Fault.worker_wedge = Some 1 } ~seed:11 ()
  in
  let flight = Tracer.create ~capacity:1 ~lanes:(n_workers + 1) () in
  let pool = Pool.create ~domains:(n_workers - 1) ~fault ~flight Pool.Work_stealing in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      (* rerun until worker 1 has stolen, and so wedged: the caller keeps
         forking, so it answers worker 1's requests, until then, and its
         join waits on the stolen task until the timeout *)
      let wedged () = List.assoc "worker_wedge" (Fault.counts fault) > 0 in
      let rounds = ref 0 in
      while (not (wedged ())) && !rounds < 50 do
        incr rounds;
        try
          Pool.run ~timeout:0.2 pool (fun () ->
              ignore
                (Pool.fork_join ignore (fun () ->
                     while not (wedged ()) do
                       ignore (Pool.fork_join ignore ignore)
                     done)))
        with Pool.Timeout -> ()
      done;
      checkb "worker 1 wedged" true (wedged ());
      checkb "external quarantine" true (Pool.quarantine pool (n_workers - 1)));
  let evs = Tracer.events flight in
  check_procs ~n_workers evs;
  checkb "worker n_workers - 1's wedge survives" true
    (List.exists
       (fun (e : Event.t) ->
         e.proc = n_workers - 1 && e.kind = Event.Fault_injected { fault = "worker_wedge" })
       evs);
  checkb "the external quarantine survives" true
    (List.exists
       (fun (e : Event.t) ->
         e.proc = -1
         && e.kind = Event.Worker_quarantined { worker = n_workers - 1; cause = "wedge" })
       evs)

(* ------------------------------------------------------------------ *)
(* Chrome export                                                       *)
(* ------------------------------------------------------------------ *)

let test_chrome_export () =
  let tr = run_traced ~sched:`Dfdeques ~seed:42 () in
  let j = Chrome.to_json ~p:4 (Tracer.events tr) in
  (* the export must survive a print/parse cycle *)
  let j' = Json.of_string (Json.to_string j) in
  let events = Json.to_list_exn (Json.member "traceEvents" j') in
  checkb "nonempty" true (events <> []);
  let has_cat c =
    List.exists (fun e -> match Json.member "cat" e with
      | Json.String s -> s = c
      | _ -> false)
      events
  in
  List.iter (fun c -> checkb ("cat " ^ c) true (has_cat c)) [ "steal"; "deque"; "action"; "counter" ];
  (* one thread_name metadata record per processor *)
  let tracks =
    List.filter
      (fun e ->
         match (Json.member "ph" e, Json.member "name" e) with
         | Json.String "M", Json.String "thread_name" -> true
         | _ -> false)
      events
  in
  checki "per-processor tracks" 4 (List.length tracks)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "trace"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects malformed" `Quick test_json_rejects;
          Alcotest.test_case "non-finite floats" `Quick test_json_nonfinite;
        ] );
      ( "event",
        [ Alcotest.test_case "roundtrip all kinds" `Quick test_event_roundtrip ]
        @ qsuite [ event_roundtrip_prop ] );
      ( "tracer",
        [
          Alcotest.test_case "disabled is inert" `Quick (test_disabled Tracer.disabled);
          Alcotest.test_case "ring overflow" `Quick (test_ring_overflow ~lanes:1);
          Alcotest.test_case "one lane keeps emission order" `Quick (test_merge_order ~lanes:1);
        ] );
      ( "flight",
        [
          Alcotest.test_case "ring wrap" `Quick (test_ring_overflow ~lanes:2);
          Alcotest.test_case "lane merge order" `Quick (test_merge_order ~lanes:2);
          Alcotest.test_case "disabled is inert" `Quick (fun () ->
              test_disabled (pool_flight ()) ());
          Alcotest.test_case "dump on deadlock" `Quick test_dump_on_deadlock;
        ] );
      ( "pool",
        [
          Alcotest.test_case "WS traced fib" `Quick (test_pool_tracing Pool.Work_stealing);
          Alcotest.test_case "DFD traced fib" `Quick
            (test_pool_tracing (Pool.Dfdeques { quota = 4096 }));
          Alcotest.test_case "external writer keeps its own lane" `Quick test_external_lane;
        ] );
      ( "engine",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
          Alcotest.test_case "vocabulary exercised" `Quick test_vocabulary_exercised;
          Alcotest.test_case "counter proc/tid convention" `Quick test_counter_convention;
        ] );
      ( "chrome", [ Alcotest.test_case "export" `Quick test_chrome_export ] );
    ]

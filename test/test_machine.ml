(* Tests for the machine model: cache simulator (hand-computed hit/miss
   sequences, LRU within a set, per-processor isolation, and a random-stream
   comparison with a naive LRU model over many geometries), memory
   accounting, metrics, configuration validation. *)

module Cache = Dfd_machine.Cache
module Config = Dfd_machine.Config
module Memory = Dfd_machine.Memory
module Metrics = Dfd_machine.Metrics

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* A tiny cache for hand analysis: 8-word lines, 2 sets, 2-way. *)
let tiny = { Config.line_words = 8; n_sets = 2; assoc = 2 }

let test_cache_cold_miss_then_hit () =
  let c = Cache.create tiny ~p:1 in
  checkb "cold miss" true (Cache.access c ~proc:0 ~addr:0);
  checkb "same word hits" false (Cache.access c ~proc:0 ~addr:0);
  checkb "same line hits" false (Cache.access c ~proc:0 ~addr:7);
  checkb "next line misses" true (Cache.access c ~proc:0 ~addr:8);
  checki "accesses" 4 (Cache.accesses c);
  checki "misses" 2 (Cache.misses c)

let test_cache_set_mapping () =
  let c = Cache.create tiny ~p:1 in
  (* lines 0 and 2 map to set 0; lines 1 and 3 to set 1 *)
  checkb "line0 miss" true (Cache.access c ~proc:0 ~addr:0);
  checkb "line2 miss (same set, other way)" true (Cache.access c ~proc:0 ~addr:16);
  checkb "line0 still resident" false (Cache.access c ~proc:0 ~addr:0);
  checkb "line2 still resident" false (Cache.access c ~proc:0 ~addr:16)

let test_cache_lru_eviction () =
  let c = Cache.create tiny ~p:1 in
  (* three lines in set 0 (2-way): the least recently used is evicted *)
  ignore (Cache.access c ~proc:0 ~addr:0) (* line 0 *);
  ignore (Cache.access c ~proc:0 ~addr:16) (* line 2 *);
  ignore (Cache.access c ~proc:0 ~addr:0) (* touch line 0 again: line 2 is LRU *);
  checkb "line4 evicts line2" true (Cache.access c ~proc:0 ~addr:32);
  checkb "line0 survived" false (Cache.access c ~proc:0 ~addr:0);
  checkb "line2 was evicted" true (Cache.access c ~proc:0 ~addr:16)

let test_cache_per_processor_private () =
  let c = Cache.create tiny ~p:2 in
  ignore (Cache.access c ~proc:0 ~addr:0);
  checkb "other processor misses the same line" true (Cache.access c ~proc:1 ~addr:0);
  checki "proc0 misses" 1 (Cache.proc_misses c 0);
  checki "proc1 misses" 1 (Cache.proc_misses c 1)

let test_cache_access_many () =
  let c = Cache.create tiny ~p:1 in
  let m = Cache.access_many c ~proc:0 [| 0; 1; 8; 0 |] in
  checki "two line misses" 2 m;
  checkb "rate" true (abs_float (Cache.miss_rate c -. 50.0) < 1e-6)

let test_cache_empty_rate () =
  let c = Cache.create tiny ~p:1 in
  checkb "empty rate 0" true (Cache.miss_rate c = 0.0)

let test_cache_capacity_sweep () =
  (* touching twice the cache's capacity in a loop thrashes: second pass
     misses everything (LRU on a circular scan) *)
  let c = Cache.create { Config.line_words = 8; n_sets = 4; assoc = 2 } ~p:1 in
  let cap_lines = 8 in
  for pass = 1 to 2 do
    for line = 0 to (2 * cap_lines) - 1 do
      ignore (Cache.access c ~proc:0 ~addr:(line * 8))
    done;
    ignore pass
  done;
  checki "all accesses missed" (4 * cap_lines) (Cache.misses c)

let test_cache_rejects_negative_address () =
  (* with the default geometry address -2048 has tag -1, the empty-way
     marker: unchecked, a cold access would report a hit *)
  let c = Cache.create Config.default_cache ~p:1 in
  List.iter
    (fun addr ->
       Alcotest.check_raises
         (Printf.sprintf "addr %d" addr)
         (Invalid_argument "Cache.access: negative address")
         (fun () -> ignore (Cache.access c ~proc:0 ~addr)))
    [ -2048; -8; -1 ];
  Alcotest.check_raises "burst [0; 8; -2048]"
    (Invalid_argument "Cache.access: negative address")
    (fun () -> ignore (Cache.access_many c ~proc:0 [| 0; 8; -2048 |]));
  checki "nothing counted" 0 (Cache.accesses c)

(* Reference model: a naive LRU cache, one list per (processor, set) with
   the most recently used line first, at most [assoc] long. *)
type model = { geo : Config.cache; sets : int list array array; proc_miss : int array }

let model_create geo ~p =
  { geo; sets = Array.init p (fun _ -> Array.make geo.Config.n_sets []); proc_miss = Array.make p 0 }

let model_access m ~proc ~addr =
  let line = addr / m.geo.Config.line_words in
  let set = line mod m.geo.Config.n_sets in
  let ways = m.sets.(proc).(set) in
  let missed = not (List.mem line ways) in
  let rest = List.filter (fun l -> l <> line) ways in
  m.sets.(proc).(set) <- List.filteri (fun i _ -> i < m.geo.Config.assoc) (line :: rest);
  if missed then m.proc_miss.(proc) <- m.proc_miss.(proc) + 1;
  missed

(* A case: a geometry, a processor count, and a stream of (proc, addresses)
   bursts.  Bursts of one go through [access] (each result checked), longer
   ones through [access_many] (the miss count checked).  Addresses span
   about twice the cache's lines so that sets both hit and overflow.  One
   case in four takes the simulator's own geometry, [Config.default_cache],
   with a stream long enough to revisit its 1 024 lines. *)
let cache_case =
  let open QCheck.Gen in
  let small =
    oneofl [ 1; 2; 8 ] >>= fun line_words ->
    oneofl [ 1; 2; 4 ] >>= fun n_sets ->
    oneofl [ 1; 2; 3; 4; 8 ] >>= fun assoc -> return ({ Config.line_words; n_sets; assoc }, 120)
  in
  let gen =
    frequency [ (3, small); (1, return (Config.default_cache, 3_000)) ]
    >>= fun (({ Config.line_words; n_sets; assoc } as geo), max_bursts) ->
    oneofl [ 1; 3 ] >>= fun p ->
    let span = 2 * line_words * n_sets * (assoc + 1) in
    let burst = pair (int_bound (p - 1)) (array_size (int_range 1 4) (int_bound (span - 1))) in
    list_size (int_range 1 max_bursts) burst >|= fun stream -> (geo, p, stream)
  in
  let print ({ Config.line_words; n_sets; assoc }, p, stream) =
    Printf.sprintf "line_words=%d n_sets=%d assoc=%d p=%d stream=%s" line_words n_sets assoc p
      (String.concat " "
         (List.map
            (fun (proc, addrs) ->
               Printf.sprintf "%d:[%s]" proc
                 (String.concat ";" (Array.to_list (Array.map string_of_int addrs))))
            stream))
  in
  QCheck.make ~print gen

let cache_matches_lru_model =
  QCheck.Test.make ~name:"cache = naive LRU model" ~count:500 cache_case
    (fun (geo, p, stream) ->
       let c = Cache.create geo ~p and m = model_create geo ~p in
       let issued = ref 0 in
       List.iter
         (fun (proc, addrs) ->
            issued := !issued + Array.length addrs;
            if Array.length addrs = 1 then begin
              let expect = model_access m ~proc ~addr:addrs.(0) in
              if Cache.access c ~proc ~addr:addrs.(0) <> expect then
                QCheck.Test.fail_reportf "proc %d addr %d: cache says %s" proc addrs.(0)
                  (if expect then "hit, model misses" else "miss, model hits")
            end
            else begin
              let expect =
                Array.fold_left
                  (fun n addr -> if model_access m ~proc ~addr then n + 1 else n)
                  0 addrs
              in
              let got = Cache.access_many c ~proc addrs in
              if got <> expect then
                QCheck.Test.fail_reportf "proc %d burst: %d misses, model %d" proc got expect
            end)
         stream;
       Cache.accesses c = !issued
       && Cache.misses c = Array.fold_left ( + ) 0 m.proc_miss
       && List.for_all (fun q -> Cache.proc_misses c q = m.proc_miss.(q)) (List.init p Fun.id))

let test_config_validation () =
  checkb "p=0 rejected" true
    (try
       ignore (Config.analysis ~p:0 ());
       false
     with Invalid_argument _ -> true);
  let cfg = Config.analysis ~p:4 () in
  checkb "analysis has no cache" true (cfg.Config.cache = None);
  checkb "infinite threshold" true (Config.is_infinite_threshold cfg);
  checkb "threshold_exn raises" true
    (try
       ignore (Config.mem_threshold_exn cfg);
       false
     with Invalid_argument _ -> true);
  let c = Config.costed ~p:4 ~mem_threshold:(Some 100) () in
  checki "threshold" 100 (Config.mem_threshold_exn c);
  checki "cache bytes" (64 * 1024) (Config.cache_bytes Config.default_cache);
  let rejected name cache =
    checkb (name ^ " rejected by costed") true
      (try
         ignore (Config.costed ~p:4 ~cache ());
         false
       with Invalid_argument _ -> true);
    checkb (name ^ " rejected by Cache.create") true
      (try
         ignore (Cache.create cache ~p:1);
         false
       with Invalid_argument _ -> true)
  in
  rejected "n_sets = 3" { Config.default_cache with n_sets = 3 };
  rejected "line_words = 6" { Config.default_cache with line_words = 6 };
  rejected "assoc = 0" { Config.default_cache with assoc = 0 };
  let three_way = { Config.default_cache with assoc = 3 } in
  checkb "assoc = 3 accepted" true
    ((Config.costed ~p:4 ~cache:three_way ()).Config.cache = Some three_way);
  ignore (Cache.create three_way ~p:1)

let test_memory_watermarks () =
  let m = Memory.create ~stack_bytes:100 in
  Memory.alloc m 50;
  Memory.thread_created m;
  Memory.thread_created m;
  checki "combined" 250 (Memory.combined_peak m);
  Memory.free m 50;
  Memory.thread_exited m;
  checki "heap peak sticky" 50 (Memory.heap_peak m);
  checki "heap current" 0 (Memory.heap_current m);
  checki "live threads" 1 (Memory.live_threads m);
  checki "threads peak" 2 (Memory.live_threads_peak m);
  Memory.alloc m 10;
  checki "gross total" 60 (Memory.total_allocated m)

let test_memory_combined_joint () =
  (* the combined peak is tracked jointly, not sum-of-peaks *)
  let m = Memory.create ~stack_bytes:1000 in
  Memory.alloc m 500;
  Memory.free m 500;
  Memory.thread_created m;
  Memory.thread_exited m;
  (* heap peak 500, stack peak 1000, but never simultaneous *)
  checki "joint peak" 1000 (Memory.combined_peak m)

let test_metrics_granularity () =
  let m = Metrics.create ~p:2 in
  Metrics.action_executed m ~proc:0 ~units:30;
  Metrics.action_executed m ~proc:1 ~units:10;
  Metrics.steal_attempt m;
  Metrics.steal_attempt m;
  Metrics.steal_success m;
  Metrics.local_dispatch m;
  Metrics.local_dispatch m;
  Metrics.local_dispatch m;
  checki "actions" 40 (Metrics.actions m);
  checki "steals" 1 (Metrics.steals m);
  checki "attempts" 2 (Metrics.steal_attempts m);
  checkb "granularity = 40/1" true (Metrics.sched_granularity m = 40.0);
  checkb "local/steal = 3" true (Metrics.local_steal_ratio m = 3.0)

let test_metrics_deque_watermark () =
  let m = Metrics.create ~p:1 in
  Metrics.deques_changed m 3;
  Metrics.deques_changed m 7;
  Metrics.deques_changed m 2;
  checki "peak deques" 7 (Metrics.deque_peak m)

let test_metrics_load_imbalance () =
  let m = Metrics.create ~p:4 in
  checkb "empty = 1.0" true (Metrics.load_imbalance m = 1.0);
  Metrics.action_executed m ~proc:0 ~units:10;
  Metrics.action_executed m ~proc:1 ~units:10;
  Metrics.action_executed m ~proc:2 ~units:10;
  Metrics.action_executed m ~proc:3 ~units:10;
  checkb "perfect balance" true (abs_float (Metrics.load_imbalance m -. 1.0) < 1e-9);
  Metrics.action_executed m ~proc:0 ~units:40;
  (* proc0 has 50 of 80 total; mean 20 -> imbalance 2.5 *)
  checkb "skewed" true (abs_float (Metrics.load_imbalance m -. 2.5) < 1e-9);
  Alcotest.(check (array int)) "per-proc copy" [| 50; 10; 10; 10 |] (Metrics.per_proc_actions m)

let test_metrics_deque_current () =
  let m = Metrics.create ~p:1 in
  Metrics.deques_changed m 5;
  Metrics.deques_changed m 2;
  checki "current" 2 (Metrics.deque_current m);
  checki "peak" 5 (Metrics.deque_peak m)

let test_metrics_zero_division () =
  let m = Metrics.create ~p:1 in
  checkb "granularity defined with no steals" true (Metrics.sched_granularity m = 0.0);
  checkb "ratio defined with no steals" true (Metrics.local_steal_ratio m = 0.0)

let () =
  Alcotest.run "machine"
    [
      ( "cache",
        [
          Alcotest.test_case "cold miss then hit" `Quick test_cache_cold_miss_then_hit;
          Alcotest.test_case "set mapping" `Quick test_cache_set_mapping;
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "per-processor" `Quick test_cache_per_processor_private;
          Alcotest.test_case "access_many" `Quick test_cache_access_many;
          Alcotest.test_case "empty rate" `Quick test_cache_empty_rate;
          Alcotest.test_case "capacity thrash" `Quick test_cache_capacity_sweep;
          Alcotest.test_case "negative address" `Quick test_cache_rejects_negative_address;
          QCheck_alcotest.to_alcotest ~long:false cache_matches_lru_model;
        ] );
      ("config", [ Alcotest.test_case "validation" `Quick test_config_validation ]);
      ( "memory",
        [
          Alcotest.test_case "watermarks" `Quick test_memory_watermarks;
          Alcotest.test_case "joint combined peak" `Quick test_memory_combined_joint;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "granularity" `Quick test_metrics_granularity;
          Alcotest.test_case "deque watermark" `Quick test_metrics_deque_watermark;
          Alcotest.test_case "zero division" `Quick test_metrics_zero_division;
          Alcotest.test_case "load imbalance" `Quick test_metrics_load_imbalance;
          Alcotest.test_case "deque current" `Quick test_metrics_deque_current;
        ] );
    ]

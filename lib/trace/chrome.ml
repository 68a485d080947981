let category (k : Event.kind) =
  match k with
  | Event.Fork _ | Event.Join _ -> "task"
  | Event.Steal_attempt _ | Event.Steal_success _ | Event.Steal_rank _ -> "steal"
  | Event.Quota_exhausted _ | Event.Quota_adjusted _ -> "quota"
  | Event.Dummy_exec -> "dummy"
  | Event.Deque_created _ | Event.Deque_deleted _ -> "deque"
  | Event.Cache_miss_stall _ -> "cache"
  | Event.Lock_wait _ -> "lock"
  | Event.Action_batch _ -> "action"
  | Event.Counter _ -> "counter"
  | Event.Fault_injected _ -> "fault"
  | Event.Worker_quarantined _ | Event.Task_requeued _ | Event.Worker_respawned _ -> "crash"

let pid = Json.Int 0

let metadata ~p =
  let process =
    Json.Assoc
      [
        ("name", Json.String "process_name");
        ("ph", Json.String "M");
        ("pid", pid);
        ("args", Json.Assoc [ ("name", Json.String "dfdeques") ]);
      ]
  in
  let track i =
    Json.Assoc
      [
        ("name", Json.String "thread_name");
        ("ph", Json.String "M");
        ("pid", pid);
        ("tid", Json.Int i);
        ("args", Json.Assoc [ ("name", Json.String (Printf.sprintf "P%d" i)) ]);
      ]
  in
  process :: List.init p track

let counter_event ~ts name key v =
  Json.Assoc
    [
      ("name", Json.String name);
      ("cat", Json.String "counter");
      ("ph", Json.String "C");
      ("ts", Json.Int ts);
      ("pid", pid);
      ("args", Json.Assoc [ (key, Json.Int v) ]);
    ]

let instant (e : Event.t) args =
  Json.Assoc
    [
      ("name", Json.String (Event.kind_name e.kind));
      ("cat", Json.String (category e.kind));
      ("ph", Json.String "i");
      ("s", Json.String "t");
      ("ts", Json.Int e.ts);
      ("pid", pid);
      ("tid", Json.Int (max e.proc 0));
      ("args", Json.Assoc (("thread", Json.Int e.tid) :: args));
    ]

let render (e : Event.t) : Json.t list =
  match e.kind with
  | Event.Counter { deques; heap; threads } ->
    [
      counter_event ~ts:e.ts "live deques" "deques" deques;
      counter_event ~ts:e.ts "live heap" "bytes" heap;
      counter_event ~ts:e.ts "live threads" "threads" threads;
    ]
  | Event.Action_batch { units } ->
    [
      Json.Assoc
        [
          ("name", Json.String "run");
          ("cat", Json.String "action");
          ("ph", Json.String "X");
          ("ts", Json.Int e.ts);
          ("dur", Json.Int units);
          ("pid", pid);
          ("tid", Json.Int (max e.proc 0));
          ("args", Json.Assoc [ ("thread", Json.Int e.tid); ("units", Json.Int units) ]);
        ];
    ]
  | Event.Fork { child } -> [ instant e [ ("child", Json.Int child) ] ]
  | Event.Join { child } -> [ instant e [ ("child", Json.Int child) ] ]
  | Event.Steal_attempt { victim } -> [ instant e [ ("victim", Json.Int victim) ] ]
  | Event.Steal_success { victim; latency } ->
    [ instant e [ ("victim", Json.Int victim); ("latency", Json.Int latency) ] ]
  | Event.Quota_exhausted { used; quota } ->
    [ instant e [ ("used", Json.Int used); ("quota", Json.Int quota) ] ]
  | Event.Dummy_exec -> [ instant e [] ]
  | Event.Deque_created { did } -> [ instant e [ ("did", Json.Int did) ] ]
  | Event.Deque_deleted { did; residency } ->
    [ instant e [ ("did", Json.Int did); ("residency", Json.Int residency) ] ]
  | Event.Cache_miss_stall { misses; stall } ->
    [ instant e [ ("misses", Json.Int misses); ("stall", Json.Int stall) ] ]
  | Event.Lock_wait { mutex } -> [ instant e [ ("mutex", Json.Int mutex) ] ]
  | Event.Fault_injected { fault } -> [ instant e [ ("fault", Json.String fault) ] ]
  | Event.Quota_adjusted { from_quota; to_quota; pressure } ->
    (* both an instant (the decision) and a counter track (the K level) *)
    [
      instant e
        [
          ("from_quota", Json.Int from_quota);
          ("to_quota", Json.Int to_quota);
          ("pressure", Json.Int pressure);
        ];
      counter_event ~ts:e.ts "quota K" "bytes" to_quota;
    ]
  | Event.Steal_rank { victim; rank; err } ->
    [
      instant e
        [ ("victim", Json.Int victim); ("rank", Json.Int rank); ("err", Json.Int err) ];
    ]
  | Event.Worker_quarantined { worker; cause } ->
    [ instant e [ ("worker", Json.Int worker); ("cause", Json.String cause) ] ]
  | Event.Task_requeued { worker } -> [ instant e [ ("worker", Json.Int worker) ] ]
  | Event.Worker_respawned { worker } -> [ instant e [ ("worker", Json.Int worker) ] ]

let to_json ~p events =
  let body = List.concat_map render events in
  Json.Assoc
    [
      ("traceEvents", Json.List (metadata ~p @ body));
      ("displayTimeUnit", Json.String "ms");
    ]

let write_file ~path ~p events =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
       Json.to_channel oc (to_json ~p events);
       output_char oc '\n')

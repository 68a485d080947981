type kind =
  | Fork of { child : int }
  | Join of { child : int }
  | Steal_attempt of { victim : int }
  | Steal_success of { victim : int; latency : int }
  | Quota_exhausted of { used : int; quota : int }
  | Dummy_exec
  | Deque_created of { did : int }
  | Deque_deleted of { did : int; residency : int }
  | Cache_miss_stall of { misses : int; stall : int }
  | Lock_wait of { mutex : int }
  | Action_batch of { units : int }
  | Counter of { deques : int; heap : int; threads : int }
  | Fault_injected of { fault : string }
  | Steal_rank of { victim : int; rank : int; err : int }

type t = { ts : int; proc : int; tid : int; kind : kind }

let kind_index = function
  | Fork _ -> 0
  | Join _ -> 1
  | Steal_attempt _ -> 2
  | Steal_success _ -> 3
  | Quota_exhausted _ -> 4
  | Dummy_exec -> 5
  | Deque_created _ -> 6
  | Deque_deleted _ -> 7
  | Cache_miss_stall _ -> 8
  | Lock_wait _ -> 9
  | Action_batch _ -> 10
  | Counter _ -> 11
  | Fault_injected _ -> 12
  | Steal_rank _ -> 13

let kind_names =
  [|
    "fork";
    "join";
    "steal_attempt";
    "steal_success";
    "quota_exhausted";
    "dummy_exec";
    "deque_created";
    "deque_deleted";
    "cache_miss_stall";
    "lock_wait";
    "action_batch";
    "counter";
    "fault_injected";
    "steal_rank";
  |]

let n_kinds = Array.length kind_names

let kind_name k = kind_names.(kind_index k)

let equal a b = a.ts = b.ts && a.proc = b.proc && a.tid = b.tid && a.kind = b.kind

let to_json e =
  let payload =
    match e.kind with
    | Fork { child } -> [ ("child", Json.Int child) ]
    | Join { child } -> [ ("child", Json.Int child) ]
    | Steal_attempt { victim } -> [ ("victim", Json.Int victim) ]
    | Steal_success { victim; latency } ->
      [ ("victim", Json.Int victim); ("latency", Json.Int latency) ]
    | Quota_exhausted { used; quota } ->
      [ ("used", Json.Int used); ("quota", Json.Int quota) ]
    | Dummy_exec -> []
    | Deque_created { did } -> [ ("did", Json.Int did) ]
    | Deque_deleted { did; residency } ->
      [ ("did", Json.Int did); ("residency", Json.Int residency) ]
    | Cache_miss_stall { misses; stall } ->
      [ ("misses", Json.Int misses); ("stall", Json.Int stall) ]
    | Lock_wait { mutex } -> [ ("mutex", Json.Int mutex) ]
    | Action_batch { units } -> [ ("units", Json.Int units) ]
    | Counter { deques; heap; threads } ->
      [ ("deques", Json.Int deques); ("heap", Json.Int heap); ("threads", Json.Int threads) ]
    | Fault_injected { fault } -> [ ("fault", Json.String fault) ]
    | Steal_rank { victim; rank; err } ->
      [ ("victim", Json.Int victim); ("rank", Json.Int rank); ("err", Json.Int err) ]
  in
  Json.Assoc
    ([
       ("ts", Json.Int e.ts);
       ("proc", Json.Int e.proc);
       ("tid", Json.Int e.tid);
       ("ev", Json.String (kind_name e.kind));
     ]
     @ payload)

let of_json j =
  let int k = Json.to_int_exn (Json.member k j) in
  let kind =
    match Json.to_string_exn (Json.member "ev" j) with
    | "fork" -> Fork { child = int "child" }
    | "join" -> Join { child = int "child" }
    | "steal_attempt" -> Steal_attempt { victim = int "victim" }
    | "steal_success" -> Steal_success { victim = int "victim"; latency = int "latency" }
    | "quota_exhausted" -> Quota_exhausted { used = int "used"; quota = int "quota" }
    | "dummy_exec" -> Dummy_exec
    | "deque_created" -> Deque_created { did = int "did" }
    | "deque_deleted" -> Deque_deleted { did = int "did"; residency = int "residency" }
    | "cache_miss_stall" -> Cache_miss_stall { misses = int "misses"; stall = int "stall" }
    | "lock_wait" -> Lock_wait { mutex = int "mutex" }
    | "action_batch" -> Action_batch { units = int "units" }
    | "counter" ->
      Counter { deques = int "deques"; heap = int "heap"; threads = int "threads" }
    | "fault_injected" ->
      Fault_injected { fault = Json.to_string_exn (Json.member "fault" j) }
    | "steal_rank" -> Steal_rank { victim = int "victim"; rank = int "rank"; err = int "err" }
    | s -> raise (Json.Parse_error ("unknown event kind " ^ s))
  in
  { ts = int "ts"; proc = int "proc"; tid = int "tid"; kind }

let pp ppf e =
  Format.fprintf ppf "[t=%d p=%d tid=%d] %s" e.ts e.proc e.tid (Json.to_string (to_json e))

(* Injectable yield points for the systematic concurrency checker.

   Concurrency-sensitive code (the work-stealing deque, the native pool's
   hot paths) calls [point id] at the instants where an adversarial
   scheduler could preempt it.  In production no handler is installed and
   a point is a single sequentially-consistent load of [None] — no
   allocation, no branch beyond the match.  The checker (lib/check) installs a handler
   for the duration of an exploration run; the handler itself decides
   whether the calling thread is one of the controlled threads (via
   domain-local state) and blocks it until the explorer schedules it. *)

let handler : (int -> unit) option Atomic.t = Atomic.make None

let install f = Atomic.set handler (Some f)

let uninstall () = Atomic.set handler None

let active () = Atomic.get handler <> None

let point id = match Atomic.get handler with None -> () | Some f -> f id

(* Yield-point ids.  Stable small ints so replay files stay readable and
   diffable; [name] renders them for traces. *)

let start = 0

let pool_push = 1

let pool_get = 2

let pool_pop_exact = 3

let pool_await = 4

let pool_fulfill = 5

let multiq_insert = 6

let multiq_remove = 7

let multiq_sample = 8

let multiq_remove_commit = 9

let lfdeque_push_cell = 10

let lfdeque_push_publish = 11

let lfdeque_pop_reserve = 12

let lfdeque_pop_race = 13

let lfdeque_steal_read = 14

let lfdeque_steal_cell = 15

let lfdeque_grow_publish = 16

let lfdeque_abandon = 17

let lfdeque_reap = 18

let lfdeque_steal_commit = 19

let pool_crash_flag = 20

let pool_quarantine = 21

let pool_orphan_push = 22

let pool_orphan_pop = 23

let pool_park = 24

let pool_signal = 25

let pool_request = 26

let pool_respond = 27

let task_work = 28

let names =
  [|
    "start";
    "pool_push";
    "pool_get";
    "pool_pop_exact";
    "pool_await";
    "pool_fulfill";
    "multiq_insert";
    "multiq_remove";
    "multiq_sample";
    "multiq_remove_commit";
    "lfdeque_push_cell";
    "lfdeque_push_publish";
    "lfdeque_pop_reserve";
    "lfdeque_pop_race";
    "lfdeque_steal_read";
    "lfdeque_steal_cell";
    "lfdeque_grow_publish";
    "lfdeque_abandon";
    "lfdeque_reap";
    "lfdeque_steal_commit";
    "pool_crash_flag";
    "pool_quarantine";
    "pool_orphan_push";
    "pool_orphan_pop";
    "pool_park";
    "pool_signal";
    "pool_request";
    "pool_respond";
    "task_work";
  |]

let name id = if id >= 0 && id < Array.length names then names.(id) else Printf.sprintf "p%d" id

let of_name s =
  let found = ref None in
  Array.iteri (fun i n -> if n = s then found := Some i) names;
  !found

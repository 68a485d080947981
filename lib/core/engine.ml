module Prog = Dfd_dag.Prog
module Action = Dfd_dag.Action
module Config = Dfd_machine.Config
module Memory = Dfd_machine.Memory
module Cache = Dfd_machine.Cache
module Metrics = Dfd_machine.Metrics
module Prng = Dfd_structures.Prng
module Tracer = Dfd_trace.Tracer
module Event = Dfd_trace.Event
module Watchdog = Dfd_structures.Watchdog
module Registry = Dfd_obs.Registry
module Headroom = Dfd_obs.Headroom
module T = Thread_state

(* Int-specialised: Stdlib's polymorphic max/min call the generic compare,
   and [stall] runs on every executed action. *)
let max (a : int) b = if a >= b then a else b

let min (a : int) b = if a <= b then a else b

exception Deadlock of string

exception Stuck of string

type result = {
  sched : string;
  time : int;
  work : int;
  heap_peak : int;
  combined_peak : int;
  threads_peak : int;
  threads_created : int;
  total_alloc : int;
  final_heap : int;
  steals : int;
  steal_attempts : int;
  local_dispatches : int;
  queue_dispatches : int;
  quota_exhaustions : int;
  dummy_threads : int;
  heavy_premature : int;
  deque_peak : int;
  sched_granularity : float;
  local_steal_ratio : float;
  load_imbalance : float;
  cache_accesses : int;
  cache_misses : int;
  cache_miss_rate : float;
  metrics : Metrics.t;
}

type sched =
  [ `Dfdeques | `Ws | `Adf | `Fifo | `Dfdeques_variant of Dfdeques.variant ]

let make_policy (s : sched) ctx =
  match s with
  | `Dfdeques -> Dfdeques.policy ctx
  | `Dfdeques_variant v -> Dfdeques.policy_with v ctx
  | `Ws -> Work_stealing.policy ctx
  | `Adf -> Depth_first.policy ctx
  | `Fifo -> Fifo_sched.policy ctx

let sched_name = function
  | `Dfdeques -> "DFD"
  | `Dfdeques_variant _ -> "DFD-variant"
  | `Ws -> "WS"
  | `Adf -> "ADF"
  | `Fifo -> "FIFO"

type mutex = {
  mutable holder : T.t option;
  waiters : T.t Queue.t;
  mutable bus_penalized_at : int;
      (* last timestep a spinner's coherence traffic already slowed the
         holder (test-and-set ping-pong is charged once per timestep) *)
}

exception Malformed_run of string

(* Mutex and condition-variable tables, keyed by the program's int ids and
   hashed by identity ([Int.hash] would still call the C [caml_hash]).
   Masking off the sign bit keeps negative ids' hashes non-negative. *)
module Id_tbl = Hashtbl.Make (struct
    type t = int

    let equal (a : int) b = a = b
    let hash x = x land max_int
  end)

let run ?(spin_locks = false) ?(check_invariants = false) ?(max_steps = 10_000_000_000)
    ?(tracer = Tracer.disabled) ?(no_progress_limit = 1000) ?observer
    ?sampler ?(registry = Registry.disabled) ?(flight = Tracer.disabled) ?headroom
    ~(sched : sched) (cfg : Config.t) (prog : Prog.t) : result =
  let p = cfg.p in
  let metrics = Metrics.create ~p in
  let rng = Prng.create cfg.seed in
  let ctx =
    { Sched_intf.cfg; metrics; rng; tracer; last_active = Array.make p 0; now = 0 }
  in
  let last_active = ctx.Sched_intf.last_active in
  (* A tracer's enabled flag is fixed for the run, so it is read once
     here.  The events both rings take (quota exhaustions, the per-step
     counter sample): the payload is built once, and only when a ring is
     live. *)
  let traced = Tracer.enabled tracer in
  let rings_live = traced || Tracer.enabled flight in
  let note_at ~ts ~proc ~tid kind =
    Tracer.emit tracer ~ts ~proc ~tid kind;
    Tracer.emit flight ~ts ~proc ~tid kind
  in
  let note ~proc ~tid kind = note_at ~ts:ctx.Sched_intf.now ~proc ~tid kind in
  let (Sched_intf.Packed ((module P), pol)) = make_policy sched ctx in
  let pool = T.create_pool () in
  let memory = Memory.create ~stack_bytes:cfg.stack_bytes in
  let cache = Option.map (fun geo -> Cache.create geo ~p) cfg.cache in
  let mutexes : mutex Id_tbl.t = Id_tbl.create 16 in
  let mutex m =
    match Id_tbl.find_opt mutexes m with
    | Some mu -> mu
    | None ->
      let mu = { holder = None; waiters = Queue.create (); bus_penalized_at = -1 } in
      Id_tbl.add mutexes m mu;
      mu
  in
  (* Condition variables: sticky (counted) signals + a waiter queue; a
     woken waiter re-acquires its mutex through the ordinary Lock path. *)
  let conds : (int ref * T.t Queue.t) Id_tbl.t = Id_tbl.create 16 in
  let cond cv =
    match Id_tbl.find_opt conds cv with
    | Some c -> c
    | None ->
      let c = (ref 0, Queue.create ()) in
      Id_tbl.add conds cv c;
      c
  in
  let curr : T.t option array = Array.make p None in
  (* First timestep at which the processor may act again. *)
  let avail = Array.make p 0 in
  let quota = Array.make p 0 in
  let finite_k = not (Config.is_infinite_threshold cfg) && P.has_quota in
  let k_bytes = if finite_k then Config.mem_threshold_exn cfg else max_int in
  Array.fill quota 0 p k_bytes;
  (* Reset the quota at a steal, first recording how much of K the
     processor consumed since the previous reset (skipped when nothing was
     used — idle steal retries would otherwise flood the histogram). *)
  let reset_quota proc =
    if finite_k then begin
      let used = k_bytes - quota.(proc) in
      if used > 0 then
        Metrics.record_quota_utilisation metrics (100.0 *. float_of_int used /. float_of_int k_bytes);
      quota.(proc) <- k_bytes
    end
  in
  (* Simulated global scheduler lock (costed mode only). *)
  let lock_free_at = ref 0 in
  let serialize proc =
    if cfg.queue_cost > 0 then begin
      let start = max ctx.now !lock_free_at in
      lock_free_at := start + cfg.queue_cost;
      avail.(proc) <- max avail.(proc) !lock_free_at
    end
  in
  (* No-progress watchdog: its snapshot closure renders the live scheduler
     state (policy counters, memory, per-processor activity, the recent
     trace ring) and runs only if the watchdog fires. *)
  let snapshot () =
    let b = Buffer.create 512 in
    Printf.bprintf b "=== engine diagnostic snapshot (t=%d) ===\n" ctx.Sched_intf.now;
    Printf.bprintf b "policy %s:" P.name;
    List.iter (fun (k, v) -> Printf.bprintf b " %s=%d" k v) (P.stat pol);
    Buffer.add_char b '\n';
    Printf.bprintf b "memory: heap=%d live_threads=%d\n" (Memory.heap_current memory)
      (Memory.live_threads memory);
    for proc = 0 to p - 1 do
      Printf.bprintf b "P%d: %s avail=%d\n" proc
        (match curr.(proc) with
         | Some th -> Format.asprintf "running %a" T.pp th
         | None -> "idle")
        avail.(proc)
    done;
    if traced then begin
      let evs = Tracer.events tracer in
      let n = List.length evs in
      let recent = if n > 15 then List.filteri (fun i _ -> i >= n - 15) evs else evs in
      Printf.bprintf b "last %d trace events:\n" (List.length recent);
      List.iter (fun e -> Printf.bprintf b "  %s\n" (Format.asprintf "%a" Event.pp e)) recent
    end;
    Buffer.contents b
  in
  let wd = Watchdog.create ~limit:no_progress_limit ~snapshot () in
  let progress () = Watchdog.touch wd ~now:ctx.Sched_intf.now in
  let root = T.make_root pool prog in
  Memory.thread_created memory;
  P.register_root pol root;
  (* Live exposition: probes close over this run's metrics/memory state,
     so the registry answers mid-run queries and holds the final values
     once the run returns (upsert registration rebinds the series on the
     next run sharing the registry; counters carry on from this run's
     totals). *)
  if Registry.enabled registry then begin
    let cp name help f = Registry.probe registry ~kind:`Counter ~help name f in
    let gp name help f = Registry.probe registry ~kind:`Gauge ~help name f in
    gp "dfd_engine_time" "Simulated timestep clock." (fun () -> ctx.Sched_intf.now);
    gp "dfd_engine_heap_bytes" "Live simulated heap bytes." (fun () -> Memory.heap_current memory);
    gp "dfd_engine_live_threads" "Live (created, not yet exited) threads." (fun () ->
        Memory.live_threads memory);
    gp "dfd_engine_deques" "Deques currently in the global list R." (fun () ->
        Metrics.deque_current metrics);
    cp "dfd_engine_actions_total" "Unit actions executed." (fun () -> Metrics.actions metrics);
    cp "dfd_engine_steals_total" "Successful steals." (fun () -> Metrics.steals metrics);
    cp "dfd_engine_steal_attempts_total" "Steal attempts." (fun () ->
        Metrics.steal_attempts metrics);
    cp "dfd_engine_local_dispatches_total" "Threads obtained without a steal." (fun () ->
        Metrics.local_dispatches metrics);
    cp "dfd_engine_queue_dispatches_total" "Global-queue dispatches (FIFO/ADF)." (fun () ->
        Metrics.queue_dispatches metrics);
    cp "dfd_engine_quota_exhaustions_total" "Memory-threshold give-ups (Figure 5)." (fun () ->
        Metrics.quota_exhaustions metrics);
    cp "dfd_engine_dummy_threads_total" "Dummy threads of the Section 3.3 transformation."
      (fun () -> Metrics.dummies metrics);
    cp "dfd_engine_heavy_premature_total" "Heavy premature nodes (Lemma 4.2)." (fun () ->
        Metrics.heavy_prematures metrics);
    Registry.probe_histogram registry
      ~help:"Fork depth at which heavy premature nodes were stolen." "dfd_engine_premature_depth"
      (fun () -> Registry.hist_of_stats (Metrics.premature_depth metrics))
  end;
  let malformed msg = raise (Malformed_run msg) in

  (* Charge the current processor [extra] stall timesteps beyond this one. *)
  let stall proc extra = avail.(proc) <- max avail.(proc) (ctx.now + 1 + extra) in

  (* Shared by Unlock and Wait: release a held mutex, waking the first lock
     waiter (which must re-acquire when scheduled — no handoff). *)
  let release_mutex proc th m =
    let mu = mutex m in
    (match mu.holder with
     | Some h when h == th -> ()
     | _ -> malformed "unlock/wait on a mutex not held by the current thread");
    mu.holder <- None;
    match Queue.take_opt mu.waiters with
    | None -> ()
    | Some w ->
      w.T.state <- T.Ready;
      w.T.ready_at <- ctx.now;
      P.on_wake_lock pol ~proc w
  in
  let wake_cond_waiter proc w =
    w.T.state <- T.Ready;
    w.T.ready_at <- ctx.now;
    P.on_wake_lock pol ~proc w
  in

  (* Execute exactly one unit-starting action of [th] on [proc]; consumes
     the timestep. *)
  let execute_action proc th (a : Action.t) cont =
    th.T.prog <- cont;
    (* Action.work_units and Action.depth_units, inlined: only Alloc's
       depth needs the call. *)
    let units = match a with Action.Work n -> n | _ -> 1 in
    Metrics.action_executed metrics ~proc ~units;
    last_active.(proc) <- ctx.Sched_intf.now;
    if traced then
      Tracer.emit tracer ~ts:ctx.Sched_intf.now ~proc ~tid:th.T.tid
        (Event.Action_batch { units });
    (match observer with Some f -> f ~now:ctx.Sched_intf.now ~proc th a | None -> ());
    progress ();
    let extra =
      match a with
      | Action.Work n -> n - 1
      | Action.Alloc _ -> Action.depth_units a - 1
      | _ -> 0
    in
    let extra =
      match a with
      | Action.Touch addrs -> (
          match cache with
          | Some c ->
            let misses = Cache.access_many c ~proc addrs in
            let stall = misses * cfg.miss_penalty in
            if misses > 0 && traced then
              Tracer.emit tracer ~ts:ctx.Sched_intf.now ~proc ~tid:th.T.tid
                (Event.Cache_miss_stall { misses; stall });
            extra + stall
          | None -> extra)
      | Action.Alloc n ->
        Memory.alloc memory n;
        th.T.big_alloc_pending <- false;
        if finite_k then quota.(proc) <- quota.(proc) - n;
        extra
      | Action.Free n ->
        Memory.free memory n;
        (* The quota is the NET allocation between steals (Section 3.3):
           deallocations earn the quota back, capped at K. *)
        if finite_k then quota.(proc) <- min k_bytes (quota.(proc) + n);
        extra
      | Action.Dummy ->
        Metrics.dummy_executed metrics;
        if traced then
          Tracer.emit tracer ~ts:ctx.Sched_intf.now ~proc ~tid:th.T.tid Event.Dummy_exec;
        extra
      | Action.Unlock m ->
        (* Pthreads semantics: the woken waiter becomes ready and must
           re-acquire the mutex when scheduled (it may lose the race to a
           running thread — no handoff, no parked holders). *)
        release_mutex proc th m;
        extra
      | Action.Signal cv ->
        let pending, waiters = cond cv in
        (match Queue.take_opt waiters with
         | Some w -> wake_cond_waiter proc w
         | None -> incr pending);
        extra
      | Action.Broadcast cv ->
        let _, waiters = cond cv in
        Queue.iter (fun w -> wake_cond_waiter proc w) waiters;
        Queue.clear waiters;
        extra
      | Action.Lock _ | Action.Work _ | Action.Wait _ -> extra
    in
    stall proc extra
  in

  (* Per-processor turn: free scheduler transitions, then at most one unit
     action (or one steal attempt).  [stole] records whether this timestep
     was already consumed by a steal/dispatch. *)
  let turn proc =
    let stole = ref false in
    let finished = ref false in
    while not !finished do
      match curr.(proc) with
      | None ->
        if !stole then finished := true
        else (
          match P.acquire pol ~proc with
          | Sched_intf.No_work ->
            reset_quota proc;
            if P.global_queue then serialize proc;
            if cfg.steal_cost > 1 && not P.global_queue then stall proc (cfg.steal_cost - 1);
            stole := true
          | Sched_intf.Got_local th ->
            last_active.(proc) <- ctx.now;
            th.T.state <- T.Running;
            curr.(proc) <- Some th;
            (* A thread parked this very timestep (by a fork on another
               processor, or a mutex wake) may not run before the next
               timestep: its enabling node just executed. *)
            if th.T.ready_at = ctx.now then finished := true
          | Sched_intf.Got_steal th ->
            reset_quota proc;
            last_active.(proc) <- ctx.now;
            if P.global_queue then serialize proc;
            if cfg.steal_cost > 1 && not P.global_queue then stall proc (cfg.steal_cost - 1);
            th.T.state <- T.Running;
            curr.(proc) <- Some th;
            if th.T.ready_at = ctx.now then finished := true;
            stole := true)
      | Some th -> (
          match th.T.prog with
          | Prog.Nil ->
            (* Termination is a free transition: the thread's last action ran
               in an earlier timestep. *)
            if th.T.unjoined <> [] then malformed "thread terminated with unjoined children";
            T.kill pool th;
            Memory.thread_exited memory;
            curr.(proc) <- None;
            let woken =
              match th.T.join_waiter with
              | Some parent ->
                th.T.join_waiter <- None;
                parent.T.state <- T.Ready;
                Some parent
              | None -> None
            in
            if th.T.is_dummy then P.after_dummy pol ~proc ~woken
            else (
              match P.on_terminate pol ~proc ~dead:th ~woken with
              | Some next ->
                next.T.state <- T.Running;
                curr.(proc) <- Some next
              | None -> ())
          | Prog.Join k -> (
              match th.T.unjoined with
              | [] -> malformed "join without an unjoined child"
              | c :: rest ->
                if T.dead c then begin
                  th.T.unjoined <- rest;
                  th.T.prog <- k
                end
                else begin
                  (* Suspend: free transition. *)
                  if traced then
                    Tracer.emit tracer ~ts:ctx.now ~proc ~tid:th.T.tid
                      (Event.Join { child = c.T.tid });
                  th.T.state <- T.Blocked_join;
                  c.T.join_waiter <- Some th;
                  P.on_suspend pol ~proc th;
                  curr.(proc) <- None
                end)
          | Prog.Act (Action.Alloc n, _) when finite_k && n > k_bytes && not th.T.big_alloc_pending
            ->
            (* Section 3.3: delay the big allocation behind a dummy-thread
               fork tree (runtime dag transformation; free).  The flag makes
               the allocation proceed once its dummies have run. *)
            th.T.big_alloc_pending <- true;
            (match th.T.prog with
             | Prog.Act (_, k) -> th.T.prog <- Dummy.transform ~alloc:n ~k:k_bytes ~cont:k
             | _ -> assert false)
          | Prog.Act (Action.Alloc n, _)
            when finite_k && quota.(proc) < n && n <= k_bytes && not th.T.big_alloc_pending ->
            (* Memory quota exhausted: preempt (free transition). *)
            Metrics.quota_exhausted metrics;
            if rings_live then
              note ~proc ~tid:th.T.tid
                (Event.Quota_exhausted { used = k_bytes - quota.(proc); quota = k_bytes });
            th.T.state <- T.Ready;
            P.on_quota_exhausted pol ~proc th;
            curr.(proc) <- None
          | Prog.Act (Action.Wait (cv, m), k) ->
            (* release the mutex, then either consume a sticky signal (the
               wait node executes and the thread proceeds to re-acquire) or
               park on the condition variable (free transition). *)
            release_mutex proc th m;
            let pending, waiters = cond cv in
            let reacquire = Prog.Act (Action.Lock m, k) in
            if !pending > 0 then begin
              decr pending;
              execute_action proc th (Action.Wait (cv, m)) reacquire;
              finished := true
            end
            else begin
              th.T.prog <- reacquire;
              th.T.state <- T.Blocked_cond cv;
              Queue.push th waiters;
              P.on_suspend pol ~proc th;
              curr.(proc) <- None
            end
          | Prog.Act (Action.Lock m, k) -> (
              let mu = mutex m in
              match mu.holder with
              | None ->
                mu.holder <- Some th;
                execute_action proc th (Action.Lock m) k;
                finished := true
              | Some holder when spin_locks ->
                (* Busy-wait: burn this timestep, retry next.  The spinner's
                   test-and-set traffic also slows the lock holder (cache-line
                   ping-pong), charged at most once per mutex per timestep. *)
                if traced then
                  Tracer.emit tracer ~ts:ctx.now ~proc ~tid:th.T.tid
                    (Event.Lock_wait { mutex = m });
                stall proc 0;
                (* at most one 2-step penalty per 3 timesteps: the holder is
                   slowed ~2-3x under contention, never starved *)
                if mu.bus_penalized_at < ctx.now - 2 then begin
                  mu.bus_penalized_at <- ctx.now;
                  Array.iteri
                    (fun q t ->
                       match t with
                       | Some th' when th' == holder -> avail.(q) <- max avail.(q) (ctx.now + 2)
                       | _ -> ())
                    curr
                end;
                finished := true
              | Some _ ->
                if traced then
                  Tracer.emit tracer ~ts:ctx.now ~proc ~tid:th.T.tid
                    (Event.Lock_wait { mutex = m });
                th.T.state <- T.Blocked_lock m;
                Queue.push th mu.waiters;
                P.on_suspend pol ~proc th;
                curr.(proc) <- None)
          | Prog.Act (a, k) ->
            execute_action proc th a k;
            finished := true
          | Prog.Fork (child_thunk, k) ->
            (* The fork is a unit action in the parent thread. *)
            th.T.prog <- k;
            let child_prog = child_thunk () in
            let child =
              if Dummy.is_dummy_prog child_prog then T.fork_dummy pool ~parent:th
              else T.fork pool ~parent:th child_prog
            in
            Memory.thread_created memory;
            Metrics.action_executed metrics ~proc ~units:1;
            last_active.(proc) <- ctx.now;
            if traced then begin
              Tracer.emit tracer ~ts:ctx.now ~proc ~tid:th.T.tid
                (Event.Fork { child = child.T.tid });
              Tracer.emit tracer ~ts:ctx.now ~proc ~tid:th.T.tid
                (Event.Action_batch { units = 1 })
            end;
            (* the fork is one unit action of the parent; observers see it
               as Work 1, matching Analysis.iter_serial *)
            (match observer with
             | Some f -> f ~now:ctx.Sched_intf.now ~proc th (Action.Work 1)
             | None -> ());
            progress ();
            let pressure =
              if Memory.live_threads memory > cfg.stack_pressure_threshold then
                cfg.stack_pressure_cost
              else 0
            in
            stall proc (cfg.thread_cost + pressure);
            th.T.state <- T.Ready;
            let next = P.on_fork pol ~proc ~parent:th ~child in
            (* Whichever of the two was parked became ready only now. *)
            (if next == child then th.T.ready_at <- ctx.now
             else child.T.ready_at <- ctx.now);
            next.T.state <- T.Running;
            curr.(proc) <- Some next;
            finished := true)
    done
  in

  while root.T.state <> T.Done do
    let step = ctx.now + 1 in
    if step > max_steps then raise (Stuck (Printf.sprintf "exceeded %d timesteps" max_steps));
    (* If every processor is stalled (= executing) up to [first_free], the
       steps before it run no turn: they draw no PRNG value, and the state
       cannot change.  The clock jumps over them in one assignment
       (stopping at [max_steps]), and the end-of-step observers below take
       the whole span [step, ctx.now]. *)
    (* A branch-free min, unchecked past [avail.(0)]: every index here and
       in the turn loop below is a processor < p, the length of [avail].
       The difference of two non-negative timesteps cannot overflow, and
       its sign mask selects the smaller. *)
    let first_free = ref avail.(0) in
    for proc = 1 to p - 1 do
      let d = Array.unsafe_get avail proc - !first_free in
      first_free := !first_free + (d land (d asr (Sys.int_size - 1)))
    done;
    if !first_free > step then begin
      ctx.now <- min (!first_free - 1) max_steps;
      progress ()
    end
    else begin
      ctx.now <- step;
      (* A stalled processor is executing, which is progress.  Every touch
         in a step writes the same [now], so one touch covers them all. *)
      let any_stalled = ref false in
      for proc = 0 to p - 1 do
        if Array.unsafe_get avail proc > ctx.now then any_stalled := true else turn proc
      done;
      if !any_stalled then progress ()
    end;
    (* Over a jumped span the state is constant: the invariant check, the
       headroom gauges and the watchdog need one look, while the counter
       track and the sampler still see every step of it. *)
    if check_invariants then P.check_invariants pol;
    (* The flight ring keeps this machine-wide counter track in its last
       lane: on a wedge the dump shows the final few hundred timesteps of
       heap / thread / deque history next to the per-proc quota events. *)
    if rings_live then begin
      let sample =
        Event.Counter
          {
            deques = Metrics.deque_current metrics;
            heap = Memory.heap_current memory;
            threads = Memory.live_threads memory;
          }
      in
      for ts = step to ctx.now do
        note_at ~ts ~proc:(-1) ~tid:(-1) sample
      done
    end;
    (match headroom with
     | Some hr ->
       Headroom.observe hr ~live_bytes:(Memory.heap_current memory);
       Headroom.set_premature hr (Metrics.heavy_prematures metrics)
     | None -> ());
    (match sampler with
     | Some (every, f) ->
       let ts = ref (step + ((every - (step mod every)) mod every)) in
       while !ts <= ctx.now do
         f ~now:!ts ~heap:(Memory.heap_current memory) ~threads:(Memory.live_threads memory)
           ~deques:(Metrics.deque_current metrics);
         ts := !ts + every
       done
     | None -> ());
    (try Watchdog.check wd ~now:ctx.now with
     | Watchdog.No_progress { idle; snapshot; _ } ->
       raise
         (Deadlock
            (Printf.sprintf "no progress for %d timesteps at t=%d (%d live threads)\n%s" idle
               ctx.now
               (Memory.live_threads memory)
               snapshot)))
  done;
  {
    sched = P.name;
    time = ctx.now;
    work = Metrics.actions metrics;
    heap_peak = Memory.heap_peak memory;
    combined_peak = Memory.combined_peak memory;
    threads_peak = Memory.live_threads_peak memory;
    threads_created = T.threads_created pool;
    total_alloc = Memory.total_allocated memory;
    final_heap = Memory.heap_current memory;
    steals = Metrics.steals metrics;
    steal_attempts = Metrics.steal_attempts metrics;
    local_dispatches = Metrics.local_dispatches metrics;
    queue_dispatches = Metrics.queue_dispatches metrics;
    quota_exhaustions = Metrics.quota_exhaustions metrics;
    dummy_threads = Metrics.dummies metrics;
    heavy_premature = Metrics.heavy_prematures metrics;
    deque_peak = Metrics.deque_peak metrics;
    sched_granularity = Metrics.sched_granularity metrics;
    local_steal_ratio = Metrics.local_steal_ratio metrics;
    load_imbalance = Metrics.load_imbalance metrics;
    cache_accesses = (match cache with Some c -> Cache.accesses c | None -> 0);
    cache_misses = (match cache with Some c -> Cache.misses c | None -> 0);
    cache_miss_rate = (match cache with Some c -> Cache.miss_rate c | None -> 0.0);
    metrics;
  }

module Json = Dfd_trace.Json

let histogram_to_json h =
  let module H = Dfd_structures.Stats.Histogram in
  let opt = function Some v -> Json.Float v | None -> Json.Null in
  Json.Assoc
    [
      ("count", Json.Int (H.count h));
      ("mean", opt (H.mean_opt h));
      ("min", opt (H.min_opt h));
      ("max", opt (H.max_opt h));
      ("p50", opt (H.quantile h 0.5));
      ("p90", opt (H.quantile h 0.9));
      ("p99", opt (H.quantile h 0.99));
      ( "buckets",
        Json.List
          (List.map
             (fun (le, count) ->
                Json.Assoc [ ("le", Json.Float le); ("count", Json.Int count) ])
             (H.buckets h)) );
    ]

let result_to_json r =
  let ints l = Json.List (List.map (fun n -> Json.Int n) (Array.to_list l)) in
  Json.Assoc
    [
      ("sched", Json.String r.sched);
      ( "counters",
        Json.Assoc
          [
            ("time", Json.Int r.time);
            ("work", Json.Int r.work);
            ("heap_peak", Json.Int r.heap_peak);
            ("combined_peak", Json.Int r.combined_peak);
            ("threads_peak", Json.Int r.threads_peak);
            ("threads_created", Json.Int r.threads_created);
            ("total_alloc", Json.Int r.total_alloc);
            ("final_heap", Json.Int r.final_heap);
            ("steals", Json.Int r.steals);
            ("steal_attempts", Json.Int r.steal_attempts);
            ("local_dispatches", Json.Int r.local_dispatches);
            ("queue_dispatches", Json.Int r.queue_dispatches);
            ("quota_exhaustions", Json.Int r.quota_exhaustions);
            ("dummy_threads", Json.Int r.dummy_threads);
            ("heavy_premature", Json.Int r.heavy_premature);
            ("deque_peak", Json.Int r.deque_peak);
            ("cache_accesses", Json.Int r.cache_accesses);
            ("cache_misses", Json.Int r.cache_misses);
          ] );
      ( "derived",
        Json.Assoc
          [
            ("sched_granularity", Json.Float r.sched_granularity);
            ("local_steal_ratio", Json.Float r.local_steal_ratio);
            ("load_imbalance", Json.Float r.load_imbalance);
            ("cache_miss_rate", Json.Float r.cache_miss_rate);
          ] );
      ( "histograms",
        Json.Assoc
          [
            ("steal_latency", histogram_to_json (Metrics.steal_latency r.metrics));
            ("deque_residency", histogram_to_json (Metrics.deque_residency r.metrics));
            ("quota_utilisation", histogram_to_json (Metrics.quota_utilisation r.metrics));
            ("premature_depth", histogram_to_json (Metrics.premature_depth r.metrics));
          ] );
      ("per_proc_actions", ints (Metrics.per_proc_actions r.metrics));
      ("per_victim_steals", ints (Metrics.per_victim_steals r.metrics));
    ]

let pp_result ppf r =
  Format.fprintf ppf
    "@[<v>[%s] T=%d W=%d@,heap peak=%d combined peak=%d threads peak=%d (created %d)@,\
     steals=%d/%d local=%d queue=%d quota=%d dummies=%d deques<=%d@,\
     granularity=%.2f local/steal=%.2f imbalance=%.2f cache: %d/%d (%.2f%% miss)@]"
    r.sched r.time r.work r.heap_peak r.combined_peak r.threads_peak r.threads_created r.steals
    r.steal_attempts r.local_dispatches r.queue_dispatches r.quota_exhaustions r.dummy_threads
    r.deque_peak r.sched_granularity r.local_steal_ratio r.load_imbalance r.cache_accesses
    r.cache_misses r.cache_miss_rate

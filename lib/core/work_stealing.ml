module Deque = Dfd_structures.Deque
module Prng = Dfd_structures.Prng
module Metrics = Dfd_machine.Metrics
module Tracer = Dfd_trace.Tracer
module Event = Dfd_trace.Event

module P = struct
  type t = {
    ctx : Sched_intf.ctx;
    deques : Thread_state.t Deque.t array;  (** one fixed deque per processor. *)
    hit_at : int array;  (** per-victim steal arbitration, as in DFDeques. *)
  }

  let name = "WS"

  let global_queue = false

  let has_quota = false

  let create ctx =
    let p = ctx.Sched_intf.cfg.Dfd_machine.Config.p in
    { ctx; deques = Array.init p (fun _ -> Deque.create ()); hit_at = Array.make p (-1) }

  let register_root t root = Deque.push_top t.deques.(0) root

  let steal t ~proc : Sched_intf.acquired =
    let ctx = t.ctx in
    Metrics.steal_attempt ctx.Sched_intf.metrics;
    let p = ctx.Sched_intf.cfg.Dfd_machine.Config.p in
    let victim = Prng.int ctx.Sched_intf.rng p in
    if Tracer.enabled ctx.Sched_intf.tracer then
      Tracer.emit ctx.Sched_intf.tracer ~ts:ctx.Sched_intf.now ~proc ~tid:(-1)
        (Event.Steal_attempt { victim });
    if victim = proc then No_work
    else if t.hit_at.(victim) = ctx.Sched_intf.now then No_work
    else (
      match Deque.pop_bottom t.deques.(victim) with
      | None -> No_work
      | Some th ->
        t.hit_at.(victim) <- ctx.Sched_intf.now;
        Metrics.steal_success ctx.Sched_intf.metrics;
        Metrics.steal_from ctx.Sched_intf.metrics ~victim;
        let latency = ctx.Sched_intf.now - ctx.Sched_intf.last_active.(proc) in
        Metrics.record_steal_latency ctx.Sched_intf.metrics latency;
        if Tracer.enabled ctx.Sched_intf.tracer then
          Tracer.emit ctx.Sched_intf.tracer ~ts:ctx.Sched_intf.now ~proc
            ~tid:th.Thread_state.tid
            (Event.Steal_success { victim; latency });
        Got_steal th)

  let acquire t ~proc : Sched_intf.acquired =
    match Deque.pop_top t.deques.(proc) with
    | Some th ->
      Metrics.local_dispatch t.ctx.Sched_intf.metrics;
      Got_local th
    | None -> steal t ~proc

  let on_fork t ~proc ~parent ~child =
    Deque.push_top t.deques.(proc) parent;
    child

  let on_suspend _t ~proc:_ _th = ()

  let on_terminate _t ~proc:_ ~dead:_ ~woken = woken

  let on_quota_exhausted _t ~proc:_ _th =
    failwith "WS has no memory quota (infinite threshold)"

  let after_dummy _t ~proc:_ ~woken:_ =
    failwith "WS never executes dummy threads"

  let on_wake_lock t ~proc th = Deque.push_top t.deques.(proc) th

  (* Per-deque 1DF priority ordering holds for nested-parallel programs in
     WS as well (each deque is a chain of ancestors' continuations). *)
  let check_invariants t =
    Array.iter
      (fun dq ->
         let prev = ref None in
         Deque.iter_top_first
           (fun th ->
              (match !prev with
               | Some before ->
                 if not (Thread_state.higher_priority before th) then
                   failwith "WS deque not in priority order"
               | None -> ());
              prev := Some th)
           dq)
      t.deques

  let stat t =
    [ ("ready", Array.fold_left (fun acc d -> acc + Deque.length d) 0 t.deques) ]
end

let policy ctx = Sched_intf.Packed ((module P), P.create ctx)

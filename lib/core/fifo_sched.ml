module Metrics = Dfd_machine.Metrics

module P = struct
  type t = { ctx : Sched_intf.ctx; q : Thread_state.t Queue.t }

  let name = "FIFO"

  let global_queue = true

  let has_quota = false

  let create ctx = { ctx; q = Queue.create () }

  let register_root t root = Queue.push root t.q

  let acquire t ~proc : Sched_intf.acquired =
    match Queue.take_opt t.q with
    | Some th ->
      let ctx = t.ctx in
      Metrics.queue_dispatch ctx.Sched_intf.metrics;
      let latency = ctx.Sched_intf.now - ctx.Sched_intf.last_active.(proc) in
      Metrics.record_steal_latency ctx.Sched_intf.metrics latency;
      if Dfd_trace.Tracer.enabled ctx.Sched_intf.tracer then
        Dfd_trace.Tracer.emit ctx.Sched_intf.tracer ~ts:ctx.Sched_intf.now ~proc
          ~tid:th.Thread_state.tid
          (Dfd_trace.Event.Steal_success { victim = -1; latency });
      Got_steal th
    | None -> No_work

  let on_fork t ~proc:_ ~parent ~child =
    (* pthread_create semantics: the new thread enters the run queue, the
       creator continues. *)
    Queue.push child t.q;
    parent

  let on_suspend _t ~proc:_ _th = ()

  let on_terminate t ~proc:_ ~dead:_ ~woken =
    (match woken with Some th -> Queue.push th t.q | None -> ());
    None

  let on_quota_exhausted _t ~proc:_ _th = failwith "FIFO has no memory quota"

  let after_dummy _t ~proc:_ ~woken:_ = failwith "FIFO never executes dummy threads"

  let on_wake_lock t ~proc:_ th = Queue.push th t.q

  let check_invariants t =
    Queue.iter
      (fun th ->
         if not (Thread_state.is_ready th) then failwith "FIFO queue holds non-ready thread")
      t.q

  let stat t = [ ("ready", Queue.length t.q) ]
end

let policy ctx = Sched_intf.Packed ((module P), P.create ctx)

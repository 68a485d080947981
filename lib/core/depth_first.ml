module Pheap = Dfd_structures.Pheap
module Metrics = Dfd_machine.Metrics

module P = struct
  type t = { ctx : Sched_intf.ctx; ready : Thread_state.t Pheap.t }

  let name = "ADF"

  let global_queue = true

  let has_quota = true

  let create ctx =
    {
      ctx;
      ready =
        Pheap.create ~leq:(fun a b ->
            Thread_state.higher_priority a b || a == b);
    }

  let register_root t root = Pheap.insert t.ready root

  let acquire t ~proc : Sched_intf.acquired =
    match Pheap.pop_min t.ready with
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
    (* Depth-first: run the child; the parent re-enters the global queue
       where any processor may pick it up (Figure 3(b)'s scattering). *)
    Pheap.insert t.ready parent;
    child

  let on_suspend _t ~proc:_ _th = ()

  let on_terminate _t ~proc:_ ~dead:_ ~woken = woken

  let on_quota_exhausted t ~proc:_ th = Pheap.insert t.ready th

  let after_dummy t ~proc:_ ~woken =
    match woken with Some th -> Pheap.insert t.ready th | None -> ()

  let on_wake_lock t ~proc:_ th = Pheap.insert t.ready th

  let check_invariants t =
    List.iter
      (fun th ->
         if not (Thread_state.is_ready th) then failwith "ADF ready-heap holds non-ready thread")
      (Pheap.to_list_unordered t.ready)

  let stat t = [ ("ready", Pheap.size t.ready) ]
end

let policy ctx = Sched_intf.Packed ((module P), P.create ctx)

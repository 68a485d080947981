module Dll = Dfd_structures.Dll
module Deque = Dfd_structures.Deque
module Prng = Dfd_structures.Prng
module Metrics = Dfd_machine.Metrics
module Tracer = Dfd_trace.Tracer
module Event = Dfd_trace.Event

type variant = { steal_from_top : bool; victim_anywhere : bool }

let paper_variant = { steal_from_top = false; victim_anywhere = false }

module P = struct
  type deque = {
    dq : Thread_state.t Deque.t;
    mutable owner : int option;
    mutable hit_at : int;  (** timestep of the last successful steal from this
                               deque — at most one steal per deque per timestep
                               succeeds (Section 4.1 cost model). *)
    did : int;
    born : int;  (** timestep the deque entered R (residency tracking). *)
  }

  type t = {
    ctx : Sched_intf.ctx;
    r : deque Dll.t;  (** the global deque list R, highest priority leftmost. *)
    proc : deque Dll.node option array;  (** deque owned by each processor. *)
    mutable next_did : int;
    variant : variant;  (** ablation knobs; {!paper_variant} = Figure 5. *)
  }

  let name = "DFDeques"

  let global_queue = false

  let has_quota = true

  let create_with variant ctx =
    {
      ctx;
      r = Dll.create ();
      proc = Array.make ctx.Sched_intf.cfg.Dfd_machine.Config.p None;
      next_did = 0;
      variant;
    }

  let create ctx = create_with paper_variant ctx

  let new_deque t ~proc ~owner =
    let now = t.ctx.Sched_intf.now in
    let d = { dq = Deque.create (); owner; hit_at = -1; did = t.next_did; born = now } in
    t.next_did <- t.next_did + 1;
    if Tracer.enabled t.ctx.Sched_intf.tracer then
      Tracer.emit t.ctx.Sched_intf.tracer ~ts:now ~proc ~tid:(-1)
        (Event.Deque_created { did = d.did });
    d

  (* Every removal of a deque from R goes through here: record its
     residency (how long it sat in the globally ordered list). *)
  let remove_deque t ~proc node =
    let d = Dll.value node in
    let residency = t.ctx.Sched_intf.now - d.born in
    Metrics.record_deque_residency t.ctx.Sched_intf.metrics residency;
    if Tracer.enabled t.ctx.Sched_intf.tracer then
      Tracer.emit t.ctx.Sched_intf.tracer ~ts:t.ctx.Sched_intf.now ~proc ~tid:(-1)
        (Event.Deque_deleted { did = d.did; residency });
    Dll.remove t.r node

  let note_deques t = Metrics.deques_changed t.ctx.Sched_intf.metrics (Dll.length t.r)

  let register_root t root =
    (* The computation starts with the root thread in a single ownerless
       deque; the first successful steal picks it up. *)
    let d = new_deque t ~proc:(-1) ~owner:None in
    Deque.push_top d.dq root;
    ignore (Dll.push_front t.r d);
    note_deques t

  (* One steal attempt (one iteration of the steal() loop in Figure 5). *)
  let steal t ~proc : Sched_intf.acquired =
    let ctx = t.ctx in
    Metrics.steal_attempt ctx.Sched_intf.metrics;
    (* ablation: the paper targets the leftmost p deques (keeping steals
       near the depth-first frontier); victim_anywhere targets uniformly
       over all of R *)
    let bound =
      if t.variant.victim_anywhere then max 1 (Dll.length t.r)
      else ctx.Sched_intf.cfg.Dfd_machine.Config.p
    in
    let k = Prng.int ctx.Sched_intf.rng bound in
    if Tracer.enabled ctx.Sched_intf.tracer then
      Tracer.emit ctx.Sched_intf.tracer ~ts:ctx.Sched_intf.now ~proc ~tid:(-1)
        (Event.Steal_attempt { victim = k });
    match Dll.nth_node t.r k with
    | None -> No_work
    | Some node ->
      let d = Dll.value node in
      if d.hit_at = ctx.Sched_intf.now then No_work (* lost the per-timestep arbitration *)
      else (
        (* ablation: the paper steals the bottom (coarsest) thread;
           steal_from_top takes the finest instead *)
        match
          (if t.variant.steal_from_top then Deque.pop_top else Deque.pop_bottom) d.dq
        with
        | None -> No_work
        | Some th ->
          d.hit_at <- ctx.Sched_intf.now;
          Metrics.steal_success ctx.Sched_intf.metrics;
          (* the victim distribution is over deque slots of R (leftmost =
             0), the frontier-locality quantity of Section 3 *)
          Metrics.steal_from ctx.Sched_intf.metrics ~victim:k;
          let latency = ctx.Sched_intf.now - ctx.Sched_intf.last_active.(proc) in
          Metrics.record_steal_latency ctx.Sched_intf.metrics latency;
          if Tracer.enabled ctx.Sched_intf.tracer then
            Tracer.emit ctx.Sched_intf.tracer ~ts:ctx.Sched_intf.now ~proc ~tid:th.Thread_state.tid
              (Event.Steal_success { victim = k; latency });
          (* Section 4.2 instrumentation: the stolen thread's first node is
             heavy; it is premature unless no ready thread precedes it in
             the 1DF order, i.e. unless it came alone from the leftmost
             deque (Lemma 3.1 makes the leftmost top the global maximum). *)
          let was_leftmost =
            match Dll.front t.r with Some f -> Dll.value f == d | None -> false
          in
          if not (was_leftmost && Deque.is_empty d.dq) then
            Metrics.heavy_premature ctx.Sched_intf.metrics ~depth:th.Thread_state.depth;
          let nd = new_deque t ~proc ~owner:(Some proc) in
          let new_node = Dll.insert_after t.r node nd in
          (* Stealing the last thread of an ownerless deque deletes it. *)
          if Deque.is_empty d.dq && d.owner = None then remove_deque t ~proc node;
          t.proc.(proc) <- Some new_node;
          note_deques t;
          Got_steal th)

  let acquire t ~proc : Sched_intf.acquired =
    match t.proc.(proc) with
    | Some node -> (
        let d = Dll.value node in
        match Deque.pop_top d.dq with
        | Some th ->
          Metrics.local_dispatch t.ctx.Sched_intf.metrics;
          Got_local th
        | None ->
          (* Idle owner of an empty deque: delete it and steal. *)
          d.owner <- None;
          remove_deque t ~proc node;
          t.proc.(proc) <- None;
          note_deques t;
          steal t ~proc)
    | None -> steal t ~proc

  let own_deque t proc =
    match t.proc.(proc) with
    | Some node -> Dll.value node
    | None ->
      (* A processor executing a thread always owns a deque (it obtained the
         thread from one).  Defensive: adopt a fresh leftmost deque. *)
      let d = new_deque t ~proc ~owner:(Some proc) in
      let node = Dll.push_front t.r d in
      t.proc.(proc) <- Some node;
      note_deques t;
      d

  let on_fork t ~proc ~parent ~child =
    let d = own_deque t proc in
    Deque.push_top d.dq parent;
    ignore child;
    child

  let on_suspend _t ~proc:_ _th = ()

  let on_terminate _t ~proc:_ ~dead:_ ~woken =
    (* Figure 5, case (terminate): continue with the reawakened parent (its
       deque is provably empty at this point for nested-parallel programs). *)
    woken

  let give_up_deque t ~proc =
    match t.proc.(proc) with
    | None -> ()
    | Some node ->
      let d = Dll.value node in
      d.owner <- None;
      if Deque.is_empty d.dq then remove_deque t ~proc node;
      t.proc.(proc) <- None;
      note_deques t

  let on_quota_exhausted t ~proc th =
    (* Figure 5, case (memory quota exhausted): push the current thread and
       give up the deque, leaving it in R for thieves. *)
    let d = own_deque t proc in
    Deque.push_top d.dq th;
    give_up_deque t ~proc

  let after_dummy t ~proc ~woken =
    (match woken with
     | Some th -> Deque.push_top (own_deque t proc).dq th
     | None -> ());
    give_up_deque t ~proc

  let on_wake_lock t ~proc th =
    (* Pthreads extension (Section 5): a thread reawakened by a mutex
       release is placed on the waking processor's deque. *)
    Deque.push_top (own_deque t proc).dq th

  (* Lemma 3.1: flattening R left-to-right, each deque top-to-bottom, the
     thread priorities must be strictly decreasing (1DF order increasing). *)
  let check_invariants t =
    let prev = ref None in
    Dll.iter
      (fun d ->
         Deque.iter_top_first
           (fun th ->
              (match !prev with
               | Some before ->
                 if not (Thread_state.higher_priority before th) then
                   failwith
                     (Format.asprintf "Lemma 3.1 violated: %a not before %a" Thread_state.pp
                        before Thread_state.pp th)
               | None -> ());
              prev := Some th)
           d.dq)
      t.r

  let stat t =
    let owned = Array.fold_left (fun acc o -> acc + if o = None then 0 else 1) 0 t.proc in
    [ ("deques", Dll.length t.r); ("owned_deques", owned); ("deques_created", t.next_did) ]
end

let policy ctx = Sched_intf.Packed ((module P), P.create ctx)

let policy_with variant ctx = Sched_intf.Packed ((module P), P.create_with variant ctx)

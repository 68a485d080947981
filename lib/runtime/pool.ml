module Lfdeque = Dfd_structures.Lfdeque
module Multiq = Dfd_structures.Multiq
module Stats = Dfd_structures.Stats
module Prng = Dfd_structures.Prng
module Schedpoint = Dfd_structures.Schedpoint
module Tracer = Dfd_trace.Tracer
module Event = Dfd_trace.Event
module Fault = Dfd_fault.Fault
module Registry = Dfd_obs.Registry
module Flight = Dfd_obs.Flight

exception Not_in_pool

exception Nested_run

exception Timeout

exception Cancelled

(* Internal control-flow signal: a worker domain hit its injected crash
   (or was quarantined out from under a wedge) and must unwind its
   worker loop without running anything else.  Never escapes the pool. *)
exception Worker_stop

type task = unit -> unit

type policy = Work_stealing | Dfdeques of { quota : int }

(* A deque of the global list R (DFDeques only; the WS policy keeps one
   bare [Lfdeque] per worker).  Task transfer is CAS-only through [Lfdeque] —
   owner push/pop at the bottom, thief steals at the top, the sticky
   owner certificate and the [is_dead] reap test all live inside the
   structure, so there is no per-deque lock at all.  R membership lives
   in the lock-free [Multiq] (the deque's position is the [Multiq.entry]
   handle held in [dfd_deque] or by a sampling thief).  [did]/[born_us]
   feed the deque-lifecycle trace events. *)
type dq = { tasks : task Lfdeque.t; did : int; born_us : int }

type counters = {
  steals : int;
  steal_failures : int;
  local_pops : int;
  quota_giveups : int;
  tasks_run : int;
  task_exns : int;
  alloc_bytes : int;
  parks : int;
  r_inserts : int;
  r_removes : int;
  sync_ops : int;
}

(* One audit record per crash-domain transition, newest first in the
   pool's lineage ledger.  [cause] is "crash" (the worker's own death
   certificate), "wedge" (a supervisor's verdict) or "respawn" (a fresh
   domain spawned into the slot).  [requeued]: the worker held a
   taken-but-not-started task that was recovered exactly once through the
   orphan stack.  [abandoned]: a DFDeques deque was abandoned on the dead
   owner's behalf. *)
type lineage_entry = { worker : int; cause : string; requeued : bool; abandoned : bool }

type worker_state = {
  w_activity : int;  (** scheduler interactions (take attempts); rises while alive *)
  w_heartbeat : int;  (** tasks started by this worker *)
  w_holding : bool;  (** a taken-but-not-started task sits in the slot *)
  w_stopped : bool;  (** the worker raised its own crash certificate *)
  w_quarantined : bool;
}

(* One record per worker, written only by that worker (thief-side events —
   steals, failures — are charged to the thief).  Reads aggregate across
   workers and may be slightly stale, exactly the contract
   {!val-counters} documents.  Being separate heap blocks does not keep
   two workers' records off one cache line: the allocator may place them
   side by side.  The one cell written on every deque operation, the
   sync-op count, therefore lives apart from the records, in
   [sync_cells] under an explicit layout rule (see {!padded_run}). *)
type wcounters = {
  mutable c_steals : int;
  mutable c_steal_failures : int;
  mutable c_local_pops : int;
  mutable c_quota_giveups : int;
  mutable c_tasks_run : int;
  mutable c_task_exns : int;
  mutable c_alloc_bytes : int;
  mutable c_parks : int;
  mutable c_r_inserts : int;  (** R-membership inserts charged to this worker. *)
  mutable c_r_removes : int;  (** R-membership removals this worker won. *)
  mutable c_ticks : int;
      (** take attempts (every [try_get] entry) — the per-worker activity
          clock wedge detection compares against: an awaiting or stealing
          worker keeps ticking even when no task runs, while a wedged one
          goes flat.  Internal (not part of {!type-counters}). *)
  c_rank_err : Stats.Histogram.t;
      (** rank error of this worker's successful steals; merged across
          workers by {!val-rank_error}.  Single-writer like the ints. *)
}

(* Live-telemetry instruments (lib/obs).  With the default disabled
   registry each of these is the shared no-op instrument: updating one is
   a single immutable load and branch, which the obs-overhead pair in
   bench/pool_scale.exe keeps honest.  With a real registry the pool's
   hot-path events additionally land in sharded atomic cells that stay
   queryable while the pool runs (and survive across the per-worker
   records of respawned pool incarnations, since registration upserts). *)
type obs = {
  o_steals : Registry.Counter.t;
  o_steal_failures : Registry.Counter.t;
  o_local_pops : Registry.Counter.t;
  o_quota_giveups : Registry.Counter.t;
  o_tasks_run : Registry.Counter.t;
  o_task_exns : Registry.Counter.t;
  o_alloc_bytes : Registry.Counter.t;
  o_parks : Registry.Counter.t;
  o_deques_created : Registry.Counter.t;
  o_deques_deleted : Registry.Counter.t;
  o_quarantines : Registry.Counter.t;
  o_requeues : Registry.Counter.t;
  o_respawns : Registry.Counter.t;
  o_rank_error : Registry.Histogram.t;
}

type t = {
  policy : policy;
  n_workers : int;  (** worker domains + the caller *)
  (* --- Work_stealing: one lock-free deque per worker --------------- *)
  ws_deques : task Lfdeque.t array;
      (** worker [w]'s deque is owned by [w] and never abandoned: a
          quarantined worker's deque stays in place as a steal target. *)
  (* --- Dfdeques: the relaxed ordered list R -------------------------
     Lock hierarchy: [trace_lock] only (plus the idle-parking pair,
     which no task-holding path touches).  R membership (insert, remove,
     the thief's insert-after-victim) is lock-free CAS in the [Multiq];
     victim selection is two-choice sampling over its shards; task
     transfer is CAS-only through [Lfdeque] — no DFDeques path takes a
     mutex while holding or transferring a task. *)
  r : dq Multiq.t;
  dfd_deque : dq Multiq.entry option array;
      (** each worker's owned deque, as its R-membership handle;
          owner-written.  The deque itself is [Multiq.value]. *)
  quota_left : int array;  (** owner-written only. *)
  dfd_quota : int Atomic.t;
      (** the current memory threshold K.  Seeded from the policy and
          adjustable at runtime ({!set_quota}) so a supervisor can trade
          throughput for the Theorem 4.4 space bound under memory
          pressure; workers pick the new value up at their next steal
          (quota refill), so adjustment costs one atomic store and no
          locks. *)
  (* --- shared scheduling state -------------------------------------- *)
  live_tasks : int Atomic.t;
      (** tasks pushed but not yet taken; the middle cell of [live_run]
          (see {!padded_run}). *)
  live_run : int Atomic.t array;  (** keeps [live_tasks]'s padding alive. *)
  per_worker : wcounters array;
  sync_cells : int ref array;
      (** synchronization ops (atomic RMWs and publishing stores, CAS
          retries included) each worker executed on its scheduling paths,
          both policies — the Lfdeque/Multiq [?ops] argument.  Worker [w]
          owns [sync_cells.(pad_index w)]; the other refs are padding
          (see {!padded_run}).  A ref rather than a mutable field so
          the structures can bump it directly; still single-writer
          (thief-side ops are charged to the thief).  Summed by
          {!val-sync_ops} — deliberately not mirrored into a registry
          counter on the hot path, which would add an atomic RMW per
          operation just to count atomic RMWs; the registry exposes it as
          a lazy probe instead. *)
  idle_lock : Mutex.t;
  idle_cond : Condition.t;
  n_parked : int Atomic.t;
      (** atomic (not merely under [idle_lock]): the parker's
          [incr n_parked]/[read live_tasks] and the pusher's
          [incr live_tasks]/[read n_parked] form a Dekker pair, so both
          sides must be sequentially consistent for wake-ups to be
          lossless. *)
  shutting_down : bool Atomic.t;
  mutable domains : unit Domain.t list;
  rngs : Prng.t array;  (** per worker; only touched by its own worker. *)
  tracer : Tracer.t;
  trace_lock : Mutex.t;
      (** serialises tracer emits now that hot paths take no global lock;
          only ever taken when the tracer is enabled. *)
  fault : Fault.t;  (** fault-injection plan; {!Fault.none} by default. *)
  obs : obs;  (** registry instruments; no-ops under {!Registry.disabled}. *)
  flight : Flight.t;
      (** always-on crash-forensics ring ({!Flight.disabled} by default);
          only rare events are recorded, so the hot path stays clean. *)
  t0 : float;  (** pool creation wall clock; event stamps are µs since. *)
  next_did : int Atomic.t;
  last_active_us : int array;
      (** per worker, tracer-only stamp of its last task (steal latency). *)
  deadline : float option Atomic.t;
      (** absolute wall-clock deadline of the current [run ~timeout]. *)
  cancelled : bool Atomic.t;
      (** the deadline passed: fork_join/await bail out cooperatively. *)
  (* --- per-worker crash domains --------------------------------------
     All cross-domain crash state is atomic: the dying worker publishes
     its held task ([cur_task]) and its certificate ([stopped]) with SC
     stores, so a quarantiner that reads the certificate also sees every
     plain write the victim made before it (its [dfd_deque] handle in
     particular).  Quarantine itself is a one-winner CAS on
     [quarantined]; the held task moves through [cur_task] by atomic
     exchange, so it is either run by its owner or requeued by the
     quarantiner — never both. *)
  cur_task : task option Atomic.t array;
      (** per worker: the task it has taken but not yet started.  Filled
          at every take, emptied by exchange either by the worker itself
          (to run it) or by a quarantiner (to requeue it). *)
  stopped : bool Atomic.t array;  (** crash certificates, one-way. *)
  wedged : bool Atomic.t array;  (** diagnostic: victim entered the wedge spin. *)
  quarantined : bool Atomic.t array;
      (** one-winner quarantine flags; cleared only by {!respawn_worker}. *)
  wgen : int Atomic.t array;
      (** per-slot generation: bumped by quarantine (fences a wedged
          spinner out of its loop) and by respawn (new incarnation). *)
  crashed_pending : int Atomic.t;
      (** raised certificates not yet quarantined; peers scan when > 0. *)
  orphans : task list Atomic.t;
      (** Treiber stack of recovered held tasks, drained by [try_get]
          ahead of both policies' deques. *)
  n_orphan_pushes : int Atomic.t;
  n_orphan_pops : int Atomic.t;
  n_quarantined : int Atomic.t;  (** currently dead slots: [degraded_p] = n_workers - this. *)
  lineage : lineage_entry list Atomic.t;  (** newest first; lock-free prepend. *)
  respawn_budget : int Atomic.t;
  respawn_lock : Mutex.t;
      (** serialises {!respawn_worker} (cold path): the budget claim, the
          slot reset and the domain spawn must not interleave with a
          competing respawn of the same slot. *)
}

(* Wall-clock event timestamp: microseconds since pool creation.  Only
   called inside [Tracer.enabled] guards — the hot path never reads the
   clock when tracing is off. *)
let now_us pool = int_of_float ((Unix.gettimeofday () -. pool.t0) *. 1e6)

(* Which worker the current domain/thread is, while inside [run]. *)
let worker_key : (int * t) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let self () = !(Domain.DLS.get worker_key)

let self_exn () =
  match self () with
  | Some ctx -> ctx
  | None -> raise Not_in_pool

(* Cooperative cancellation: checked at every fork and await iteration.
   The first check past the deadline flips [cancelled]; every scheduler
   interaction after that raises, so the computation unwinds without
   creating new work. *)
let check_cancel pool =
  if Atomic.get pool.cancelled then raise Cancelled;
  match Atomic.get pool.deadline with
  | Some d when Unix.gettimeofday () > d ->
    Atomic.set pool.cancelled true;
    raise Cancelled
  | _ -> ()

(* Bounded exponential backoff with full jitter between failed steal
   attempts: the spin count is drawn uniformly from [1, 2^n], so
   contending thieves decorrelate instead of retrying in lockstep (the
   old fixed 2^n schedule made every loser of a steal race wake at the
   same instant and collide again). *)
let backoff_wait rng n =
  let cap = 1 lsl min n 8 in
  let spins = 1 + Prng.int rng cap in
  for _ = 1 to spins do
    Domain.cpu_relax ()
  done

(* After this many consecutive empty-handed rounds with no queued work at
   all, a worker parks on [idle_cond] instead of spinning. *)
let park_threshold = 8

(* ------------------------------------------------------------------ *)
(* Tracing plumbing (all behind [Tracer.enabled]; emits serialised by   *)
(* [trace_lock], the innermost lock in the hierarchy)                   *)
(* ------------------------------------------------------------------ *)

let emit_locked pool ~proc kind =
  Mutex.lock pool.trace_lock;
  Tracer.emit pool.tracer ~ts:(now_us pool) ~proc ~tid:(-1) kind;
  Mutex.unlock pool.trace_lock

(* Flight-recorder lane write: per-worker single-writer ring, so no lock;
   the clock is only read when the recorder is live, mirroring the tracer
   discipline.  Only rare events go through here (steal successes, quota
   giveups, deque lifecycle, faults, task exceptions, parks). *)
let flight_emit pool ~proc kind =
  if Flight.enabled pool.flight then
    Flight.recordk pool.flight ~lane:proc ~ts:(now_us pool) ~proc ~tid:(-1) kind

let trace_steal_attempt pool w ~victim =
  if Tracer.enabled pool.tracer then emit_locked pool ~proc:w (Event.Steal_attempt { victim })

let trace_dq_removed pool ~proc d =
  if Tracer.enabled pool.tracer then begin
    Mutex.lock pool.trace_lock;
    let ts = now_us pool in
    Tracer.emit pool.tracer ~ts ~proc ~tid:(-1)
      (Event.Deque_deleted { did = d.did; residency = ts - d.born_us });
    Mutex.unlock pool.trace_lock
  end

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

(* Worker [w] obtained a task (any path).  [c_tasks_run] doubles as the
   cheap monotonic heartbeat: watchdogs poll its sum instead of the pool
   stamping wall-clock times on the hot path. *)
let note_task_start pool w =
  let c = pool.per_worker.(w) in
  c.c_tasks_run <- c.c_tasks_run + 1;
  Registry.Counter.incr pool.obs.o_tasks_run;
  if Tracer.enabled pool.tracer then begin
    Mutex.lock pool.trace_lock;
    let ts = now_us pool in
    pool.last_active_us.(w) <- ts;
    Tracer.emit pool.tracer ~ts ~proc:w ~tid:(-1) (Event.Action_batch { units = 1 });
    Mutex.unlock pool.trace_lock
  end

let note_steal_success pool w ~victim =
  let c = pool.per_worker.(w) in
  c.c_steals <- c.c_steals + 1;
  Registry.Counter.incr pool.obs.o_steals;
  flight_emit pool ~proc:w (Event.Steal_success { victim; latency = 0 });
  if Tracer.enabled pool.tracer then begin
    Mutex.lock pool.trace_lock;
    let ts = now_us pool in
    Tracer.emit pool.tracer ~ts ~proc:w ~tid:(-1)
      (Event.Steal_success { victim; latency = ts - pool.last_active_us.(w) });
    Mutex.unlock pool.trace_lock
  end

let note_steal_failure pool w =
  let c = pool.per_worker.(w) in
  c.c_steal_failures <- c.c_steal_failures + 1;
  Registry.Counter.incr pool.obs.o_steal_failures

(* Injected steal failure (chaos testing): charge a failed attempt without
   touching any deque. *)
let injected_steal_failure pool w =
  let fail = Fault.steal_fails pool.fault in
  if fail then begin
    note_steal_failure pool w;
    flight_emit pool ~proc:w (Event.Fault_injected { fault = "steal_fail" });
    if Tracer.enabled pool.tracer then
      emit_locked pool ~proc:w (Event.Fault_injected { fault = "steal_fail" })
  end;
  fail

(* ------------------------------------------------------------------ *)
(* Idle parking                                                        *)
(* ------------------------------------------------------------------ *)

(* Wake at most one parked worker.  The pusher has already published the
   task and incremented [live_tasks] (both SC), so either the parker's
   re-check sees the work, or this read sees the parker — a wake-up can
   never be lost between the two.  Signalling one worker instead of
   broadcasting avoids the thundering herd the old single [Condition]
   produced: p-1 sleepers stampeding the lock for one task. *)
let signal_work pool =
  if Atomic.get pool.n_parked > 0 then begin
    Mutex.lock pool.idle_lock;
    Condition.signal pool.idle_cond;
    Mutex.unlock pool.idle_lock
  end

let park pool w =
  let c = pool.per_worker.(w) in
  c.c_parks <- c.c_parks + 1;
  Registry.Counter.incr pool.obs.o_parks;
  Mutex.lock pool.idle_lock;
  Atomic.incr pool.n_parked;
  (* a pending crash certificate also ends the nap: the crasher
     broadcasts, and the woken worker must scan-and-quarantine (the
     requeued task is not yet in [live_tasks]) *)
  while
    Atomic.get pool.live_tasks = 0
    && (not (Atomic.get pool.shutting_down))
    && Atomic.get pool.crashed_pending = 0
  do
    Condition.wait pool.idle_cond pool.idle_lock
  done;
  Atomic.decr pool.n_parked;
  Mutex.unlock pool.idle_lock

(* ------------------------------------------------------------------ *)
(* Padded cells: the per-worker sync-op counts and [live_tasks]         *)
(* ------------------------------------------------------------------ *)

(* Layout rule for a 1-field block that some worker writes on every
   deque operation: no other such block, and no block that a worker
   reads on every operation, within 128 bytes of it (the span an
   adjacent-line prefetcher pulls in as a pair).  Otherwise each write
   sends the line back and forth between the cores.  Measured with
   fork-join fib at p = 2 on a 2-core x86-64 host:
   - one unpadded sync-op ref per worker, allocated back to back, made
     WS about 25% slower than with the refs apart;
   - [live_tasks], promoted next to [n_parked] (16 bytes apart, and
     every push reads [n_parked]), made WS 15-25% slower than with it
     apart.
   OCaml 5's major heap keeps each block size in pools of its own, so
   padding separates two refs or atomics only if it is the same size:
   each cell is the middle block of its own run of [pad_stride] blocks.
   [make] allocates the runs first and promotes them at once with a
   minor collection, before any other value points at a cell, so each
   run is copied out in array order into consecutive slots of one size
   class: a cell has 7 blocks (112 bytes) of its own padding below it,
   8 above, and neighbouring workers' cells are 256 bytes apart.  The
   runs stay reachable from the pool so the padding is never freed and
   reused. *)
let pad_stride = 16

let pad_index i = (i * pad_stride) + (pad_stride / 2)

let padded_run n make = Array.init (n * pad_stride) (fun _ -> make ())

(* The worker's sync-op cell, handed to every Lfdeque/Multiq mutating
   call on its behalf. *)
let sync_cell pool w = pool.sync_cells.(pad_index w)

(* ------------------------------------------------------------------ *)
(* DFDeques: lock-free R membership (Multiq CAS paths) and CAS-only     *)
(* task transfer (Lfdeque)                                              *)
(* ------------------------------------------------------------------ *)

let new_dq pool ~proc ~owner =
  let born_us = if Tracer.enabled pool.tracer then now_us pool else 0 in
  let d =
    {
      tasks = Lfdeque.create ?owner ();
      did = Atomic.fetch_and_add pool.next_did 1;
      born_us;
    }
  in
  Registry.Counter.incr pool.obs.o_deques_created;
  flight_emit pool ~proc (Event.Deque_created { did = d.did });
  if Tracer.enabled pool.tracer then
    emit_locked pool ~proc (Event.Deque_created { did = d.did });
  d

let note_r_insert pool w =
  let c = pool.per_worker.(w) in
  c.c_r_inserts <- c.c_r_inserts + 1

(* Reap [e]'s deque from R if it carries the death certificate.
   Entirely lock-free: [Lfdeque.is_dead] reads owner-then-emptiness, and
   because abandonment is sticky (a deque is never re-owned, so no push
   can follow the [None]) the certificate is stable once observed.
   Abandon and steal paths race to reap the same entry; [Multiq.remove]'s
   one-winner CAS charges the removal exactly once. *)
let reap_if_dead pool ~proc e =
  let d = Multiq.value e in
  if Multiq.is_live e && Lfdeque.is_dead d.tasks
     && Multiq.remove ~ops:(sync_cell pool proc) pool.r e
  then begin
    let c = pool.per_worker.(proc) in
    c.c_r_removes <- c.c_r_removes + 1;
    Registry.Counter.incr pool.obs.o_deques_deleted;
    flight_emit pool ~proc (Event.Deque_deleted { did = d.did; residency = 0 });
    trace_dq_removed pool ~proc d
  end

(* The worker's own deque, creating and inserting it at the front of R if
   it has none (a worker that just gave its deque away or is pushing its
   first task). *)
let dfd_own_deque pool w =
  match pool.dfd_deque.(w) with
  | Some e -> Multiq.value e
  | None ->
    let d = new_dq pool ~proc:w ~owner:(Some w) in
    pool.dfd_deque.(w) <- Some (Multiq.insert_front ~ops:(sync_cell pool w) pool.r d);
    note_r_insert pool w;
    d

(* Abandon the worker's deque (quota exhausted, or found empty): publish
   the sticky owner give-up and drop the deque from R if there is nothing
   left to steal from it.  The paper's discipline — a nonempty abandoned
   deque stays in R for thieves.  Forgetting the handle *before* the
   sticky store becomes visible is what makes [Lfdeque.is_dead] sound:
   once any reader sees [owner = None], this worker can no longer reach
   the deque to push. *)
let dfd_abandon pool w =
  match pool.dfd_deque.(w) with
  | None -> ()
  | Some e ->
    pool.dfd_deque.(w) <- None;
    Lfdeque.abandon ~ops:(sync_cell pool w) (Multiq.value e).tasks;
    reap_if_dead pool ~proc:w e

(* Rank error of a successful steal: how far the sampled victim sat
   outside the exact leftmost-min(p,|R|) window the paper steals from.
   The O(|R|) rank scan runs on every successful steal — a bargain
   against the old design, which rebuilt an O(p) snapshot under a global
   lock on every membership change; and it is what turns the relaxation
   into a measured quantity instead of a hope. *)
let note_rank_error pool w e =
  let rank = Multiq.rank pool.r e in
  let window = min pool.n_workers (max 1 (Multiq.size pool.r)) in
  let err = max 0 (rank - (window - 1)) in
  let c = pool.per_worker.(w) in
  Stats.Histogram.add c.c_rank_err (float_of_int err);
  Registry.Histogram.observe pool.obs.o_rank_error err;
  if Tracer.enabled pool.tracer then
    emit_locked pool ~proc:w
      (Event.Steal_rank { victim = (Multiq.value e).did; rank; err })

(* A successful DFD steal: the thief takes ownership of a fresh deque
   inserted immediately to the right of the victim (paper invariant: a
   thief's new deque sits just after the deque it stole from — the
   victim entry's right gap is split by CAS, and a victim that died
   concurrently still anchors the position it held), and the victim is
   reaped if the steal emptied an unowned deque. *)
let dfd_adopt_after pool w victim_e =
  let d = new_dq pool ~proc:w ~owner:(Some w) in
  let e = Multiq.insert_after ~ops:(sync_cell pool w) pool.r victim_e d in
  note_r_insert pool w;
  reap_if_dead pool ~proc:w victim_e;
  pool.dfd_deque.(w) <- Some e

let dfd_steal pool w =
  if injected_steal_failure pool w then None
  else begin
    (* two-choice victim draw: sample two shards, steal from the
       more-leftmost of their heads.  Both empty is a failed attempt, as
       the old k >= |snapshot| draw was, preserving the paper's bias
       toward short R. *)
    let rng = pool.rngs.(w) in
    let n_sh = Multiq.shard_count pool.r in
    let i = Prng.int rng n_sh in
    let j = Prng.int rng n_sh in
    trace_steal_attempt pool w ~victim:i;
    match Multiq.sample pool.r i j with
    | None ->
      note_steal_failure pool w;
      None
    | Some victim_e ->
      let victim = Multiq.value victim_e in
      (* CAS-only steal of the victim's oldest task.  [None] covers both
         a genuinely drained deque and a lost top-CAS race — either way
         the attempt failed and the caller retries with backoff, exactly
         like a WS thief losing a Chase–Lev race. *)
      (match Lfdeque.steal ~ops:(sync_cell pool w) victim.tasks with
       | None ->
         (* drained (or raced) between sample and steal; reap if dead *)
         reap_if_dead pool ~proc:w victim_e;
         note_steal_failure pool w;
         None
       | Some task ->
         note_steal_success pool w ~victim:victim.did;
         note_rank_error pool w victim_e;
         dfd_adopt_after pool w victim_e;
         (* refill from the current K: a runtime quota adjustment takes
            effect here, at the worker's next steal *)
         pool.quota_left.(w) <- Atomic.get pool.dfd_quota;
         Some task)
  end

(* ------------------------------------------------------------------ *)
(* Per-worker crash domains                                            *)
(* ------------------------------------------------------------------ *)

(* Lock-free Treiber stack of recovered held tasks.  ABA-safe because the
   cells are immutable fresh cons blocks compared physically; the only
   shared tail is [], and the pop for [] never reaches the CAS. *)
let rec orphan_push pool task =
  let old = Atomic.get pool.orphans in
  Schedpoint.point Schedpoint.pool_orphan_push;
  if Atomic.compare_and_set pool.orphans old (task :: old) then
    Atomic.incr pool.n_orphan_pushes
  else orphan_push pool task

let rec orphan_pop pool =
  match Atomic.get pool.orphans with
  | [] -> None
  | (task :: rest) as old ->
    Schedpoint.point Schedpoint.pool_orphan_pop;
    if Atomic.compare_and_set pool.orphans old rest then begin
      Atomic.incr pool.n_orphan_pops;
      Some task
    end
    else orphan_pop pool

let rec lineage_add pool entry =
  let old = Atomic.get pool.lineage in
  if not (Atomic.compare_and_set pool.lineage old (entry :: old)) then lineage_add pool entry

(* The injected crash: publish the one-way death certificate and die.
   The held task is already in [cur_task] (SC store), so the certificate
   read by any peer also publishes the task and every plain write this
   worker made before it.  The broadcast wakes parked peers — the
   certificate must be noticed even on an otherwise idle pool, and the
   requeued task is not yet counted in [live_tasks]. *)
let worker_crash pool w =
  flight_emit pool ~proc:w (Event.Fault_injected { fault = "worker_crash" });
  if Tracer.enabled pool.tracer then
    emit_locked pool ~proc:w (Event.Fault_injected { fault = "worker_crash" });
  Schedpoint.point Schedpoint.pool_crash_flag;
  Atomic.set pool.stopped.(w) true;
  Atomic.incr pool.crashed_pending;
  Mutex.lock pool.idle_lock;
  Condition.broadcast pool.idle_cond;
  Mutex.unlock pool.idle_lock;
  raise Worker_stop

(* The injected wedge: spin inside the scheduler, never touching any pool
   structure again, until a quarantiner bumps the slot generation (or the
   pool shuts down).  The generation fence is what makes a supervisor's
   quarantine of this worker sound: after the bump the spinner's only
   remaining action is to unwind. *)
let wedge_spin pool w =
  flight_emit pool ~proc:w (Event.Fault_injected { fault = "worker_wedge" });
  if Tracer.enabled pool.tracer then
    emit_locked pool ~proc:w (Event.Fault_injected { fault = "worker_wedge" });
  let g0 = Atomic.get pool.wgen.(w) in
  Atomic.set pool.wedged.(w) true;
  while Atomic.get pool.wgen.(w) = g0 && not (Atomic.get pool.shutting_down) do
    Domain.cpu_relax ()
  done;
  raise Worker_stop

(* Quarantine worker [w]: the surgical alternative to killing the whole
   pool.  One winner (CAS on [quarantined]); the winner fences the slot
   (generation bump), recovers the held task exactly once (atomic
   exchange of [cur_task] — the owner's own pre-run exchange and this one
   cannot both win), requeues it through the orphan stack, abandons the
   dead owner's DFDeques deque via the sticky death-certificate protocol
   (sound because the owner is certifiably fenced: crashed domains have
   unwound, wedged ones spin without touching the pool, so no push can
   race the abandonment — the one relaxation of the owner-only [abandon]
   contract, audited in DESIGN.md §17), and appends the lineage-ledger
   entry that {!verify_lineage} later audits.  Reap/abandon sync ops are
   charged to the dead worker's own record — it is fenced, so the
   single-writer discipline holds.  [proc] identifies the quarantining
   peer for trace attribution (-1 for an external supervisor). *)
let quarantine_as pool ~proc ~cause w =
  if w <= 0 || w >= pool.n_workers then invalid_arg "Pool.quarantine: bad worker";
  if Atomic.compare_and_set pool.quarantined.(w) false true then begin
    Schedpoint.point Schedpoint.pool_quarantine;
    Atomic.incr pool.n_quarantined;
    Atomic.incr pool.wgen.(w);
    if Atomic.get pool.stopped.(w) then Atomic.decr pool.crashed_pending;
    let held = Atomic.exchange pool.cur_task.(w) None in
    (match held with
     | Some task ->
       Atomic.incr pool.live_tasks;
       orphan_push pool task;
       Registry.Counter.incr pool.obs.o_requeues;
       flight_emit pool ~proc (Event.Task_requeued { worker = w });
       if Tracer.enabled pool.tracer then
         emit_locked pool ~proc (Event.Task_requeued { worker = w });
       signal_work pool
     | None -> ());
    let abandoned =
      match pool.policy with
      | Work_stealing ->
        (* the dead worker's deque stays a valid steal target in place:
           survivors steal its leftovers back naturally *)
        false
      | Dfdeques _ -> (
          match pool.dfd_deque.(w) with
          | None -> false
          | Some e ->
            pool.dfd_deque.(w) <- None;
            Lfdeque.abandon ~ops:(sync_cell pool w) (Multiq.value e).tasks;
            reap_if_dead pool ~proc:w e;
            true)
    in
    lineage_add pool { worker = w; cause; requeued = Option.is_some held; abandoned };
    Registry.Counter.incr pool.obs.o_quarantines;
    flight_emit pool ~proc (Event.Worker_quarantined { worker = w; cause });
    if Tracer.enabled pool.tracer then
      emit_locked pool ~proc (Event.Worker_quarantined { worker = w; cause });
    true
  end
  else false

(* Peers call this whenever [crashed_pending] is observed positive: find
   every raised-but-unquarantined certificate and quarantine it.  Cheap
   when idle (one atomic load at the call sites guards it). *)
let scan_crashed pool ~proc =
  let n = ref 0 in
  for w = 1 to pool.n_workers - 1 do
    if Atomic.get pool.stopped.(w) && not (Atomic.get pool.quarantined.(w)) then
      if quarantine_as pool ~proc ~cause:"crash" w then incr n
  done;
  !n

(* ------------------------------------------------------------------ *)
(* Obtaining work                                                      *)
(* ------------------------------------------------------------------ *)

let push_local pool w task =
  Schedpoint.point Schedpoint.pool_push;
  (* [live_tasks] rises before the task is visible, so a worker that sees
     zero can safely park: any task not yet pushed will signal it. *)
  Atomic.incr pool.live_tasks;
  let tasks =
    match pool.policy with
    | Work_stealing -> pool.ws_deques.(w)
    | Dfdeques _ -> (dfd_own_deque pool w).tasks
  in
  Lfdeque.push ~ops:(sync_cell pool w) tasks task;
  signal_work pool

(* One attempt to obtain a task; lock-free on every path — WS and DFD
   both go through CAS-only deques.  Does not touch [live_tasks];
   callers do. *)
let try_get pool w =
  Schedpoint.point Schedpoint.pool_get;
  (* activity tick: single-writer; the clock wedge detection reads *)
  let c0 = pool.per_worker.(w) in
  c0.c_ticks <- c0.c_ticks + 1;
  (* recovered orphans first (both policies): a task requeued from a
     quarantined worker must not wait behind the deques.  One atomic load
     when the stack is empty. *)
  match orphan_pop pool with
  | Some _ as t -> t
  | None -> (
  match pool.policy with
  | Work_stealing -> (
      match Lfdeque.pop ~ops:(sync_cell pool w) pool.ws_deques.(w) with
      | Some t ->
        let c = pool.per_worker.(w) in
        c.c_local_pops <- c.c_local_pops + 1;
        Registry.Counter.incr pool.obs.o_local_pops;
        Some t
      | None ->
        if injected_steal_failure pool w then None
        else begin
          let victim = Prng.int pool.rngs.(w) pool.n_workers in
          trace_steal_attempt pool w ~victim;
          if victim = w then begin
            note_steal_failure pool w;
            None
          end
          else
            match Lfdeque.steal ~ops:(sync_cell pool w) pool.ws_deques.(victim) with
            | Some t ->
              note_steal_success pool w ~victim;
              Some t
            | None ->
              note_steal_failure pool w;
              None
        end)
  | Dfdeques _ -> (
      match pool.dfd_deque.(w) with
      | Some _ when pool.quota_left.(w) <= 0 ->
        (* memory quota exhausted: abandon the deque and steal *)
        let c = pool.per_worker.(w) in
        c.c_quota_giveups <- c.c_quota_giveups + 1;
        Registry.Counter.incr pool.obs.o_quota_giveups;
        (if Flight.enabled pool.flight then
           let quota = Atomic.get pool.dfd_quota in
           flight_emit pool ~proc:w
             (Event.Quota_exhausted { used = quota - pool.quota_left.(w); quota }));
        if Tracer.enabled pool.tracer then begin
          let quota = Atomic.get pool.dfd_quota in
          emit_locked pool ~proc:w
            (Event.Quota_exhausted { used = quota - pool.quota_left.(w); quota })
        end;
        dfd_abandon pool w;
        dfd_steal pool w
      | Some e -> (
          let d = Multiq.value e in
          match Lfdeque.pop ~ops:(sync_cell pool w) d.tasks with
          | Some t ->
            let c = pool.per_worker.(w) in
            c.c_local_pops <- c.c_local_pops + 1;
            Some t
          | None ->
            (* empty own deque: retire it, then steal *)
            dfd_abandon pool w;
            dfd_steal pool w)
      | None -> dfd_steal pool w))

let run_task t = t ()

(* Grab one task and run it; returns false if none was found.  A task that
   escapes an exception must never tear down the worker that happened to
   run it: promise-backed tasks capture exceptions themselves ([fulfill]),
   so this is the belt-and-braces path for malformed raw tasks — count it
   and carry on. *)
let help_once ?(top = false) pool w =
  match try_get pool w with
  | Some t ->
    Atomic.decr pool.live_tasks;
    (* publish the held task before anything can kill us: a quarantiner
       that reads our certificate is guaranteed to see it *)
    Atomic.set pool.cur_task.(w) (Some t);
    (* seeded crash/wedge injection — top-of-loop takes by worker domains
       only, so a dying worker holds exactly one unstarted task and
       nothing else in flight (the caller and nested helping takes are
       never crash-eligible: killing a worker mid-computation would
       strand a half-run task that cannot be requeued exactly-once) *)
    if top && w > 0 then (
      match Fault.worker_take pool.fault ~worker:w with
      | `None -> ()
      | `Crash -> worker_crash pool w
      | `Wedge -> wedge_spin pool w);
    (match Atomic.exchange pool.cur_task.(w) None with
     | Some t' ->
       note_task_start pool w;
       (try run_task t'
        with _ ->
          let c = pool.per_worker.(w) in
          c.c_task_exns <- c.c_task_exns + 1;
          Registry.Counter.incr pool.obs.o_task_exns;
          flight_emit pool ~proc:w (Event.Fault_injected { fault = "task_exn" }))
     | None ->
       (* a quarantiner won the exchange: the task is requeued and this
          worker has been declared dead — unwind without running it *)
       raise Worker_stop);
    true
  | None -> false

(* Pop our most recent push if it is still on top (the fork_join fast
   path).  Physical equality identifies the task.  Both policies use the
   same lock-free discipline: owner pop, and a pop that surfaces some
   other task (possible only if ours was stolen) is pushed straight
   back — the push-back is safe because only the owner pops its own
   deque, so nothing was reordered underneath it. *)
let pop_back pool w tasks task =
  let ops = sync_cell pool w in
  match Lfdeque.pop ~ops tasks with
  | Some t when t == task -> true
  | Some other ->
    Lfdeque.push ~ops tasks other;
    false
  | None -> false

let try_pop_exact pool w task =
  Schedpoint.point Schedpoint.pool_pop_exact;
  let got =
    match pool.policy with
    | Work_stealing -> pop_back pool w pool.ws_deques.(w) task
    | Dfdeques _ -> (
        match pool.dfd_deque.(w) with
        | None -> false
        | Some e -> pop_back pool w (Multiq.value e).tasks task)
  in
  if got then begin
    Atomic.decr pool.live_tasks;
    note_task_start pool w
  end;
  got

(* ------------------------------------------------------------------ *)
(* Futures                                                             *)
(* ------------------------------------------------------------------ *)

type 'a outcome = Pending | Done of 'a | Failed of exn

type 'a promise = { mutable state : 'a outcome Atomic.t }

let promise () = { state = Atomic.make Pending }

let fulfill pool pr f =
  let v =
    match f () with
    | x -> Done x
    | exception e ->
      let w = match self () with Some (w, _) -> w | None -> 0 in
      let c = pool.per_worker.(w) in
      c.c_task_exns <- c.c_task_exns + 1;
      Registry.Counter.incr pool.obs.o_task_exns;
      flight_emit pool ~proc:w (Event.Fault_injected { fault = "task_exn" });
      Failed e
  in
  Schedpoint.point Schedpoint.pool_fulfill;
  Atomic.set pr.state v

let await pool w pr =
  let rec go misses =
    match Atomic.get pr.state with
    | Done v -> v
    | Failed e -> raise e
    | Pending ->
      Schedpoint.point Schedpoint.pool_await;
      check_cancel pool;
      (* help: run other tasks while the thief finishes ours; back off
         with jitter when steals keep failing so contended pools don't
         spin hot *)
      if help_once pool w then go 0
      else begin
        (* empty-handed: quarantine any crashed peer before backing off —
           the promise we await may be fenced inside its dead holder *)
        if Atomic.get pool.crashed_pending > 0 then ignore (scan_crashed pool ~proc:w);
        backoff_wait pool.rngs.(w) misses;
        go (misses + 1)
      end
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Worker domains                                                      *)
(* ------------------------------------------------------------------ *)

let worker_loop pool w =
  Domain.DLS.get worker_key := Some (w, pool);
  let misses = ref 0 in
  let rec loop () =
    if Atomic.get pool.shutting_down then ()
    else begin
      if help_once ~top:true pool w then misses := 0
      else begin
        incr misses;
        if Atomic.get pool.crashed_pending > 0 then ignore (scan_crashed pool ~proc:w);
        if Atomic.get pool.live_tasks = 0 then begin
          (* nothing queued anywhere: bounded spin, then park until a
             push signals — no thundering herd, one signal wakes one *)
          if !misses >= park_threshold then begin
            park pool w;
            misses := 0
          end
          else backoff_wait pool.rngs.(w) !misses
        end
        else
          (* work exists but our attempt lost: back off and retry *)
          backoff_wait pool.rngs.(w) !misses
      end;
      loop ()
    end
  in
  (* Worker_stop: this domain crashed (injected) or was quarantined out
     from under a wedge — unwind quietly; the quarantine protocol has
     already recovered (or will recover) everything it held *)
  try loop () with Worker_stop -> ()

(* Register the pool's write-side instruments (hot-path counters) and
   read-side probes (gauges over state the pool already maintains).
   Registration upserts, so a respawned incarnation keeps appending to
   the same series; the probes are re-pointed at the fresh pool. *)
let make_obs registry =
  let c name help = Registry.counter registry ~help name in
  {
    o_steals = c "dfd_pool_steals_total" "Successful steals (all disciplines).";
    o_steal_failures = c "dfd_pool_steal_failures_total" "Steal attempts that found nothing (real or injected).";
    o_local_pops = c "dfd_pool_local_pops_total" "Tasks taken from the worker's own deque.";
    o_quota_giveups = c "dfd_pool_quota_giveups_total" "Deques abandoned on memory-quota exhaustion.";
    o_tasks_run = c "dfd_pool_tasks_total" "Tasks executed (all paths, including inline).";
    o_task_exns = c "dfd_pool_task_exns_total" "Tasks that raised (user, injected, or cancellation).";
    o_alloc_bytes = c "dfd_pool_alloc_bytes_total" "Bytes reported via Pool.alloc_hint.";
    o_parks = c "dfd_pool_parks_total" "Times an idle worker parked on the condition variable.";
    o_deques_created = c "dfd_pool_deques_created_total" "Deques created (DFDeques R-list churn).";
    o_deques_deleted = c "dfd_pool_deques_deleted_total" "Deques reaped from R (DFDeques R-list churn).";
    o_quarantines = c "dfd_pool_quarantines_total" "Workers quarantined (crash or wedge verdicts).";
    o_requeues = c "dfd_pool_crash_requeues_total" "Held tasks recovered exactly-once from quarantined workers.";
    o_respawns = c "dfd_pool_worker_respawns_total" "Fresh domains spawned into quarantined worker slots.";
    o_rank_error =
      Registry.histogram registry
        ~help:"Rank error per successful DFDeques steal (positions outside the exact leftmost-p window)."
        "dfd_pool_steal_rank_error";
  }

(* Total synchronization operations (atomic RMWs + publishing stores,
   CAS retries included) executed on either policy's scheduling paths,
   summed across workers — the Rito & Paulino sync-overhead metric,
   measured rather than assumed.  Same staleness contract as
   {!val-counters}. *)
let sync_ops pool =
  let n = ref 0 in
  for w = 0 to pool.n_workers - 1 do
    n := !n + !(sync_cell pool w)
  done;
  !n

let register_probes registry pool =
  let g name help f = Registry.probe registry ~kind:`Gauge ~help name f in
  g "dfd_pool_live_tasks" "Tasks pushed but not yet taken." (fun () -> Atomic.get pool.live_tasks);
  g "dfd_pool_parked_workers" "Workers currently parked on the idle condition." (fun () ->
      Atomic.get pool.n_parked);
  g "dfd_pool_workers" "Worker slots (domains + caller)." (fun () -> pool.n_workers);
  g "dfd_pool_quota_bytes" "Current DFDeques memory threshold K (max_int under WS)." (fun () ->
      Atomic.get pool.dfd_quota);
  g "dfd_pool_r_deques" "Live deques in the relaxed R-list (DFDeques)." (fun () ->
      Multiq.size pool.r);
  g "dfd_pool_quarantined_workers" "Worker slots currently quarantined (crash domains fired)."
    (fun () -> Atomic.get pool.n_quarantined);
  g "dfd_pool_degraded_p" "Live processor count: workers minus quarantined slots." (fun () ->
      pool.n_workers - Atomic.get pool.n_quarantined);
  (* a probe, not a write-side counter: mirroring every sync op into a
     registry cell would add an atomic RMW per operation just to count
     atomic RMWs.  The per-worker cells are summed lazily at scrape. *)
  Registry.probe registry ~kind:`Counter
    ~help:"Synchronization ops (atomic RMWs, CAS retries included) on scheduling paths."
    "dfd_pool_sync_ops"
    (fun () -> sync_ops pool)

let make ?(registry = Registry.disabled) ?(flight = Flight.disabled) ?(respawn_budget = 0)
    ~n_workers ~tracer ~fault policy =
    (* the padded runs first, then one minor collection (the layout rule
       above) *)
    let sync_cells = padded_run n_workers (fun () -> ref 0) in
    let live_run = padded_run 1 (fun () -> Atomic.make 0) in
    Gc.minor ();
    {
      policy;
      n_workers;
      ws_deques = Array.init n_workers (fun w -> Lfdeque.create ~owner:w ());
      (* 2 shards per worker: enough spread that concurrent membership
         CAS retries stay rare, small enough that two-choice sampling
         still sees a meaningful fraction of R *)
      r = Multiq.create ~shards:(2 * n_workers) ();
      dfd_deque = Array.make n_workers None;
      quota_left =
        Array.make n_workers
          (match policy with Dfdeques { quota } -> quota | Work_stealing -> max_int);
      dfd_quota =
        Atomic.make
          (match policy with Dfdeques { quota } -> quota | Work_stealing -> max_int);
      live_tasks = live_run.(pad_index 0);
      live_run;
      per_worker =
        Array.init n_workers (fun _ ->
            {
              c_steals = 0;
              c_steal_failures = 0;
              c_local_pops = 0;
              c_quota_giveups = 0;
              c_tasks_run = 0;
              c_task_exns = 0;
              c_alloc_bytes = 0;
              c_parks = 0;
              c_r_inserts = 0;
              c_r_removes = 0;
              c_ticks = 0;
              c_rank_err = Stats.Histogram.create ();
            });
      sync_cells;
      idle_lock = Mutex.create ();
      idle_cond = Condition.create ();
      n_parked = Atomic.make 0;
      shutting_down = Atomic.make false;
      domains = [];
      rngs = Array.init n_workers (fun i -> Prng.create (1000 + i));
      tracer;
      trace_lock = Mutex.create ();
      fault;
      obs = make_obs registry;
      flight;
      t0 = Unix.gettimeofday ();
      next_did = Atomic.make n_workers;
      last_active_us = Array.make n_workers 0;
      deadline = Atomic.make None;
      cancelled = Atomic.make false;
      cur_task = Array.init n_workers (fun _ -> Atomic.make None);
      stopped = Array.init n_workers (fun _ -> Atomic.make false);
      wedged = Array.init n_workers (fun _ -> Atomic.make false);
      quarantined = Array.init n_workers (fun _ -> Atomic.make false);
      wgen = Array.init n_workers (fun _ -> Atomic.make 0);
      crashed_pending = Atomic.make 0;
      orphans = Atomic.make [];
      n_orphan_pushes = Atomic.make 0;
      n_orphan_pops = Atomic.make 0;
      n_quarantined = Atomic.make 0;
      lineage = Atomic.make [];
      respawn_budget = Atomic.make (max 0 respawn_budget);
      respawn_lock = Mutex.create ();
    }

let make ?registry ?flight ?respawn_budget ~n_workers ~tracer ~fault policy =
  let pool = make ?registry ?flight ?respawn_budget ~n_workers ~tracer ~fault policy in
  (match registry with Some r -> register_probes r pool | None -> ());
  pool

let create ?domains ?(tracer = Tracer.disabled) ?(fault = Fault.none) ?registry ?flight
    ?respawn_budget policy =
  let extra =
    match domains with
    | Some d -> max 0 d
    | None -> max 0 (Domain.recommended_domain_count () - 1)
  in
  let pool = make ?registry ?flight ?respawn_budget ~n_workers:(extra + 1) ~tracer ~fault policy in
  pool.domains <- List.init extra (fun i -> Domain.spawn (fun () -> worker_loop pool (i + 1)));
  pool

(* After cancellation the deques may still hold queued tasks whose parents
   have unwound: run them all (they raise [Cancelled] immediately or are
   cheap leftovers) so the pool is clean for the next [run]. *)
let drain pool =
  let misses = ref 0 in
  (* a pending crash certificate hides a held task that [live_tasks] no
     longer counts: quarantine first so nothing is stranded *)
  while Atomic.get pool.live_tasks > 0 || Atomic.get pool.crashed_pending > 0 do
    if Atomic.get pool.crashed_pending > 0 then ignore (scan_crashed pool ~proc:0);
    if help_once pool 0 then misses := 0
    else begin
      incr misses;
      backoff_wait pool.rngs.(0) !misses
    end
  done

let run ?timeout ?quota pool f =
  (match self () with Some _ -> raise Nested_run | None -> ());
  (match quota with
   | None -> ()
   | Some k ->
     if k <= 0 then invalid_arg "Pool.run: quota must be positive";
     (match pool.policy with
      | Work_stealing -> invalid_arg "Pool.run: Work_stealing pool has no quota"
      | Dfdeques _ -> Atomic.set pool.dfd_quota k));
  let ctx = Domain.DLS.get worker_key in
  ctx := Some (0, pool);
  Atomic.set pool.cancelled false;
  Atomic.set pool.deadline (Option.map (fun s -> Unix.gettimeofday () +. s) timeout);
  Fun.protect
    ~finally:(fun () ->
      ctx := None;
      Atomic.set pool.deadline None)
    (fun () ->
       match f () with
       | v -> v
       | exception Cancelled when Atomic.get pool.cancelled ->
         drain pool;
         raise Timeout
       | exception e when Atomic.get pool.cancelled ->
         (* a user exception raced the cancellation; still leave the pool
            clean, but report the user's exception *)
         drain pool;
         raise e)

let fork_join fa fb =
  let w, pool = self_exn () in
  check_cancel pool;
  let fa =
    if Fault.enabled pool.fault then (fun () ->
        Fault.maybe_task_exn pool.fault;
        fa ())
    else fa
  in
  let pr = promise () in
  let task () = fulfill pool pr fa in
  push_local pool w task;
  let b = try Ok (fb ()) with e -> Error e in
  let a =
    if try_pop_exact pool w task then begin
      (* fast path: nobody stole it; run inline *)
      run_task task;
      match Atomic.get pr.state with
      | Done v -> v
      | Failed e -> raise e
      | Pending -> assert false
    end
    else await pool w pr
  in
  match b with Ok b -> (a, b) | Error e -> raise e

let rec parallel_for ~lo ~hi body =
  if hi - lo <= 0 then ()
  else if hi - lo = 1 then body lo
  else begin
    let mid = lo + ((hi - lo) / 2) in
    let (), () =
      fork_join (fun () -> parallel_for ~lo ~hi:mid body) (fun () -> parallel_for ~lo:mid ~hi body)
    in
    ()
  end

let parallel_map f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    let out = Array.make n (f arr.(0)) in
    parallel_for ~lo:0 ~hi:n (fun i -> out.(i) <- f arr.(i));
    out
  end

let alloc_hint n =
  match self () with
  | Some (w, pool) -> (
      let c = pool.per_worker.(w) in
      c.c_alloc_bytes <- c.c_alloc_bytes + n;
      Registry.Counter.add pool.obs.o_alloc_bytes (max 0 n);
      match pool.policy with
      | Dfdeques _ ->
        (* owner-only slot: no lock needed *)
        pool.quota_left.(w) <- pool.quota_left.(w) - n
      | Work_stealing -> ())
  | None ->
    (* aligned with every other pool operation: a hint from outside [run]
       would silently touch no quota, which hides bugs — reject it *)
    raise Not_in_pool

let quota pool =
  match pool.policy with
  | Work_stealing -> None
  | Dfdeques _ -> Some (Atomic.get pool.dfd_quota)

let set_quota pool k =
  if k <= 0 then invalid_arg "Pool.set_quota: quota must be positive";
  match pool.policy with
  | Work_stealing -> invalid_arg "Pool.set_quota: Work_stealing pool has no quota"
  | Dfdeques _ -> Atomic.set pool.dfd_quota k

let counters pool =
  Array.fold_left
    (fun acc c ->
       {
         acc with
         steals = acc.steals + c.c_steals;
         steal_failures = acc.steal_failures + c.c_steal_failures;
         local_pops = acc.local_pops + c.c_local_pops;
         quota_giveups = acc.quota_giveups + c.c_quota_giveups;
         tasks_run = acc.tasks_run + c.c_tasks_run;
         task_exns = acc.task_exns + c.c_task_exns;
         alloc_bytes = acc.alloc_bytes + c.c_alloc_bytes;
         parks = acc.parks + c.c_parks;
         r_inserts = acc.r_inserts + c.c_r_inserts;
         r_removes = acc.r_removes + c.c_r_removes;
       })
    {
      steals = 0;
      steal_failures = 0;
      local_pops = 0;
      quota_giveups = 0;
      tasks_run = 0;
      task_exns = 0;
      alloc_bytes = 0;
      parks = 0;
      r_inserts = 0;
      r_removes = 0;
      sync_ops = sync_ops pool;
    }
    pool.per_worker

(* Per-worker single-writer histograms merged at read, like the ints. *)
let rank_error pool =
  Array.fold_left
    (fun acc c -> Stats.Histogram.merge acc c.c_rank_err)
    (Stats.Histogram.create ()) pool.per_worker

let heartbeat pool =
  Array.fold_left (fun acc c -> acc + c.c_tasks_run) 0 pool.per_worker

(* --- crash-domain surface ------------------------------------------- *)

(* Per-worker progress vector (the aggregate {!val-heartbeat}, split): a
   supervisor diffing two reads can tell which worker went flat. *)
let heartbeats pool = Array.map (fun c -> c.c_tasks_run) pool.per_worker

(* Point-in-time crash-domain view of every slot.  [w_activity] is the
   take-attempt clock: an awaiting or stealing worker keeps ticking even
   when no task completes, so "activity flat AND holding" is the wedge
   signature the service's watchdog keys on. *)
let worker_states pool =
  Array.init pool.n_workers (fun w ->
      {
        w_activity = pool.per_worker.(w).c_ticks;
        w_heartbeat = pool.per_worker.(w).c_tasks_run;
        w_holding = Option.is_some (Atomic.get pool.cur_task.(w));
        w_stopped = Atomic.get pool.stopped.(w);
        w_quarantined = Atomic.get pool.quarantined.(w);
      })

(* External supervisor verdict (the service's watchdog): quarantine [w]
   without waiting for a crash certificate.  Sound only against workers
   that are certifiably fenced or wedged-in-scheduler; quarantining a
   healthy worker mid-push is the caller's bug, which is why the service
   requires the activity clock flat before issuing the verdict. *)
let quarantine ?(cause = "wedge") pool w = quarantine_as pool ~proc:(-1) ~cause w

let degraded_p pool = pool.n_workers - Atomic.get pool.n_quarantined

(* Oldest first (the atomic prepend order reversed). *)
let lineage pool = List.rev (Atomic.get pool.lineage)

let quarantines pool =
  List.fold_left (fun acc e -> if e.cause = "respawn" then acc else acc + 1) 0
    (Atomic.get pool.lineage)

(* Exactly-once recovery audit over the lineage ledger — the pool-level
   mirror of the service's [verify_ledger].  Meaningful once the pool is
   quiescent (after [run]/[drain] returns): every crash certificate must
   have been quarantined, every recovered task must have drained through
   the orphan stack, the ledger's requeue claims must match the stack's
   push count, and each slot's quarantine/respawn history must reconcile
   with its live flag. *)
let verify_lineage pool =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let pending = Atomic.get pool.crashed_pending in
  if pending <> 0 then fail "crashed_pending=%d: unquarantined crash certificates" pending
  else
    match Atomic.get pool.orphans with
    | _ :: _ as orphans -> fail "orphan stack holds %d unrecovered tasks" (List.length orphans)
    | [] ->
      let pushes = Atomic.get pool.n_orphan_pushes and pops = Atomic.get pool.n_orphan_pops in
      let entries = Atomic.get pool.lineage in
      let requeued = List.fold_left (fun a e -> if e.requeued then a + 1 else a) 0 entries in
      if pushes <> pops then
        fail "orphan pushes=%d <> pops=%d: a recovered task was lost or duplicated" pushes pops
      else if requeued <> pushes then
        fail "ledger records %d requeues but the orphan stack saw %d pushes" requeued pushes
      else begin
        let bad = ref None in
        for w = 1 to pool.n_workers - 1 do
          let qs =
            List.fold_left
              (fun a e -> if e.worker = w && e.cause <> "respawn" then a + 1 else a)
              0 entries
          and rs =
            List.fold_left
              (fun a e -> if e.worker = w && e.cause = "respawn" then a + 1 else a)
              0 entries
          in
          let live = if Atomic.get pool.quarantined.(w) then 1 else 0 in
          if qs - rs <> live && !bad = None then
            bad :=
              Some
                (Printf.sprintf "worker %d: %d quarantines - %d respawns inconsistent with live flag %d"
                   w qs rs live)
        done;
        (match !bad with Some s -> Error s | None -> Ok ())
      end

(* The registry snapshot type is the one flattening of the counters
   record; [stats] (the legacy alist) and the service's counter
   passthrough both derive from it instead of hand-rolling their own. *)
let metrics_samples pool =
  let c = counters pool in
  let s name value = { Registry.name; help = ""; stable = false; value = Registry.Counter_v value } in
  [
    s "steals" c.steals;
    s "steal_failures" c.steal_failures;
    s "local_pops" c.local_pops;
    s "quota_giveups" c.quota_giveups;
    s "tasks_run" c.tasks_run;
    s "task_exns" c.task_exns;
    s "alloc_bytes" c.alloc_bytes;
    s "parks" c.parks;
    s "r_inserts" c.r_inserts;
    s "r_removes" c.r_removes;
    s "sync_ops" c.sync_ops;
  ]

let stats pool = Registry.Snapshot.to_alist (metrics_samples pool)

let flight pool = pool.flight

(* Human-readable diagnostic dump for hang post-mortems: every counter,
   the live-task and cancellation state, and each deque's occupancy.
   Counter reads are per-worker aggregates and the R walk is a lock-free
   Multiq snapshot — both exact once idle, slightly stale while running.
   Call it from a watchdog, not a hot path. *)
let snapshot pool =
  let b = Buffer.create 256 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "pool snapshot (%s, %d workers)\n"
    (match pool.policy with
     | Work_stealing -> "WS"
     | Dfdeques { quota } -> Printf.sprintf "DFDeques(K=%d)" quota)
    pool.n_workers;
  pf "  live_tasks=%d parked=%d shutting_down=%b cancelled=%b deadline=%s\n"
    (Atomic.get pool.live_tasks) (Atomic.get pool.n_parked)
    (Atomic.get pool.shutting_down) (Atomic.get pool.cancelled)
    (match Atomic.get pool.deadline with
     | None -> "none"
     | Some d -> Printf.sprintf "%+.3fs" (d -. Unix.gettimeofday ()));
  List.iter (fun (k, v) -> pf "  %s=%d\n" k v) (stats pool);
  pf "  heartbeat=%d faults_injected=%d\n" (heartbeat pool) (Fault.injected_total pool.fault);
  pf "  degraded_p=%d quarantined=%d crashed_pending=%d orphans=%d (pushes=%d pops=%d) respawn_budget=%d\n"
    (degraded_p pool) (Atomic.get pool.n_quarantined) (Atomic.get pool.crashed_pending)
    (List.length (Atomic.get pool.orphans))
    (Atomic.get pool.n_orphan_pushes) (Atomic.get pool.n_orphan_pops)
    (Atomic.get pool.respawn_budget);
  Array.iteri
    (fun i c ->
       pf "  worker %d: tasks_run=%d steals=%d ticks=%d%s%s%s%s\n" i c.c_tasks_run c.c_steals
         c.c_ticks
         (if Option.is_some (Atomic.get pool.cur_task.(i)) then " HOLDING" else "")
         (if Atomic.get pool.stopped.(i) then " STOPPED" else "")
         (if Atomic.get pool.wedged.(i) then " WEDGED" else "")
         (if Atomic.get pool.quarantined.(i) then " QUARANTINED" else ""))
    pool.per_worker;
  List.iter
    (fun e ->
       pf "  lineage: worker %d %s%s%s\n" e.worker e.cause
         (if e.requeued then " (task requeued)" else "")
         (if e.abandoned then " (deque abandoned)" else ""))
    (lineage pool);
  (match pool.policy with
   | Work_stealing ->
     Array.iteri
       (fun i d -> pf "  deque[worker %d]: %d tasks\n" i (Lfdeque.length d))
       pool.ws_deques
   | Dfdeques _ ->
     (* lock-free Multiq walk: approximate while membership churns,
        exact once the pool is idle — same contract as the counters *)
     let ms = Multiq.members pool.r in
     pf "  R has %d deques across %d shards\n" (List.length ms)
       (Multiq.shard_count pool.r);
     List.iter
       (fun e ->
          let d = Multiq.value e in
          pf "  deque #%d owner=%s shard=%d: %d tasks\n" d.did
            (match Lfdeque.owner d.tasks with None -> "-" | Some w -> string_of_int w)
            (Multiq.shard_of e) (Lfdeque.length d.tasks))
       ms;
     pf "  K=%d\n" (Atomic.get pool.dfd_quota);
     Array.iteri (fun i q -> pf "  quota_left[worker %d]=%d\n" i q) pool.quota_left);
  Buffer.contents b

let shutdown pool =
  Atomic.set pool.shutting_down true;
  Mutex.lock pool.idle_lock;
  Condition.broadcast pool.idle_cond;
  Mutex.unlock pool.idle_lock;
  List.iter Domain.join pool.domains;
  pool.domains <- []

(* Forceful teardown for a supervisor that has declared the pool wedged:
   signal shutdown and walk away without joining, so the supervisor can
   respawn immediately.  Idle and parked workers exit promptly; a worker
   genuinely stuck inside a user task is abandoned (its domain leaks until
   the task returns, at which point the shutdown flag stops it).  Calling
   [shutdown] later reaps the domains once they have exited. *)
let kill pool =
  Atomic.set pool.shutting_down true;
  Mutex.lock pool.idle_lock;
  Condition.broadcast pool.idle_cond;
  Mutex.unlock pool.idle_lock

(* Spawn a fresh domain into a quarantined slot, under the respawn budget.
   Cold path: [respawn_lock] serialises the budget claim, the slot reset
   and the spawn, so two supervisors cannot double-fill one slot or spend
   one budget unit twice.  Resetting the slot's owner-only state is sound
   because quarantine certifiably fenced the previous incarnation (its
   generation was bumped; crashed domains have unwound, wedged ones only
   spin) — and quarantine already drained [cur_task], so no task can be
   hiding in the slot we reset.  The dead domain stays on [domains] and
   is reaped by the next [shutdown] join, exactly like a live one. *)
let respawn_worker pool w =
  if w <= 0 || w >= pool.n_workers then invalid_arg "Pool.respawn_worker: bad worker";
  Mutex.lock pool.respawn_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock pool.respawn_lock)
    (fun () ->
       if
         Atomic.get pool.quarantined.(w)
         && (not (Atomic.get pool.shutting_down))
         && Atomic.get pool.respawn_budget > 0
       then begin
         Atomic.decr pool.respawn_budget;
         assert (Option.is_none (Atomic.get pool.cur_task.(w)));
         Atomic.set pool.stopped.(w) false;
         Atomic.set pool.wedged.(w) false;
         pool.quota_left.(w) <- Atomic.get pool.dfd_quota;
         pool.dfd_deque.(w) <- None;
         Atomic.incr pool.wgen.(w);
         (* flags last: the slot is fully rebuilt before it reads as live *)
         Atomic.set pool.quarantined.(w) false;
         Atomic.decr pool.n_quarantined;
         lineage_add pool { worker = w; cause = "respawn"; requeued = false; abandoned = false };
         Registry.Counter.incr pool.obs.o_respawns;
         flight_emit pool ~proc:w (Event.Worker_respawned { worker = w });
         if Tracer.enabled pool.tracer then
           emit_locked pool ~proc:w (Event.Worker_respawned { worker = w });
         pool.domains <- Domain.spawn (fun () -> worker_loop pool w) :: pool.domains;
         true
       end
       else false)

(* Entry points for the systematic concurrency checker (lib/check): a
   pool with worker slots but no spawned domains, so every thread touching
   it is one the checker controls, plus explicit worker impersonation and
   single help steps.  Not part of the public scheduling API. *)
module For_testing = struct
  let create_detached ?(fault = Fault.none) ?respawn_budget ~workers policy =
    make ?respawn_budget ~n_workers:(max 1 workers) ~tracer:Tracer.disabled ~fault policy

  let as_worker pool w f =
    if w < 0 || w >= pool.n_workers then invalid_arg "Pool.For_testing.as_worker";
    let ctx = Domain.DLS.get worker_key in
    let saved = !ctx in
    ctx := Some (w, pool);
    Fun.protect ~finally:(fun () -> ctx := saved) f

  let help pool w = help_once pool w

  (* One top-of-loop step as a worker domain would take it: crash/wedge
     faults are armed and the crash path's [Worker_stop] is surfaced as a
     verdict instead of escaping into the checker. *)
  let help_top pool w =
    match help_once ~top:true pool w with
    | true -> `Ran
    | false -> `Idle
    | exception Worker_stop -> `Stopped

  let scan pool ~proc = scan_crashed pool ~proc

  let sync_cell = sync_cell

  let live_tasks pool = Atomic.get pool.live_tasks
end

let parallel_reduce ~zero ~op ~lo ~hi f =
  let rec go lo hi =
    if hi - lo <= 0 then zero
    else if hi - lo = 1 then f lo
    else begin
      let mid = lo + ((hi - lo) / 2) in
      let a, b = fork_join (fun () -> go lo mid) (fun () -> go mid hi) in
      op a b
    end
  in
  go lo hi

(* Blelloch two-phase scan over [grain]-sized chunks: reduce each chunk in
   parallel, serially prefix the chunk sums (few chunks), then expand each
   chunk in parallel. *)
let parallel_prefix_sum ~zero ~op arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    let grain = 1024 in
    let nchunks = (n + grain - 1) / grain in
    let sums = Array.make nchunks zero in
    parallel_for ~lo:0 ~hi:nchunks (fun c ->
        let lo = c * grain and hi = min n ((c + 1) * grain) in
        let acc = ref zero in
        for i = lo to hi - 1 do
          acc := op !acc arr.(i)
        done;
        sums.(c) <- !acc);
    let offsets = Array.make nchunks zero in
    for c = 1 to nchunks - 1 do
      offsets.(c) <- op offsets.(c - 1) sums.(c - 1)
    done;
    let out = Array.make n zero in
    parallel_for ~lo:0 ~hi:nchunks (fun c ->
        let lo = c * grain and hi = min n ((c + 1) * grain) in
        let acc = ref offsets.(c) in
        for i = lo to hi - 1 do
          out.(i) <- !acc;
          acc := op !acc arr.(i)
        done);
    out
  end

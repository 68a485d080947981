module Lfdeque = Dfd_structures.Lfdeque
module Multiq = Dfd_structures.Multiq
module Stats = Dfd_structures.Stats
module Prng = Dfd_structures.Prng
module Schedpoint = Dfd_structures.Schedpoint
module Tracer = Dfd_trace.Tracer
module Event = Dfd_trace.Event
module Fault = Dfd_fault.Fault
module Registry = Dfd_obs.Registry

exception Not_in_pool

exception Nested_run

exception Timeout

exception Cancelled

(* Internal control-flow signal: a worker domain hit its injected crash
   (or was quarantined out from under a wedge) and must unwind its
   worker loop without running anything else.  Never escapes the pool. *)
exception Worker_stop

(* A queued task; its argument is the worker that runs it, so the task
   can charge its own synchronization ops to that worker's cell. *)
type task = int -> unit

(* The empty slot of a private stack. *)
let no_task : task = fun _ -> ()

(* A worker's private task part: an owner-only stack in front of its
   public [Lfdeque], after Acar, Charguéraud & Rainey's work stealing with
   private deques (PPoPP 2013).  The live tasks are [items.(lo .. hi-1)],
   oldest at [lo].  The owner pushes and pops at [hi] with plain writes
   and publishes from [lo] (oldest first) when a thief asks, so every
   public task is older than every private one and the two parts read as
   one deque.  No other worker ever writes it. *)
type pstack = { mutable items : task array; mutable lo : int; mutable hi : int }

(* A published task, as a public deque holds it.  Its one taker empties
   it ([take_slot]): [Lfdeque.steal] leaves a won cell in place until the
   buffer wraps round to it, and with pushes now rare that can take long,
   so the cell must not keep the task's closure, and whatever the closure
   holds, alive. *)
type slot = { mutable run : task }

let take_slot s =
  let t = s.run in
  s.run <- no_task;
  Some t

type policy = Work_stealing | Dfdeques of { quota : int }

(* A deque of the global list R (DFDeques only; the WS policy keeps one
   bare [Lfdeque] per worker).  Task transfer is CAS-only through [Lfdeque] —
   owner push/pop at the bottom, thief steals at the top, the sticky
   owner certificate and the [is_dead] reap test all live inside the
   structure, so there is no per-deque lock at all.  R membership lives
   in the lock-free [Multiq] (the deque's position is the [Multiq.entry]
   handle held in [dfd_deque] or by a sampling thief).  [did]/[born_us]
   feed the deque-lifecycle trace events. *)
type dq = { tasks : slot Lfdeque.t; did : int; born_us : int }

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
   perfbench/ keeps honest.  With a real registry the pool's
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
  ws_deques : slot Lfdeque.t array;
      (** worker [w]'s deque is owned by [w] and never abandoned: a
          quarantined worker's deque stays in place as a steal target. *)
  (* --- Dfdeques: the relaxed ordered list R -------------------------
     No scheduling or event-recording path takes a mutex: only idle
     parking and respawn do, and neither holds a task.  R membership
     (insert, remove, the thief's insert-after-victim) is lock-free CAS
     in the [Multiq]; victim selection is two-choice sampling over its
     shards; task transfer is CAS-only through [Lfdeque]. *)
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
  per_worker : wcounters array;
  sync_cells : int ref option array;
      (** synchronization ops (atomic RMWs and publishing stores, CAS
          retries included) each worker executed on its scheduling paths,
          both policies.  Worker [w] owns [sync_cells.(pad_index w)]; the
          other cells are padding (see {!padded_run}).  Each cell is
          stored already boxed as the Lfdeque/Multiq [?ops] argument, so
          passing it allocates nothing.  A ref rather than a mutable field so
          the structures can bump it directly; still single-writer
          (thief-side ops are charged to the thief).  Summed by
          {!val-sync_ops} — deliberately not mirrored into a registry
          counter on the hot path, which would add an atomic RMW per
          operation just to count atomic RMWs; the registry exposes it as
          a lazy probe instead. *)
  priv : pstack array;
      (** each worker's private part, [priv.(pad_index w)], owner-only;
          the other records are padding (see {!padded_run}). *)
  req : bool Atomic.t array;
      (** each worker's request flag, [req.(pad_index w)]: raised by a
          thief that found the worker's public part empty, read with a
          plain load by the owner at every fork and join, cleared by the
          owner when it publishes.  The other cells are padding. *)
  idle_lock : Mutex.t;
  idle_cond : Condition.t;
  n_parked : int Atomic.t;
      (** workers announced as about to sleep.  Atomic (not merely under
          [idle_lock]): the parker's [incr n_parked]-then-scan and the
          pusher's publish-then-[read n_parked] must both be sequentially
          consistent for wake-ups to be lossless (see {!park}).  Pushers
          only read it. *)
  wakeups : int Atomic.t;
      (** wake-up signals sent: publications (or requeues) that saw a
          parked worker.  Written only on that slow path. *)
  shutting_down : bool Atomic.t;
  mutable domains : unit Domain.t list;
  rngs : Prng.t array;  (** per worker; only touched by its own worker. *)
  tracer : Tracer.t;
      (** every event, one lane per worker plus the last for external
          writers ({!Tracer.disabled} by default). *)
  fault : Fault.t;  (** fault-injection plan; {!Fault.none} by default. *)
  obs : obs;  (** registry instruments; no-ops under {!Registry.disabled}. *)
  flight : Tracer.t;
      (** always-on crash-forensics ring, laned like [tracer]
          ({!Tracer.disabled} by default); only rare events are recorded,
          so the hot path stays clean. *)
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
   called inside [Tracer.enabled] / [rings_live] guards — the hot path
   never reads the clock when no ring is live. *)
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
(* Event recording: lock-free.  Both rings give each worker its own     *)
(* lane and external writers ([proc = -1]) the last one, so every       *)
(* emit appends to a lane nobody else writes.                           *)
(* ------------------------------------------------------------------ *)

let rings_live pool = Tracer.enabled pool.tracer || Tracer.enabled pool.flight

(* A rare event (steal successes, quota giveups, deque lifecycle, faults,
   task exceptions, crash-domain transitions), into both rings.  Callers
   guard with [rings_live] and read the clock once inside the guard, so
   with no live ring neither the clock nor the payload is touched.
   Frequent events (steal attempts, one [Action_batch] per task, steal
   ranks) go to the tracer only. *)
let note pool ~ts ~proc kind =
  Tracer.emit pool.tracer ~ts ~proc ~tid:(-1) kind;
  Tracer.emit pool.flight ~ts ~proc ~tid:(-1) kind

let trace_steal_attempt pool w ~victim =
  if Tracer.enabled pool.tracer then
    Tracer.emit pool.tracer ~ts:(now_us pool) ~proc:w ~tid:(-1) (Event.Steal_attempt { victim })

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
    let ts = now_us pool in
    pool.last_active_us.(w) <- ts;
    Tracer.emit pool.tracer ~ts ~proc:w ~tid:(-1) (Event.Action_batch { units = 1 })
  end

(* A task raised: counted, and noted as a [task_exn] fault. *)
let note_task_exn pool w =
  let c = pool.per_worker.(w) in
  c.c_task_exns <- c.c_task_exns + 1;
  Registry.Counter.incr pool.obs.o_task_exns;
  if rings_live pool then
    note pool ~ts:(now_us pool) ~proc:w (Event.Fault_injected { fault = "task_exn" })

let note_steal_success pool w ~victim =
  let c = pool.per_worker.(w) in
  c.c_steals <- c.c_steals + 1;
  Registry.Counter.incr pool.obs.o_steals;
  if rings_live pool then begin
    let ts = now_us pool in
    (* [last_active_us] is stamped only while the tracer is on *)
    let latency = if Tracer.enabled pool.tracer then ts - pool.last_active_us.(w) else 0 in
    note pool ~ts ~proc:w (Event.Steal_success { victim; latency })
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
    if rings_live pool then
      note pool ~ts:(now_us pool) ~proc:w (Event.Fault_injected { fault = "steal_fail" })
  end;
  fail

(* ------------------------------------------------------------------ *)
(* Padded cells: the per-worker sync-op counts                         *)
(* ------------------------------------------------------------------ *)

(* Layout rule for a 1-field block that some worker writes on every
   deque operation: no other such block, and no block that a worker
   reads on every operation, within 128 bytes of it (the span an
   adjacent-line prefetcher pulls in as a pair).  Otherwise each write
   sends the line back and forth between the cores.  Measured with
   fork-join fib at p = 2 on a 2-core x86-64 host: one unpadded sync-op
   ref per worker, allocated back to back, made WS about 25% slower than
   with the refs apart.
   OCaml 5's major heap keeps each block size in pools of its own, so
   padding separates two refs or atomics only if it is the same size:
   each cell is the middle element of its own run of [pad_stride].
   [make] allocates the runs first and promotes them at once with a
   minor collection, before any other value points at a cell, so each
   run is copied out in array order into consecutive slots of one size
   class.  A run element is a cell boxed as [Some cell], and the
   collector copies a one-field block's field right after the block, so
   the run lays out box, cell, box, cell: the box its worker reads on
   every operation is the block next to the cell it writes, the pair has
   16 blocks (256 bytes) of padding on one side and 14 (224 bytes) on
   the other, and neighbouring workers' cells are 512 bytes apart.  The runs stay
   reachable from the pool so the padding is never freed and reused. *)
let pad_stride = 16

let pad_index i = (i * pad_stride) + (pad_stride / 2)

let padded_run n make = Array.init (n * pad_stride) (fun _ -> make ())

(* The worker's sync-op cell as the [?ops] argument of every
   Lfdeque/Multiq mutating call on its behalf, and unboxed for the
   pool's own counts. *)
let ops pool w = pool.sync_cells.(pad_index w)

let sync_cell pool w = Option.get (ops pool w)

(* The private part and the request flag follow the same rule: the owner
   writes its [pstack] on every fork and join, and reads its flag there,
   so each is the middle of a run of its own size, like the sync cells.
   A [pstack]'s [items] array is the middle of a run of arrays for the
   same reason (a stack grown later moves out of it). *)
let pstack pool w = pool.priv.(pad_index w)

let req pool w = pool.req.(pad_index w)

let private_capacity = 32

(* ------------------------------------------------------------------ *)
(* The private part: owner-only, plain writes                          *)
(* ------------------------------------------------------------------ *)

let push_private s task =
  if s.hi = Array.length s.items then begin
    (* full: slide the live tasks down over published slots, or grow *)
    let n = s.hi - s.lo in
    let items = if s.lo > 0 then s.items else Array.make (2 * n) no_task in
    Array.blit s.items s.lo items 0 n;
    Array.fill items n (Array.length items - n) no_task;
    s.items <- items;
    s.lo <- 0;
    s.hi <- n
  end;
  s.items.(s.hi) <- task;
  s.hi <- s.hi + 1

(* Only ever called on a nonempty part.  Slots are cleared as they empty
   so a stack does not keep finished closures alive. *)
let pop_private s =
  let i = s.hi - 1 in
  let t = s.items.(i) in
  s.items.(i) <- no_task;
  if i = s.lo then begin
    s.lo <- 0;
    s.hi <- 0
  end
  else s.hi <- i;
  t

let take_oldest s =
  let t = s.items.(s.lo) in
  s.items.(s.lo) <- no_task;
  s.lo <- s.lo + 1;
  if s.lo = s.hi then begin
    s.lo <- 0;
    s.hi <- 0
  end;
  t

let private_empty pool w =
  let s = pstack pool w in
  s.hi = s.lo

(* Thief [w] found [v]'s public part empty: ask [v] to publish.  The flag
   is read first, so thieves polling a victim that has not answered yet
   write nothing; the raise is the thief's one sync op. *)
let request pool w v =
  let f = req pool v in
  if v <> w && not (Atomic.get f) then begin
    Schedpoint.point Schedpoint.pool_request;
    Atomic.set f true;
    let ops = sync_cell pool w in
    ops := !ops + 1
  end

(* ------------------------------------------------------------------ *)
(* Idle parking                                                        *)
(* ------------------------------------------------------------------ *)

(* Wake at most one parked worker.  The publisher has already stored the
   task in its public deque (an SC store), so either the parker's scan,
   which follows its SC announce, sees the task, or this read sees the
   announce — a wake-up can never be lost between the two (see {!park}).
   Signalling one worker instead of broadcasting avoids the thundering
   herd the old single [Condition] produced: p-1 sleepers stampeding the
   lock for one task. *)
let signal_work pool =
  Schedpoint.point Schedpoint.pool_signal;
  if Atomic.get pool.n_parked > 0 then begin
    Atomic.incr pool.wakeups;
    Mutex.lock pool.idle_lock;
    Condition.signal pool.idle_cond;
    Mutex.unlock pool.idle_lock
  end

(* Whether any task sits where a worker could take it: the orphan stack,
   then every WS deque or every live R member's deque.  Reads only (two
   atomic loads per deque), allocates nothing.  Private parts are not
   scanned: another worker's private part can only be read without
   synchronization ([private_work]), and an owner that holds private
   work publishes it at its next fork or join once it sees a parked
   worker ({!park}). *)
let work_queued pool =
  Atomic.get pool.orphans <> []
  ||
  match pool.policy with
  | Work_stealing -> Array.exists (fun q -> not (Lfdeque.is_empty q)) pool.ws_deques
  | Dfdeques _ -> Multiq.exists (fun d -> not (Lfdeque.is_empty d.tasks)) pool.r

(* Whether some worker holds private work: a hint, read without
   synchronization from owner-only fields, so it may be stale.  It keeps
   an idle worker asking instead of sleeping while a peer is busy; the
   guarantee against sleeping through private work is the owner's
   [n_parked] check at its next boundary, not this read. *)
let private_work pool =
  let rec go v = v < pool.n_workers && ((not (private_empty pool v)) || go (v + 1)) in
  go 0

(* A parked worker's reasons to get up.  A pending crash certificate
   counts: the crasher broadcasts, and the woken worker must
   scan-and-quarantine, since the held task is not queued anywhere until
   a quarantiner requeues it. *)
let idle_over pool =
  work_queued pool || private_work pool || Atomic.get pool.shutting_down
  || Atomic.get pool.crashed_pending > 0

(* The parker's half of the wake-up handshake: announce, then scan.
   Every publication stores its task and then reads [n_parked]
   ([signal_work]).  OCaml atomics are SC, so if this scan misses the
   task, the scan's read came before the publishing store, the announce
   before that, and the publisher's later read of [n_parked] sees the
   announce and signals.  Scanning before announcing would let both
   sides miss each other.  Private work needs no scan: its owner reads
   [n_parked] at every fork and join and, seeing the announce, publishes
   and signals ({!boundary}); a parker never holds private work itself,
   since it parks only at the top of its loop.  [`Found_work] withdraws
   the announce; [`Would_sleep] leaves it for the caller's wait. *)
let announce_and_scan pool =
  Atomic.incr pool.n_parked;
  Schedpoint.point Schedpoint.pool_park;
  if idle_over pool then begin
    Atomic.decr pool.n_parked;
    `Found_work
  end
  else `Would_sleep

(* Sleep until work is queued (or shutdown, or a crash).  The lock makes
   the signal wait for the sleeper: a pusher that saw the announce takes
   [idle_lock] to signal, which it can only do once this worker is inside
   [Condition.wait].  The scan is repeated before every wait, so a
   spurious or stolen wake-up just sleeps again.  [pool_park] is the one
   yield point inside a held mutex; controlled threads only reach it
   through [For_testing.park_step], which takes no lock. *)
let park pool w =
  Mutex.lock pool.idle_lock;
  (match announce_and_scan pool with
   | `Found_work -> ()
   | `Would_sleep ->
     let c = pool.per_worker.(w) in
     c.c_parks <- c.c_parks + 1;
     Registry.Counter.incr pool.obs.o_parks;
     Condition.wait pool.idle_cond pool.idle_lock;
     while not (idle_over pool) do
       Condition.wait pool.idle_cond pool.idle_lock
     done;
     Atomic.decr pool.n_parked);
  Mutex.unlock pool.idle_lock

(* ------------------------------------------------------------------ *)
(* DFDeques: lock-free R membership (Multiq CAS paths) and CAS-only     *)
(* task transfer (Lfdeque)                                              *)
(* ------------------------------------------------------------------ *)

let new_dq pool ~proc ~owner =
  let born_us = if rings_live pool then now_us pool else 0 in
  let d =
    {
      tasks = Lfdeque.create ?owner ();
      did = Atomic.fetch_and_add pool.next_did 1;
      born_us;
    }
  in
  Registry.Counter.incr pool.obs.o_deques_created;
  if rings_live pool then note pool ~ts:born_us ~proc (Event.Deque_created { did = d.did });
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
     && Multiq.remove ?ops:(ops pool proc) pool.r e
  then begin
    let c = pool.per_worker.(proc) in
    c.c_r_removes <- c.c_r_removes + 1;
    Registry.Counter.incr pool.obs.o_deques_deleted;
    if rings_live pool then begin
      let ts = now_us pool in
      note pool ~ts ~proc (Event.Deque_deleted { did = d.did; residency = ts - d.born_us })
    end
  end

(* The worker's own deque, creating and inserting it at the front of R if
   it has none (a worker that just gave its deque away or is pushing its
   first task). *)
let dfd_own_deque pool w =
  match pool.dfd_deque.(w) with
  | Some e -> Multiq.value e
  | None ->
    let d = new_dq pool ~proc:w ~owner:(Some w) in
    pool.dfd_deque.(w) <- Some (Multiq.insert_front ?ops:(ops pool w) pool.r d);
    note_r_insert pool w;
    d

(* Abandon the worker's deque (quota exhausted, or found empty): publish
   the sticky owner give-up and drop the deque from R if there is nothing
   left to steal from it.  The paper's discipline — a nonempty abandoned
   deque stays in R for thieves.  Forgetting the handle *before* the
   sticky store becomes visible is what makes [Lfdeque.is_dead] sound:
   once any reader sees [owner = None], this worker can no longer reach
   the deque to push.  An abandoned deque is fully public: the worker
   abandons only inside [try_get], where its private part is empty (a
   top-of-loop take, a join whose branch was published, which went
   oldest first, or [drain] once a run has unwound), so there is nothing
   left to publish. *)
let dfd_abandon pool w =
  match pool.dfd_deque.(w) with
  | None -> ()
  | Some e ->
    assert (private_empty pool w);
    pool.dfd_deque.(w) <- None;
    Lfdeque.abandon ?ops:(ops pool w) (Multiq.value e).tasks;
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
    Tracer.emit pool.tracer ~ts:(now_us pool) ~proc:w ~tid:(-1)
      (Event.Steal_rank { victim = (Multiq.value e).did; rank; err })

(* A successful DFD steal: the thief takes ownership of a fresh deque
   inserted immediately to the right of the victim (paper invariant: a
   thief's new deque sits just after the deque it stole from — the
   victim entry's right gap is split by CAS, and a victim that died
   concurrently still anchors the position it held), and the victim is
   reaped if the steal emptied an unowned deque. *)
let dfd_adopt_after pool w victim_e =
  let d = new_dq pool ~proc:w ~owner:(Some w) in
  let e = Multiq.insert_after ?ops:(ops pool w) pool.r victim_e d in
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
      (match Lfdeque.steal ?ops:(ops pool w) victim.tasks with
       | None ->
         (* drained (or raced) between sample and steal; reap if dead,
            or ask a live owner to publish *)
         reap_if_dead pool ~proc:w victim_e;
         note_steal_failure pool w;
         (match Lfdeque.owner victim.tasks with
          | Some v when Lfdeque.is_empty victim.tasks -> request pool w v
          | _ -> ());
         None
       | Some got ->
         note_steal_success pool w ~victim:victim.did;
         note_rank_error pool w victim_e;
         dfd_adopt_after pool w victim_e;
         (* refill from the current K: a runtime quota adjustment takes
            effect here, at the worker's next steal *)
         pool.quota_left.(w) <- Atomic.get pool.dfd_quota;
         take_slot got)
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
   held task is queued nowhere a parker's scan could see it until a
   quarantiner requeues it. *)
let worker_crash pool w =
  if rings_live pool then
    note pool ~ts:(now_us pool) ~proc:w (Event.Fault_injected { fault = "worker_crash" });
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
  if rings_live pool then
    note pool ~ts:(now_us pool) ~proc:w (Event.Fault_injected { fault = "worker_wedge" });
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
   cannot both win), abandons the dead owner's DFDeques deque via the
   sticky death-certificate protocol (sound because the owner is
   certifiably fenced: crashed domains have unwound, wedged ones spin
   without touching the pool, so no push can race the abandonment — the
   one relaxation of the owner-only [abandon] contract, audited in
   DESIGN.md §17), appends the lineage-ledger entry that
   {!verify_lineage} later audits, and only then requeues the held task
   through the orphan stack.  Reap/abandon sync ops are charged to the
   dead worker's own record — it is fenced, so the single-writer
   discipline holds.  [proc] identifies the quarantining
   peer for trace attribution (-1 for an external supervisor). *)
let quarantine_as pool ~proc ~cause w =
  if w <= 0 || w >= pool.n_workers then invalid_arg "Pool.quarantine: bad worker";
  if Atomic.compare_and_set pool.quarantined.(w) false true then begin
    Schedpoint.point Schedpoint.pool_quarantine;
    Atomic.incr pool.n_quarantined;
    Atomic.incr pool.wgen.(w);
    if Atomic.get pool.stopped.(w) then Atomic.decr pool.crashed_pending;
    let held = Atomic.exchange pool.cur_task.(w) None in
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
            Lfdeque.abandon ?ops:(ops pool w) (Multiq.value e).tasks;
            reap_if_dead pool ~proc:w e;
            true)
    in
    lineage_add pool { worker = w; cause; requeued = Option.is_some held; abandoned };
    (* The requeue comes after the abandonment and the ledger entry: the
       requeued task can complete the computation, so a [run] that
       returns — and a [verify_lineage] or [respawn_worker] after it —
       must find both done. *)
    (match held with
     | Some task ->
       orphan_push pool task;
       Registry.Counter.incr pool.obs.o_requeues;
       if rings_live pool then
         note pool ~ts:(now_us pool) ~proc (Event.Task_requeued { worker = w });
       signal_work pool
     | None -> ());
    Registry.Counter.incr pool.obs.o_quarantines;
    if rings_live pool then
      note pool ~ts:(now_us pool) ~proc (Event.Worker_quarantined { worker = w; cause });
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

let public_deque pool w =
  match pool.policy with
  | Work_stealing -> pool.ws_deques.(w)
  | Dfdeques _ -> (dfd_own_deque pool w).tasks

(* Push onto the worker's public deque, then read [n_parked]: the
   publisher's half of the wake-up handshake ({!park}). *)
let publish pool w task =
  Schedpoint.point Schedpoint.pool_push;
  Lfdeque.push ?ops:(ops pool w) (public_deque pool w) { run = task };
  signal_work pool

(* The owner's answer: clear the request first, so a thief that asks
   again after this point is seen at the next boundary, then move the
   oldest private task to the bottom of the public deque. *)
let respond pool w s =
  Schedpoint.point Schedpoint.pool_respond;
  let f = req pool w in
  if Atomic.get f then begin
    Atomic.set f false;
    let ops = sync_cell pool w in
    ops := !ops + 1
  end;
  publish pool w (take_oldest s)

(* The check at every fork and join: two plain loads while nobody asks.
   A parked worker counts as a request, so no worker sleeps while a
   running peer holds private work past its next boundary. *)
let boundary pool w s =
  if s.hi > s.lo && (Atomic.get (req pool w) || Atomic.get pool.n_parked > 0) then
    respond pool w s

(* A fork: plain writes to the private part, then the boundary check.
   Under DFDeques the worker's deque must be in R, where thieves look for
   owners to ask. *)
let push_local pool w task =
  (match pool.policy with
   | Dfdeques _ -> ignore (dfd_own_deque pool w)
   | Work_stealing -> ());
  let s = pstack pool w in
  push_private s task;
  boundary pool w s

(* One attempt to obtain a task; lock-free on every path — WS and DFD
   both go through CAS-only deques.  Only public parts are taken from:
   the caller's own private part is empty here (see {!dfd_abandon}). *)
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
      match Lfdeque.pop ?ops:(ops pool w) pool.ws_deques.(w) with
      | Some got ->
        let c = pool.per_worker.(w) in
        c.c_local_pops <- c.c_local_pops + 1;
        Registry.Counter.incr pool.obs.o_local_pops;
        take_slot got
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
            let q = pool.ws_deques.(victim) in
            match Lfdeque.steal ?ops:(ops pool w) q with
            | Some got ->
              note_steal_success pool w ~victim;
              take_slot got
            | None ->
              note_steal_failure pool w;
              if Lfdeque.is_empty q then request pool w victim;
              None
        end)
  | Dfdeques _ -> (
      match pool.dfd_deque.(w) with
      | Some _ when pool.quota_left.(w) <= 0 ->
        (* memory quota exhausted: abandon the deque and steal *)
        let c = pool.per_worker.(w) in
        c.c_quota_giveups <- c.c_quota_giveups + 1;
        Registry.Counter.incr pool.obs.o_quota_giveups;
        if rings_live pool then begin
          let quota = Atomic.get pool.dfd_quota in
          note pool ~ts:(now_us pool) ~proc:w
            (Event.Quota_exhausted { used = quota - pool.quota_left.(w); quota })
        end;
        dfd_abandon pool w;
        dfd_steal pool w
      | Some e -> (
          let d = Multiq.value e in
          match Lfdeque.pop ?ops:(ops pool w) d.tasks with
          | Some got ->
            let c = pool.per_worker.(w) in
            c.c_local_pops <- c.c_local_pops + 1;
            take_slot got
          | None ->
            (* empty own deque: retire it, then steal *)
            dfd_abandon pool w;
            dfd_steal pool w)
      | None -> dfd_steal pool w))

let run_task w t = t w

(* Grab one task and run it; returns false if none was found.  A task that
   escapes an exception must never tear down the worker that happened to
   run it: promise-backed tasks capture exceptions themselves ([fulfill]),
   so this is the belt-and-braces path for malformed raw tasks — count it
   and carry on. *)
let help_once ?(top = false) pool w =
  match try_get pool w with
  | Some _ as held ->
    (* publish the held task before anything can kill us: a quarantiner
       that reads our certificate is guaranteed to see it.  This store and
       the exchange below are the take path's two sync ops. *)
    Atomic.set pool.cur_task.(w) held;
    let ops = sync_cell pool w in
    ops := !ops + 2;
    (* seeded crash/wedge injection — top-of-loop takes by worker domains
       only, so a dying worker holds exactly one unstarted task and
       nothing else in flight, its private part empty (the caller and
       nested helping takes are never crash-eligible: killing a worker
       mid-computation would strand a half-run task that cannot be
       requeued exactly-once) *)
    if top && w > 0 then (
      match Fault.worker_take pool.fault ~worker:w with
      | `None -> ()
      | `Crash -> worker_crash pool w
      | `Wedge -> wedge_spin pool w);
    (match Atomic.exchange pool.cur_task.(w) None with
     | Some t' ->
       note_task_start pool w;
       (try run_task w t' with _ -> note_task_exn pool w)
     | None ->
       (* a quarantiner won the exchange: the task is requeued and this
          worker has been declared dead — unwind without running it *)
       raise Worker_stop);
    true
  | None -> false

(* Pop a published branch back if it is still at the bottom of the public
   deque.  Physical equality identifies the task.  Both policies use the
   same lock-free discipline: owner pop, and a pop that surfaces some
   other task (possible only if ours was stolen) is pushed straight
   back — the push-back is safe because only the owner pops its own
   deque, so nothing was reordered underneath it.  The task was queued
   nowhere between the pop and the push-back, so a worker may have
   parked in that window: the push-back signals like any publication. *)
let pop_back pool w tasks task =
  let ops = ops pool w in
  match Lfdeque.pop ?ops tasks with
  | Some s when s.run == task ->
    s.run <- no_task;
    true
  | Some other ->
    Lfdeque.push ?ops tasks other;
    signal_work pool;
    false
  | None -> false

(* The join's take.  A nonempty private part means the branch was never
   published: publication goes oldest first and every younger fork has
   joined already, so the branch is on top, taken with plain writes.  An
   empty private part means it was published: pop it back if no thief
   took it.  So a join whose branch was stolen has an empty private
   part. *)
let try_pop_exact pool w task =
  let s = pstack pool w in
  if s.hi > s.lo then begin
    let t = pop_private s in
    assert (t == task);
    note_task_start pool w;
    boundary pool w s;
    true
  end
  else begin
    Schedpoint.point Schedpoint.pool_pop_exact;
    let got =
      match pool.policy with
      | Work_stealing -> pop_back pool w pool.ws_deques.(w) task
      | Dfdeques _ -> (
          match pool.dfd_deque.(w) with
          | None -> false
          | Some e -> pop_back pool w (Multiq.value e).tasks task)
    in
    if got then note_task_start pool w;
    got
  end

(* ------------------------------------------------------------------ *)
(* Futures                                                             *)
(* ------------------------------------------------------------------ *)

type 'a outcome = Pending | Done of 'a | Failed of exn

(* One block per fork: the cell itself. *)
type 'a promise = 'a outcome Atomic.t

(* Run [f] as worker [w] and publish its outcome.  Only a task taken
   through [help_once] runs here (a steal, a helper's local pop, a
   requeued orphan); the forking worker that pops its own task back runs
   [f] inline and never touches the promise ([join_fork]).  The
   publishing store is a sync op, charged to [w]. *)
let fulfill pool w (pr : _ promise) f =
  let v =
    match f () with
    | x -> Done x
    | exception e ->
      note_task_exn pool w;
      Failed e
  in
  Schedpoint.point Schedpoint.pool_fulfill;
  Atomic.set pr v;
  let ops = sync_cell pool w in
  ops := !ops + 1

let await pool w (pr : _ promise) =
  let rec go misses =
    match Atomic.get pr with
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
        (* bounded spin, then park until a publication signals — but only
           if a lock-free scan finds nothing queued anywhere and no peer
           holding private work, so a publisher never sees a worker parked
           while work waits, and the busy path never scans.  No thundering
           herd: one signal wakes one. *)
        if !misses >= park_threshold && not (work_queued pool || private_work pool) then begin
          park pool w;
          misses := 0
        end
        else backoff_wait pool.rngs.(w) !misses
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

let make ?(registry = Registry.disabled) ?(flight = Tracer.disabled) ?(respawn_budget = 0)
    ~n_workers ~tracer ~fault policy =
    List.iter
      (fun (name, ring) ->
        if Tracer.enabled ring && Tracer.lanes ring < n_workers + 1 then
          invalid_arg
            (Printf.sprintf "Pool.create: the %s ring needs n_workers + 1 = %d lanes, has %d"
               name (n_workers + 1) (Tracer.lanes ring)))
      [ ("tracer", tracer); ("flight", flight) ];
    (* the padded runs first, then one minor collection (the layout rule
       above) *)
    let sync_cells = padded_run n_workers (fun () -> Some (ref 0)) in
    let req = padded_run n_workers (fun () -> Atomic.make false) in
    let priv =
      padded_run n_workers (fun () ->
          { items = Array.make private_capacity no_task; lo = 0; hi = 0 })
    in
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
      priv;
      req;
      idle_lock = Mutex.create ();
      idle_cond = Condition.create ();
      n_parked = Atomic.make 0;
      wakeups = Atomic.make 0;
      shutting_down = Atomic.make false;
      domains = [];
      rngs = Array.init n_workers (fun i -> Prng.create (1000 + i));
      tracer;
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

(* Tasks queued where a worker could take them, counted over the same
   places [work_queued] scans: public parts and orphans, not private
   parts.  Exact once the pool is quiescent. *)
let queued pool =
  List.length (Atomic.get pool.orphans)
  +
  match pool.policy with
  | Work_stealing -> Array.fold_left (fun n q -> n + Lfdeque.length q) 0 pool.ws_deques
  | Dfdeques _ ->
    List.fold_left
      (fun n e -> n + Lfdeque.length (Multiq.value e).tasks)
      0 (Multiq.members pool.r)

(* After cancellation the deques may still hold queued tasks whose parents
   have unwound: run them all (they raise [Cancelled] immediately or are
   cheap leftovers) so the pool is clean for the next [run]. *)
let drain pool =
  let misses = ref 0 in
  (* a pending crash certificate hides a held task that no deque holds:
     quarantine first so nothing is stranded *)
  while work_queued pool || Atomic.get pool.crashed_pending > 0 do
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

(* Take the forked task back if nobody stole it and run [fa] inline (the
   fast path: a plain pop of the private part), else help until its thief
   publishes the outcome.  The winning pop is the only proof that no one
   else runs [fa]: a [Pending] promise does not mean unstolen, since a
   thief holds it [Pending] until [fa] returns (the planted twin in
   lib/check makes exactly that mistake).  The inline path skips the
   promise altogether, so only a taken task writes one and only [await]
   reads one. *)
let join_fork pool w task (pr : _ promise) fa =
  if try_pop_exact pool w task then begin
    match fa () with
    | v -> v
    | exception e ->
      note_task_exn pool w;
      raise e
  end
  else await pool w pr

let fork_join fa fb =
  let w, pool = self_exn () in
  check_cancel pool;
  let fa =
    if Fault.enabled pool.fault then (fun () ->
        Fault.maybe_task_exn pool.fault;
        fa ())
    else fa
  in
  let pr = Atomic.make Pending in
  let task w = fulfill pool w pr fa in
  push_local pool w task;
  match fb () with
  | b -> (join_fork pool w task pr fa, b)
  | exception e ->
    (* the forked branch still joins first (its exception wins) *)
    ignore (join_fork pool w task pr fa);
    raise e

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
   the queued-task, parking and cancellation state, each worker's
   private-part length and request flag, and each public deque's
   occupancy.  Private lengths are read without synchronization from
   owner-only fields, so they may be stale while the owner runs.
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
  pf "  queued=%d parked=%d wakeups=%d shutting_down=%b cancelled=%b deadline=%s\n"
    (queued pool) (Atomic.get pool.n_parked) (Atomic.get pool.wakeups)
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
       let s = pstack pool i in
       pf "  worker %d: tasks_run=%d steals=%d ticks=%d private=%d%s%s%s%s%s\n" i c.c_tasks_run
         c.c_steals c.c_ticks (s.hi - s.lo)
         (if Atomic.get (req pool i) then " REQUESTED" else "")
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
         if rings_live pool then
           note pool ~ts:(now_us pool) ~proc:w (Event.Worker_respawned { worker = w });
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

  let queued = queued

  let private_len pool w =
    let s = pstack pool w in
    s.hi - s.lo

  let requested pool w = Atomic.get (req pool w)

  let boundary pool w = boundary pool w (pstack pool w)

  let drop_request pool w = Atomic.set (req pool w) false

  let push pool w f = publish pool w (fun _ -> f ())

  type 'a fork = { f_task : task; f_pr : 'a promise }

  let fork fa =
    let w, pool = self_exn () in
    let pr = Atomic.make Pending in
    let task w = fulfill pool w pr fa in
    push_local pool w task;
    { f_task = task; f_pr = pr }

  let pop_fork k =
    let w, pool = self_exn () in
    try_pop_exact pool w k.f_task

  let peek k =
    match Atomic.get k.f_pr with
    | Pending -> None
    | Done v -> Some v
    | Failed e -> raise e

  let park_step = announce_and_scan

  let announce pool = Atomic.incr pool.n_parked

  let work_queued = work_queued

  let wakeups pool = Atomic.get pool.wakeups
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

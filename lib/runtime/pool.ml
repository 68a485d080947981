module Lfdeque = Dfd_structures.Lfdeque
module Multiq = Dfd_structures.Multiq
module Stats = Dfd_structures.Stats
module Prng = Dfd_structures.Prng
module Schedpoint = Dfd_structures.Schedpoint
module Tracer = Dfd_trace.Tracer
module Event = Dfd_trace.Event
module Registry = Dfd_obs.Registry

exception Not_in_pool

exception Nested_run

exception Cancelled

(* A queued task; its argument is the worker that runs it, so the task
   can charge its own synchronization ops to that worker's cell. *)
type task = int -> unit

(* The empty slot of a private stack. *)
let no_task : task = fun _ -> ()

(* A worker's private task part: an owner-only stack in front of its
   public [Lfdeque], after Acar, Charguéraud & Rainey's work stealing with
   private deques (PPoPP 2013).  The live tasks are [items.(lo .. hi-1)],
   oldest at [lo].  The owner pushes and pops at [hi] without
   synchronization and publishes from [lo] (oldest first) when a thief
   asks, so every public task is older than every private one and the two
   parts read as one deque.  A pop leaves its slot as it was:
   [items.(hi .. used-1)] may still hold finished tasks, and every slot
   from [used] up is [no_task].  [clear_stale] empties that stale range
   when it outgrows [stale_limit] and when the worker runs dry.  No
   other worker ever writes it. *)
type pstack = {
  mutable items : task array;
  mutable lo : int;
  mutable hi : int;
  mutable used : int;
}

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

(* A deque of the global list R, under both policies: a WS pool runs as
   DFDeques with K = ∞, the paper's space-efficient work stealer.  Task
   transfer is CAS-only through [Lfdeque] — owner push/pop at the
   bottom, thief steals at the top, the sticky owner certificate and the
   [is_dead] reap test all live inside the structure, so there is no
   per-deque lock at all.  R membership lives
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

(* One record per worker, written only by that worker (thief-side events —
   steals, failures — are charged to the thief).  Reads aggregate across
   workers and may be slightly stale, exactly the contract
   {!val-counters} documents.  Being separate heap blocks does not keep
   two workers' records off one cache line: the allocator may place them
   side by side.  The one cell written on every deque operation, the
   sync-op count, therefore lives apart from the records, in
   [sync_cells], padded (see {!padded}). *)
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
  c_rank_err : Stats.Histogram.t;
      (** rank error of this worker's successful steals; merged across
          workers by {!val-rank_error}.  Single-writer like the ints. *)
}

type t = {
  policy : policy;
  n_workers : int;  (** worker domains + the caller *)
  (* --- the relaxed ordered list R ------------------------------------
     No scheduling or event-recording path takes a mutex: only idle
     parking does, and it holds no task.  R membership (insert, remove,
     the thief's insert-after-victim) is lock-free CAS
     in the [Multiq]; victim selection is two-choice sampling over its
     shards; task transfer is CAS-only through [Lfdeque]. *)
  r : dq Multiq.t;
  dfd_deque : dq Multiq.entry option array;
      (** each worker's owned deque, as its R-membership handle;
          owner-written.  The deque itself is [Multiq.value]. *)
  quota_left : int array;  (** owner-written only. *)
  dfd_quota : int;
      (** the memory threshold K, fixed by the policy (max_int on a WS
          pool); a worker's quota refills to it at each steal. *)
  (* --- shared scheduling state -------------------------------------- *)
  per_worker : wcounters array;
  sync_cells : int ref option array;
      (** synchronization ops (atomic RMWs and publishing stores, CAS
          retries included) each worker executed on its scheduling paths,
          both policies.  Worker [w] owns [sync_cells.(w)], padded
          (see {!padded}) like its [Some] box.  Each cell is
          stored already boxed as the Lfdeque/Multiq [?ops] argument, so
          passing it allocates nothing.  A ref rather than a mutable field so
          the structures can bump it directly; still single-writer
          (thief-side ops are charged to the thief).  Summed into
          {!val-counters}' [sync_ops], which the registry reads as a lazy
          probe. *)
  priv : pstack array;
      (** each worker's private part, owner-only; the record and its
          [items] are padded (see {!padded}). *)
  req : bool Atomic.t array;
      (** each worker's request flag, padded: raised by a
          thief that found the worker's public part empty, read with a
          plain load by the owner at every fork and join, cleared by the
          owner when it publishes. *)
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
          parked worker, and recalls.  Written only on those slow paths. *)
  shutting_down : bool Atomic.t;
  (* --- borrowed worker domains (see [set] below) --------------------- *)
  slots : wdom option array;
      (** the worker domain attached to each slot 1..n-1, present or on
          its way; under [set.lock]. *)
  recall : bool Atomic.t array;
      (** each slot's recall flag: raised by a run of another pool that
          has taken the slot's domain, cleared by the domain as it
          leaves. *)
  attached : int Atomic.t;
      (** [Some] entries of [slots]; written under [set.lock], read
          without it by [run]'s entry. *)
  mutable running : bool;
      (** a run is in progress: a recaller's hint, read under
          [set.lock] and written without it. *)
  mutable live : bool;
      (** counted in the domain bound: from [create] until [shutdown] or
          [kill]; under [set.lock]. *)
  rngs : Prng.t array;  (** per worker; only touched by its own worker. *)
  tracer : Tracer.t;
      (** every event, one lane per worker ({!Tracer.disabled} by
          default). *)
  tracing : bool;
      (** [Tracer.enabled tracer], cached: it is fixed when the tracer is
          made, and the per-task path reads it here without a call into
          another module. *)
  flight : Tracer.t;
      (** always-on crash-forensics ring, laned like [tracer]
          ({!Tracer.disabled} by default); only rare events are recorded,
          so the hot path stays clean. *)
  t0 : float;  (** pool creation wall clock; event stamps are µs since. *)
  next_did : int Atomic.t;
  last_active_us : int array;
      (** per worker, tracer-only stamp of its last task (steal latency). *)
  cancelled : bool Atomic.t;
      (** set by {!cancel}, cleared by [run]'s entry: fork_join/await
          bail out cooperatively. *)
}

(* A worker domain of the process-wide set.  Every field is under
   [set.lock]. *)
and wdom = {
  id : int;
  mutable home : (t * int) option;
      (** the pool slot it is assigned to; [None] while free. *)
  mutable at : (t * int) option;
      (** the pool slot it is serving now, written by the domain itself;
          differs from [home] while it moves. *)
  mutable exiled : bool;
      (** it was serving a pool when the pool was killed: outside the
          bound until it leaves that pool. *)
  mutable quit : bool;
  mutable handle : unit Domain.t option;
}

(* Wall-clock event timestamp: microseconds since pool creation.  Only
   called inside [Tracer.enabled] / [rings_live] guards — the hot path
   never reads the clock when no ring is live. *)
let now_us pool = int_of_float ((Unix.gettimeofday () -. pool.t0) *. 1e6)

(* Which worker the current domain/thread is, while inside [run]. *)
let worker_key : (int * t) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

(* Every helper an unstolen fork and its join pass through is
   [@inline]: without flambda, ocamlopt inlines none of them on its own,
   and each call costs a stack check.  Cold paths stay calls.
   test/inline_guard fails if [fork_join]'s machine code calls one
   (DESIGN.md §10). *)
let[@inline] self () = !(Domain.DLS.get worker_key)

let[@inline] self_exn () =
  match self () with
  | Some ctx -> ctx
  | None -> raise Not_in_pool

(* Cooperative cancellation: one load at every fork and await
   iteration.  Once {!cancel} has set the flag, every scheduler
   interaction raises, so the computation unwinds without creating new
   work.  The pool keeps no clock for it: a caller with a deadline
   watches its own and cancels. *)
let[@inline] check_cancel pool = if Atomic.get pool.cancelled then raise Cancelled

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
(* lane, so every emit appends to a lane nobody else writes.            *)
(* ------------------------------------------------------------------ *)

let rings_live pool = Tracer.enabled pool.tracer || Tracer.enabled pool.flight

(* A rare event (steal successes, quota giveups, deque lifecycle, task
   exceptions), into both rings.  Callers guard with [rings_live]
   and read the clock once inside the guard, so with no live ring
   neither the clock nor the payload is touched.
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
let[@inline] note_task_start pool w =
  let c = pool.per_worker.(w) in
  c.c_tasks_run <- c.c_tasks_run + 1;
  if pool.tracing then begin
    let ts = now_us pool in
    pool.last_active_us.(w) <- ts;
    Tracer.emit pool.tracer ~ts ~proc:w ~tid:(-1) (Event.Action_batch { units = 1 })
  end

(* A task raised: counted, and noted as a [task_exn] fault. *)
let note_task_exn pool w =
  let c = pool.per_worker.(w) in
  c.c_task_exns <- c.c_task_exns + 1;
  if rings_live pool then
    note pool ~ts:(now_us pool) ~proc:w (Event.Fault_injected { fault = "task_exn" })

let note_steal_success pool w ~victim =
  let c = pool.per_worker.(w) in
  c.c_steals <- c.c_steals + 1;
  if rings_live pool then begin
    let ts = now_us pool in
    (* [last_active_us] is stamped only while the tracer is on *)
    let latency = if Tracer.enabled pool.tracer then ts - pool.last_active_us.(w) else 0 in
    note pool ~ts ~proc:w (Event.Steal_success { victim; latency })
  end

let note_steal_failure pool w =
  let c = pool.per_worker.(w) in
  c.c_steal_failures <- c.c_steal_failures + 1

(* ------------------------------------------------------------------ *)
(* Padded cells: the per-worker hot blocks                             *)
(* ------------------------------------------------------------------ *)

(* Layout rule for a block that some worker writes on every deque
   operation: no other such block, and no block that another worker
   reads on every operation, within 128 bytes of its live fields (the
   span an adjacent-line prefetcher pulls in as a pair).  Otherwise each
   write sends the line back and forth between the cores.  Measured with
   fork-join fib at p = 2 on a 2-core x86-64 host: one unpadded sync-op
   ref per worker, allocated back to back, made WS about 25% slower than
   with the refs apart.
   Each such block is padded by construction: its live fields come
   first, then [pad_words] words that nothing reads or writes, so the
   next block in memory, wherever the allocator or the collector puts
   it, starts at least 128 bytes past the last live field.  Every hot
   block is padded, so the block before one ends in padding too. *)
let pad_words = 16

(* A copy of block [x] with [pad_words] more fields, each the immediate
   0; field access by offset is unchanged.  Only for blocks of scanned
   tag (records, [ref]s, [Atomic.t]s, [Some] boxes), whose fields the
   copy stores with the write barrier. *)
let padded (x : 'a) : 'a =
  let x = Obj.repr x in
  let n = Obj.size x in
  let p = Obj.new_block (Obj.tag x) (n + pad_words) in
  for i = 0 to n - 1 do
    Obj.set_field p i (Obj.field x i)
  done;
  Obj.obj p

(* The worker's sync-op cell as the [?ops] argument of every
   Lfdeque/Multiq mutating call on its behalf, and unboxed for the
   pool's own counts. *)
let[@inline] ops pool w = pool.sync_cells.(w)

let[@inline] sync_cell pool w = Option.get (ops pool w)

(* The owner writes its [pstack] on every fork and join, and reads its
   request flag there.  A [pstack]'s [items] array ends in [pad_words]
   slots that hold [no_task] and are never used, and a grown one keeps
   them. *)
let[@inline] pstack pool w = pool.priv.(w)

let[@inline] req pool w = pool.req.(w)

let private_capacity = 32

(* The most finished tasks a private stack keeps between clears.  Every
   minor collection promotes the young tasks the stack still points at,
   so stale slots cost promoted words and major-heap size; a clear costs
   an [Array.fill] and makes the next push into each cleared slot add it
   to the remembered set.  fib 27 at p = 2 on a 2-core x86-64 host
   promoted (caller's domain) 3.8k words per op with every pop clearing
   its slot, 6.2k with no limit (peak RSS ~15% higher) and 4.8k with
   this one, which clears on ~2% of joins. *)
let stale_limit = 4

(* ------------------------------------------------------------------ *)
(* The private part: owner-only, no synchronization                    *)
(* ------------------------------------------------------------------ *)

(* [items] lives in the major heap, so every pointer store into it is a
   [caml_modify] call: a fork makes one, a join none ([pop_private]'s
   occasional [clear_stale] aside).  The push's store
   usually overwrites a stale task, a young block, so [caml_modify]
   returns early; overwriting the static [no_task] (a slot at [used] or
   above) would add the slot to the remembered set. *)
let[@inline] push_private s task =
  if s.hi = s.used then begin
    if s.used = Array.length s.items - pad_words then begin
      (* full: slide the live tasks down over published slots, or grow *)
      let n = s.hi - s.lo in
      let items = if s.lo > 0 then s.items else Array.make ((2 * n) + pad_words) no_task in
      Array.blit s.items s.lo items 0 n;
      Array.fill items n (Array.length items - n) no_task;
      s.items <- items;
      s.lo <- 0;
      s.hi <- n;
      s.used <- n
    end;
    s.used <- s.used + 1
  end;
  s.items.(s.hi) <- task;
  s.hi <- s.hi + 1

(* Drop the finished tasks that pops left above [hi], so the stack does
   not keep their closures, and whatever they hold, alive.  Called when
   the worker leaves the computation (a worker domain's first miss and
   [run]'s exit on worker 0) and by a pop that leaves more than
   [stale_limit] of them. *)
let clear_stale s =
  Array.fill s.items s.hi (s.used - s.hi) no_task;
  s.used <- s.hi

(* Only ever called on a nonempty part.  The popped slot keeps its task:
   clearing it here would be a [caml_modify] on every join. *)
let[@inline] pop_private s =
  let i = s.hi - 1 in
  let t = s.items.(i) in
  if i = s.lo then begin
    s.lo <- 0;
    s.hi <- 0
  end
  else s.hi <- i;
  if s.used - s.hi > stale_limit then clear_stale s;
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

(* Whether any task sits where a worker could take it: in every live R
   member's deque.  Reads only (two
   atomic loads per deque), allocates nothing.  Private parts are not
   scanned: another worker's private part can only be read without
   synchronization ([private_work]), and an owner that holds private
   work publishes it at its next fork or join once it sees a parked
   worker ({!park}). *)
let work_queued pool = Multiq.exists (fun d -> not (Lfdeque.is_empty d.tasks)) pool.r

(* Whether some worker holds private work: a hint, read without
   synchronization from owner-only fields, so it may be stale.  It keeps
   an idle worker asking instead of sleeping while a peer is busy; the
   guarantee against sleeping through private work is the owner's
   [n_parked] check at its next boundary, not this read. *)
let private_work pool =
  let rec go v = v < pool.n_workers && ((not (private_empty pool v)) || go (v + 1)) in
  go 0

(* A parked worker's reasons to get up: work, shutdown, or a recall of
   its domain by a run of another pool. *)
let idle_over pool w =
  work_queued pool || private_work pool || Atomic.get pool.shutting_down
  || Atomic.get pool.recall.(w)

(* The parker's half of the wake-up handshake: announce, then scan.
   Every publication stores its task and then reads [n_parked]
   ([signal_work]).  OCaml atomics are SC, so if this scan misses the
   task, the scan's read came before the publishing store, the announce
   before that, and the publisher's later read of [n_parked] sees the
   announce and signals.  Scanning before announcing would let both
   sides miss each other.  Private work needs no scan: its owner reads
   [n_parked] at every fork and join and, seeing the announce, publishes
   and signals ({!boundary}); a parker never holds private work itself,
   since it parks only at the top of its loop.  A recall is raised
   before its broadcast ({!recall_slot}), so the same order covers it.
   [`Found_work] withdraws the announce; [`Would_sleep] leaves it for
   the caller's wait. *)
let announce_and_scan pool w =
  Atomic.incr pool.n_parked;
  Schedpoint.point Schedpoint.pool_park;
  if idle_over pool w then begin
    Atomic.decr pool.n_parked;
    `Found_work
  end
  else `Would_sleep

(* Sleep until work is queued (or shutdown).  The lock makes the
   signal wait for the sleeper: a pusher that saw the announce takes
   [idle_lock] to signal, which it can only do once this worker is inside
   [Condition.wait].  The scan is repeated before every wait, so a
   spurious or stolen wake-up just sleeps again.  [pool_park] is the one
   yield point inside a held mutex; controlled threads only reach it
   through [For_testing.park_step], which takes no lock. *)
let park pool w =
  Mutex.lock pool.idle_lock;
  (match announce_and_scan pool w with
   | `Found_work -> ()
   | `Would_sleep ->
     let c = pool.per_worker.(w) in
     c.c_parks <- c.c_parks + 1;
     Condition.wait pool.idle_cond pool.idle_lock;
     while not (idle_over pool w) do
       Condition.wait pool.idle_cond pool.idle_lock
     done;
     Atomic.decr pool.n_parked);
  Mutex.unlock pool.idle_lock

(* ------------------------------------------------------------------ *)
(* Lock-free R membership (Multiq CAS paths) and CAS-only task          *)
(* transfer (Lfdeque)                                                   *)
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
   one-winner CAS charges the removal exactly once, to [proc]. *)
let reap_if_dead pool ~proc e =
  let d = Multiq.value e in
  if Multiq.is_live e && Lfdeque.is_dead d.tasks
     && Multiq.remove ?ops:(ops pool proc) pool.r e
  then begin
    let c = pool.per_worker.(proc) in
    c.c_r_removes <- c.c_r_removes + 1;
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
       like a thief losing a Chase–Lev race. *)
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
       pool.quota_left.(w) <- pool.dfd_quota;
       take_slot got)

(* ------------------------------------------------------------------ *)
(* Obtaining work                                                      *)
(* ------------------------------------------------------------------ *)

(* Push onto the worker's public deque, then read [n_parked]: the
   publisher's half of the wake-up handshake ({!park}). *)
let publish pool w task =
  Schedpoint.point Schedpoint.pool_push;
  Lfdeque.push ?ops:(ops pool w) (dfd_own_deque pool w).tasks { run = task };
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
let[@inline] boundary pool w s =
  if s.hi > s.lo && (Atomic.get (req pool w) || Atomic.get pool.n_parked > 0) then
    respond pool w s

(* A fork: a push onto the private part, then the boundary check.  The
   worker's deque must be in R, where thieves look for owners to ask.  A
   nonempty private part means it is there already: a worker gives its
   deque up only inside [try_get], where its private part is empty
   ({!dfd_abandon}). *)
let[@inline] push_local pool w task =
  let s = pstack pool w in
  if s.hi = s.lo then ignore (dfd_own_deque pool w);
  push_private s task;
  boundary pool w s

(* One attempt to obtain a task; lock-free on every path, through
   CAS-only deques.  Only public parts are taken from: the caller's own
   private part is empty here (see {!dfd_abandon}). *)
let try_get pool w =
  Schedpoint.point Schedpoint.pool_get;
  match pool.dfd_deque.(w) with
  | Some _ when pool.quota_left.(w) <= 0 ->
    (* memory quota exhausted: abandon the deque and steal *)
    let c = pool.per_worker.(w) in
    c.c_quota_giveups <- c.c_quota_giveups + 1;
    if rings_live pool then begin
      let quota = pool.dfd_quota in
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
  | None -> dfd_steal pool w

let run_task w t = t w

(* Grab one task and run it; returns false if none was found.  A task that
   escapes an exception must never tear down the worker that happened to
   run it: promise-backed tasks capture exceptions themselves ([fulfill]),
   so this is the belt-and-braces path for malformed raw tasks — count it
   and carry on.  The taken task passes from the take to the run as a
   local value, so the hand-over costs no sync op. *)
let help_once pool w =
  match try_get pool w with
  | Some t ->
    note_task_start pool w;
    (try run_task w t with _ -> note_task_exn pool w);
    true
  | None -> false

(* Pop a published branch back if it is still at the bottom of the public
   deque.  Physical equality identifies the task.  Lock-free: owner pop,
   and a pop that surfaces some other task (possible only if ours was
   stolen) is pushed straight back — the push-back is safe because only
   the owner pops its own deque, so nothing was reordered underneath it.
   The task was queued
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
   joined already, so the branch is on top, taken without a store into
   the stack ({!pop_private}).  An empty private part means it was
   published: pop it back if no thief took it.  So a join whose branch
   was stolen has an empty private part. *)
let[@inline] try_pop_exact pool w task =
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
      match pool.dfd_deque.(w) with
      | None -> false
      | Some e -> pop_back pool w (Multiq.value e).tasks task
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
   through [help_once] runs here (a steal or a helper's local pop); the
   forking worker that pops its own task back runs [f] inline and never
   touches the promise ([join_fork]).  The publishing store is a sync
   op, charged to [w]. *)
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
        backoff_wait pool.rngs.(w) misses;
        go (misses + 1)
      end
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Worker domains                                                      *)
(* ------------------------------------------------------------------ *)

(* Worker [w]'s loop in [pool], until the pool shuts down or the
   slot's domain is recalled.  Both are read only here, between tasks,
   so a departing domain has finished every task it took. *)
let worker_loop pool w =
  let misses = ref 0 in
  let rec loop () =
    if Atomic.get pool.shutting_down || Atomic.get pool.recall.(w) then ()
    else begin
      if help_once pool w then misses := 0
      else begin
        (* run dry: drop the finished tasks the private part still holds *)
        if !misses = 0 then clear_stale (pstack pool w);
        incr misses;
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
  loop ()

(* The process-wide set of worker domains.  Pools own slots, not
   domains: a run fills its empty slots by borrowing ({!borrow}), and a
   domain stays attached to the pool it last served, spinning and then
   parking there, until a run of another pool recalls it.  So one
   process that alternates pools runs on as few domains as its widest
   pool needs, instead of leaving one blocked in each idle pool beside
   the pool that runs: on OCaml 5 every minor collection stops every
   domain, and a blocked one joins the stop only through its backup
   thread.
   [bound] is the sum of the live pools' [n_workers - 1]; [counted]
   never holds more domains than that.  A domain serving a pool when it
   is killed is exiled: outside [counted] until it leaves that pool.
   One lock guards the set, every pool's [slots], [attached] and [live]
   and every [wdom]; no scheduling path takes it.  Lock order: [lock],
   then a pool's [idle_lock]. *)
type set = {
  lock : Mutex.t;
  changed : Condition.t;
      (** a domain was assigned, left a slot or was told to quit. *)
  mutable counted : wdom list;
  mutable bound : int;
  mutable exited : unit Domain.t list;
      (** domains that quit on their own, for a [shutdown] to join. *)
  mutable alive : int;  (** domains spawned and not yet quit *)
  mutable next_id : int;
  mutable recalls : int;
}

let set =
  {
    lock = Mutex.create ();
    changed = Condition.create ();
    counted = [];
    bound = 0;
    exited = [];
    alive = 0;
    next_id = 0;
    recalls = 0;
  }

let locked f =
  Mutex.lock set.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock set.lock) f

let broadcast_idle pool =
  Mutex.lock pool.idle_lock;
  Condition.broadcast pool.idle_cond;
  Mutex.unlock pool.idle_lock

(* The recaller's half of the recall handshake: raise the slot's flag,
   then broadcast under [idle_lock].  The slot's domain parks only after
   an announce-then-scan under that lock that includes the flag
   ({!announce_and_scan}), so it either sees the flag or is already
   waiting when the broadcast comes.  Broadcasting first would let it
   scan in between and sleep while recalled. *)
let recall_slot pool w =
  Atomic.set pool.recall.(w) true;
  Schedpoint.point Schedpoint.pool_recall;
  Atomic.incr pool.wakeups;
  broadcast_idle pool

(* Whether [wd] is serving slot [h] now, not on its way to it.  Under
   the lock. *)
let serving wd (p, w) = match wd.at with Some (q, v) -> p == q && w = v | None -> false

(* Give slot [w] of [pool] to [wd], and take it back.  Under the
   lock. *)
let assign wd pool w =
  wd.home <- Some (pool, w);
  pool.slots.(w) <- Some wd;
  Atomic.incr pool.attached

let unassign pool w =
  pool.slots.(w) <- None;
  Atomic.decr pool.attached

(* Take [wd] from its home, slot [h]: a domain serving it is recalled,
   and one still on its way there never arrives.  Under the lock. *)
let take_home wd ((q, v) as h) =
  wd.home <- None;
  if serving wd h then recall_slot q v else unassign q v

(* Take [wd] out of the set for good.  Under the lock. *)
let retire wd =
  wd.quit <- true;
  set.counted <- List.filter (fun d -> d != wd) set.counted;
  set.alive <- set.alive - 1

(* A worker domain's life: wait until it is assigned a slot or told to
   quit; serve the slot until its pool shuts down or a recall takes the
   domain; then clear the slot's private stack, reset [worker_key] and,
   under the lock, vacate the slot and clear its recall flag, so the
   slot is refilled only once the domain is gone.  An exiled domain
   rejoins the set; a domain left with no home while the set is above
   its bound quits, for a [shutdown] to join.  Then round again: a
   recalled domain's new home is already assigned. *)
let rec domain_main wd =
  let next =
    locked (fun () ->
        while Option.is_none wd.home && not wd.quit do
          Condition.wait set.changed set.lock
        done;
        wd.at <- wd.home;
        wd.home)
  in
  match next with
  | None -> ()
  | Some (pool, w) ->
    let ctx = Domain.DLS.get worker_key in
    ctx := Some (w, pool);
    worker_loop pool w;
    clear_stale (pstack pool w);
    ctx := None;
    let stays =
      locked (fun () ->
          unassign pool w;
          Atomic.set pool.recall.(w) false;
          wd.at <- None;
          if wd.exiled then begin
            wd.exiled <- false;
            set.counted <- wd :: set.counted
          end;
          if Option.is_none wd.home && List.length set.counted > set.bound then begin
            retire wd;
            set.exited <- Option.get wd.handle :: set.exited
          end;
          Condition.broadcast set.changed;
          not wd.quit)
    in
    if stays then domain_main wd

let spawn pool w =
  let wd =
    { id = set.next_id; home = None; at = None; exiled = false; quit = false; handle = None }
  in
  match Domain.spawn (fun () -> domain_main wd) with
  | d ->
    set.next_id <- set.next_id + 1;
    set.alive <- set.alive + 1;
    set.counted <- wd :: set.counted;
    wd.handle <- Some d;
    assign wd pool w
  | exception _ -> (* no domain to be had: this run is narrower *) ()

(* A domain for an empty slot of [pool], in order: a free one; one
   taken from a pool whose run is not in progress (it joins late, as a
   thief does); a new one, while the set is below its bound. *)
let fill pool w =
  let idle wd =
    match wd.home with Some (q, _) -> q != pool && not q.running | None -> false
  in
  match List.find_opt (fun wd -> Option.is_none wd.home) set.counted with
  | Some wd ->
    assign wd pool w;
    Condition.broadcast set.changed
  | None -> (
      match List.find_opt idle set.counted with
      | Some ({ home = Some h; _ } as wd) ->
        set.recalls <- set.recalls + 1;
        take_home wd h;
        assign wd pool w
      | _ -> if List.length set.counted < set.bound then spawn pool w)

(* [run]'s entry, when some slot is empty. *)
let borrow pool =
  locked (fun () ->
      if pool.live then
        for w = 1 to pool.n_workers - 1 do
          if Option.is_none pool.slots.(w) then fill pool w
        done)

(* Take [pool] out of the bound (once): assignments to it are undone,
   and domains serving it will leave at their next loop top.  Under the
   lock. *)
let release pool =
  if pool.live then begin
    pool.live <- false;
    set.bound <- set.bound - (pool.n_workers - 1);
    List.iter
      (fun wd ->
         match wd.home with
         | Some ((q, v) as h) when q == pool ->
           (* one on its way here never arrives; one here leaves, as
              [shutting_down] tells it *)
           if not (serving wd h) then unassign q v;
           wd.home <- None
         | _ -> ())
      set.counted
  end

(* [counters]' [sync_ops]: synchronization operations (atomic RMWs +
   publishing stores, CAS retries included) executed on either policy's
   scheduling paths, summed across the per-worker cells — the Rito &
   Paulino sync-overhead metric, measured rather than assumed. *)
let sync_ops pool =
  let n = ref 0 in
  for w = 0 to pool.n_workers - 1 do
    n := !n + !(sync_cell pool w)
  done;
  !n

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

(* The pool's telemetry: probes over the state it already keeps — the
   per-worker counter records — so no scheduling path does any registry
   work.  Registration upserts: a pool respawned by a supervisor
   re-points every series at itself, and the counters carry their last
   values across. *)
let register_probes registry pool =
  let g name help f = Registry.probe registry ~kind:`Gauge ~help name f in
  let c name help f = Registry.probe registry ~kind:`Counter ~help name f in
  let cnt name help f = c name help (fun () -> f (counters pool)) in
  g "dfd_pool_parked_workers" "Workers currently parked on the idle condition." (fun () ->
      Atomic.get pool.n_parked);
  g "dfd_pool_workers" "Worker slots (domains + caller)." (fun () -> pool.n_workers);
  g "dfd_pool_quota_bytes" "DFDeques memory threshold K (max_int under WS)." (fun () ->
      pool.dfd_quota);
  g "dfd_pool_r_deques" "Live deques in the relaxed R-list (DFDeques)." (fun () ->
      Multiq.size pool.r);
  cnt "dfd_pool_steals_total" "Successful steals (all disciplines)." (fun c -> c.steals);
  cnt "dfd_pool_steal_failures_total" "Steal attempts that found nothing." (fun c ->
      c.steal_failures);
  cnt "dfd_pool_local_pops_total" "Tasks taken from the worker's own deque." (fun c ->
      c.local_pops);
  cnt "dfd_pool_quota_giveups_total" "Deques abandoned on memory-quota exhaustion." (fun c ->
      c.quota_giveups);
  cnt "dfd_pool_tasks_total" "Tasks executed (all paths, including inline)." (fun c ->
      c.tasks_run);
  cnt "dfd_pool_task_exns_total" "Tasks that raised (user or cancellation)." (fun c ->
      c.task_exns);
  cnt "dfd_pool_alloc_bytes_total" "Bytes reported via Pool.alloc_hint." (fun c ->
      c.alloc_bytes);
  cnt "dfd_pool_parks_total" "Times an idle worker parked on the condition variable." (fun c ->
      c.parks);
  cnt "dfd_pool_deques_created_total" "Deques created (DFDeques R-list churn)." (fun c ->
      c.r_inserts);
  cnt "dfd_pool_deques_deleted_total" "Deques reaped from R (DFDeques R-list churn)." (fun c ->
      c.r_removes);
  cnt "dfd_pool_sync_ops"
    "Synchronization ops (atomic RMWs, CAS retries included) on scheduling paths." (fun c ->
      c.sync_ops);
  Registry.probe_histogram registry
    ~help:"Rank error per successful DFDeques steal (positions outside the exact leftmost-p window)."
    "dfd_pool_steal_rank_error"
    (fun () -> Registry.hist_of_stats (rank_error pool))

let make ?(flight = Tracer.disabled) ~n_workers ~tracer policy =
    List.iter
      (fun (name, ring) ->
        if Tracer.enabled ring && Tracer.lanes ring < n_workers then
          invalid_arg
            (Printf.sprintf "Pool.create: the %s ring needs n_workers = %d lanes, has %d" name
               n_workers (Tracer.lanes ring)))
      [ ("tracer", tracer); ("flight", flight) ];
    let sync_cells = Array.init n_workers (fun _ -> padded (Some (padded (ref 0)))) in
    let req = Array.init n_workers (fun _ -> padded (Atomic.make false)) in
    let priv =
      Array.init n_workers (fun _ ->
          padded
            { items = Array.make (private_capacity + pad_words) no_task; lo = 0; hi = 0; used = 0 })
    in
    (* K = ∞ makes DFDeques the work stealer (DESIGN.md §1) *)
    let k = match policy with Dfdeques { quota } -> quota | Work_stealing -> max_int in
    {
      policy;
      n_workers;
      (* 2 shards per worker: enough spread that concurrent membership
         CAS retries stay rare, small enough that two-choice sampling
         still sees a meaningful fraction of R *)
      r = Multiq.create ~shards:(2 * n_workers) ();
      dfd_deque = Array.make n_workers None;
      quota_left = Array.make n_workers k;
      dfd_quota = k;
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
      slots = Array.make n_workers None;
      recall = Array.init n_workers (fun _ -> Atomic.make false);
      attached = Atomic.make 0;
      running = false;
      live = false;
      rngs = Array.init n_workers (fun i -> Prng.create (1000 + i));
      tracer;
      tracing = Tracer.enabled tracer;
      flight;
      t0 = Unix.gettimeofday ();
      next_did = Atomic.make n_workers;
      last_active_us = Array.make n_workers 0;
      cancelled = Atomic.make false;
    }

let make ?(registry = Registry.disabled) ?flight ~n_workers ~tracer policy =
  let pool = make ?flight ~n_workers ~tracer policy in
  register_probes registry pool;
  pool

let create ?domains ?(tracer = Tracer.disabled) ?registry ?flight policy =
  let extra =
    match domains with
    | Some d -> max 0 d
    | None -> max 0 (Domain.recommended_domain_count () - 1)
  in
  let pool = make ?registry ?flight ~n_workers:(extra + 1) ~tracer policy in
  locked (fun () ->
      pool.live <- true;
      set.bound <- set.bound + extra);
  pool

(* Tasks queued where a worker could take them, counted over the same
   places [work_queued] scans: public parts, not private parts.  Exact
   once the pool is quiescent. *)
let queued pool =
  List.fold_left (fun n e -> n + Lfdeque.length (Multiq.value e).tasks) 0 (Multiq.members pool.r)

(* After cancellation the deques may still hold queued tasks whose parents
   have unwound: run them all (they raise [Cancelled] immediately or are
   cheap leftovers) so the pool is clean for the next [run]. *)
let drain pool =
  let misses = ref 0 in
  while work_queued pool do
    if help_once pool 0 then misses := 0
    else begin
      incr misses;
      backoff_wait pool.rngs.(0) !misses
    end
  done

let cancel pool = Atomic.set pool.cancelled true

let run pool f =
  (match self () with Some _ -> raise Nested_run | None -> ());
  let ctx = Domain.DLS.get worker_key in
  ctx := Some (0, pool);
  (* a cancel aimed at an earlier run, or at none, is stale here *)
  Atomic.set pool.cancelled false;
  pool.running <- true;
  Fun.protect
    ~finally:(fun () ->
      ctx := None;
      clear_stale (pstack pool 0);
      pool.running <- false)
    (fun () ->
       if Atomic.get pool.attached < pool.n_workers - 1 then borrow pool;
       match f () with
       | v -> v
       | exception _ when Atomic.get pool.cancelled ->
         (* whatever unwound the computation, a cancelled run reports
            [Cancelled], after draining so the pool is clean *)
         drain pool;
         raise Cancelled)

(* Take the forked task back if nobody stole it and run [fa] inline (the
   fast path: a plain pop of the private part), else help until its thief
   publishes the outcome.  The winning pop is the only proof that no one
   else runs [fa]: a [Pending] promise does not mean unstolen, since a
   thief holds it [Pending] until [fa] returns (the planted twin in
   lib/check makes exactly that mistake).  The inline path skips the
   promise altogether, so only a taken task writes one and only [await]
   reads one. *)
let[@inline] join_fork pool w task (pr : _ promise) fa =
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

let alloc_hint n =
  match self () with
  | Some (w, pool) ->
    (* a negative hint would refund quota (and, from K = max_int,
       overflow it into a spurious give-up); frees are not hints *)
    if n < 0 then invalid_arg "Pool.alloc_hint: negative byte count";
    let c = pool.per_worker.(w) in
    c.c_alloc_bytes <- c.c_alloc_bytes + n;
    (* owner-only slot: no lock needed *)
    pool.quota_left.(w) <- pool.quota_left.(w) - n
  | None ->
    (* aligned with every other pool operation: a hint from outside [run]
       would silently touch no quota, which hides bugs — reject it *)
    raise Not_in_pool

let heartbeat pool =
  Array.fold_left (fun acc c -> acc + c.c_tasks_run) 0 pool.per_worker

(* {!counters} as [name=value] pairs, in declaration order, for [snapshot]. *)
let counter_fields pool =
  let c = counters pool in
  [
    ("steals", c.steals);
    ("steal_failures", c.steal_failures);
    ("local_pops", c.local_pops);
    ("quota_giveups", c.quota_giveups);
    ("tasks_run", c.tasks_run);
    ("task_exns", c.task_exns);
    ("alloc_bytes", c.alloc_bytes);
    ("parks", c.parks);
    ("r_inserts", c.r_inserts);
    ("r_removes", c.r_removes);
    ("sync_ops", c.sync_ops);
  ]

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
  pf "  queued=%d parked=%d wakeups=%d shutting_down=%b cancelled=%b\n"
    (queued pool) (Atomic.get pool.n_parked) (Atomic.get pool.wakeups)
    (Atomic.get pool.shutting_down) (Atomic.get pool.cancelled);
  List.iter (fun (k, v) -> pf "  %s=%d\n" k v) (counter_fields pool);
  pf "  heartbeat=%d\n" (heartbeat pool);
  Array.iteri
    (fun i c ->
       let s = pstack pool i in
       pf "  worker %d: tasks_run=%d steals=%d private=%d%s\n" i c.c_tasks_run c.c_steals
         (s.hi - s.lo)
         (if Atomic.get (req pool i) then " REQUESTED" else ""))
    pool.per_worker;
  (* lock-free Multiq walk: approximate while membership churns, exact
     once the pool is idle — same contract as the counters *)
  let ms = Multiq.members pool.r in
  pf "  R has %d deques across %d shards\n" (List.length ms) (Multiq.shard_count pool.r);
  List.iter
    (fun e ->
       let d = Multiq.value e in
       pf "  deque #%d owner=%s shard=%d: %d tasks\n" d.did
         (match Lfdeque.owner d.tasks with None -> "-" | Some w -> string_of_int w)
         (Multiq.shard_of e) (Lfdeque.length d.tasks))
    ms;
  Array.iteri
    (fun w d ->
       if w > 0 then
         pf "  slot %d: domain %s recall=%b\n" w
           (match d with Some wd -> "#" ^ string_of_int wd.id | None -> "-")
           (Atomic.get pool.recall.(w)))
    pool.slots;
  pf "  K=%d\n" pool.dfd_quota;
  Array.iteri (fun i q -> pf "  quota_left[worker %d]=%d\n" i q) pool.quota_left;
  Buffer.contents b

(* Retire free domains while the set is above its bound, and wake them
   to quit; their handles, to join.  Under the lock. *)
let trim () =
  let free wd = Option.is_none wd.home && Option.is_none wd.at in
  let rec go acc =
    match List.find_opt free set.counted with
    | Some wd when List.length set.counted > set.bound ->
      retire wd;
      go (Option.get wd.handle :: acc)
    | _ -> acc
  in
  let quitting = go [] in
  if quitting <> [] then Condition.broadcast set.changed;
  quitting

(* Release the pool's slots, wait until every domain serving it has
   left (those beyond the bound quit as they leave), then bring the set
   back to its bound: free domains beyond it quit too.  Every domain
   that quit is joined. *)
let shutdown pool =
  locked (fun () -> release pool);
  Atomic.set pool.shutting_down true;
  broadcast_idle pool;
  let quitting =
    locked (fun () ->
        while Atomic.get pool.attached > 0 do
          Condition.wait set.changed set.lock
        done;
        let quitting = trim () @ set.exited in
        set.exited <- [];
        quitting)
  in
  List.iter Domain.join quitting

(* Forceful teardown for a supervisor that has declared the pool wedged:
   release the pool's slots, signal shutdown and walk away without
   waiting, so the supervisor can respawn immediately.  The domains
   serving the pool are exiled, outside the bound: idle and parked ones
   leave at once, and one stuck inside a user task leaves when the task
   returns; each then rejoins the set as a free domain, or quits if the
   set is at its bound.  Calling [shutdown] later waits for them and
   joins those that quit. *)
let kill pool =
  locked (fun () ->
      List.iter
        (fun wd ->
           match wd.home with
           | Some ((q, _) as h) when q == pool && serving wd h ->
             wd.exiled <- true
           | _ -> ())
        set.counted;
      release pool;
      set.counted <- List.filter (fun wd -> not wd.exiled) set.counted;
      set.exited <- trim () @ set.exited);
  Atomic.set pool.shutting_down true;
  broadcast_idle pool

(* Entry points for the systematic concurrency checker (lib/check): a
   pool with worker slots but no spawned domains, so every thread touching
   it is one the checker controls, plus explicit worker impersonation and
   single help steps.  Not part of the public scheduling API. *)
module For_testing = struct
  let create_detached ~workers policy =
    make ~n_workers:(max 1 workers) ~tracer:Tracer.disabled policy

  let as_worker pool w f =
    if w < 0 || w >= pool.n_workers then invalid_arg "Pool.For_testing.as_worker";
    let ctx = Domain.DLS.get worker_key in
    let saved = !ctx in
    ctx := Some (w, pool);
    Fun.protect ~finally:(fun () -> ctx := saved) f

  let help pool w = help_once pool w

  let sync_cell = sync_cell

  let queued = queued

  let r_size pool = Multiq.size pool.r

  let private_len pool w =
    let s = pstack pool w in
    s.hi - s.lo

  let stale_slots pool w =
    let s = pstack pool w in
    let n = ref 0 in
    Array.iteri (fun i t -> if (i < s.lo || i >= s.hi) && t != no_task then incr n) s.items;
    !n

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

  let recall = recall_slot

  let raise_recall pool w = Atomic.set pool.recall.(w) true

  let wake_all pool =
    Atomic.incr pool.wakeups;
    broadcast_idle pool

  let recalled pool w = Atomic.get pool.recall.(w)

  let worker_id () = fst (self_exn ())

  let worker_domains () = locked (fun () -> set.alive)

  let recalls () = locked (fun () -> set.recalls)
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

(** A real multicore fork-join pool for OCaml 5 Domains implementing the
    paper's two deque disciplines.

    This is the "production library" face of the reproduction: the same
    scheduling algorithms that the simulator analyses, driving real OCaml
    closures on real domains.

    - {!Work_stealing} — the space-efficient work stealer, run as
      {!Dfdeques} with K = ∞ (the paper's equivalence, DESIGN.md §1): no
      quota give-ups, so each worker keeps one deque until it runs dry,
      R holds no more than [p] deques, and a thief's victim is the
      same two-choice, leftmost-biased R sample, not a uniform draw.
      Such a pool has no quota to read or set.
    - {!Dfdeques} — the paper's algorithm: a globally ordered list R of
      deques; thieves pop the bottom of a deque near the leftmost-[p]
      window; a cooperative memory quota (fed by {!alloc_hint}) makes a
      worker abandon its deque and steal once it has allocated more than
      K bytes since its last steal, exactly the DFDeques(K) discipline at
      task granularity.  Unlike the paper's fully serialised Pthreads
      implementation (Section 5), there is {e no global lock at all}: R
      is a relaxed MultiQueue ({!Dfd_structures.Multiq}) of [2p] shards —
      membership insert/remove/thief-insert-after-victim are lock-free
      CAS on order-labelled entries, victim selection is two-choice
      sampling over shard heads, and task transfer is CAS-only through
      {!Dfd_structures.Lfdeque} (owner push/pop, thief steal, sticky
      abandonment and the lock-free death-certificate reap) — no
      DFDeques path takes a mutex at all.  The price is a bounded
      {e rank error} (a victim may sit a few positions right of the
      exact window), which the pool measures per steal and exposes via
      {!rank_error}, the [dfd_pool_steal_rank_error] registry histogram
      and [Steal_rank] trace events; the synchronization cost of the
      CAS discipline is itself measured, under both policies
      ([counters.sync_ops], [dfd_pool_sync_ops]).  DESIGN.md §15 documents the MultiQueue and
      §16 the lock-free deque (CAS commit points, ABA and
      memory-ordering audit); §10 the lock hierarchy: no scheduling or
      event-recording path takes a mutex.

    Fork-join is work-first: {!fork_join} pushes the left branch and runs
    the right inline; on return it pops the left branch back if nobody
    stole it and runs it inline, otherwise it helps execute other tasks
    until the thief publishes the branch's outcome.  Exceptions propagate
    to the joining parent.

    Each worker's tasks live in two parts (after Acar, Charguéraud &
    Rainey's private deques, PPoPP 2013).  A fork pushes onto an
    owner-only {e private} stack and its join pops it back without
    synchronization: no atomic write, no box, and the branch's promise is
    never written or read.  The stack is a major-heap array, so each
    pointer store into it is a [caml_modify] call: the push makes one and
    the pop none.  A pop leaves the finished task in its slot.  The
    worker clears those stale slots in one pass when more than four pile
    up, and when it runs dry (a worker domain's first empty-handed take,
    the end of {!run} for the caller), so a finished branch's closure
    outlives it only until then.  Thieves take only from the {e public}
    part, the worker's {!Dfd_structures.Lfdeque}.  A thief that finds a
    public part empty raises its owner's request flag (under {!Dfdeques},
    the owner of the sampled R deque).  The owner reads the flag at every fork and
    join; when it is set, or a worker is parked, the owner moves its
    oldest private task to the bottom of its public part and signals.
    Publication goes oldest first, so every public task is older than
    every private one, and synchronization is paid per steal, not per
    fork.  A steal can wait up to one fork interval of its victim.

    Idle workers spin briefly with jittered exponential backoff, then park
    on a condition variable; each publication wakes at most one parked
    worker, so wake-ups do not thundering-herd.  Scheduling counters are
    kept in per-worker records and aggregated only when read.
    [perfbench/] tracks the throughput/scalability trajectory of this
    layer.

    Worker domains belong to the process, not to a pool.  A pool owns
    worker {e slots}; {!run} fills its empty slots with domains it
    borrows from one process-wide set, and a domain stays attached to
    the pool it last served, spinning and then parking there, until a
    run of another pool recalls it.  So a process that alternates pools
    runs on as few domains as its widest pool needs, instead of leaving
    one blocked in each idle pool beside the pool that runs (on OCaml 5
    every minor collection stops every domain, and a blocked domain
    joins the stop late).  A domain parked in a pool whose slots no run
    needs still blocks beside the others.  The set never holds more domains than the sum of the live
    pools' [domains], which is what the pools would own on their own.
    A consequence: a worker domain may serve several pools over its
    life, so a task must not keep per-pool state in its own
    [Domain.DLS] keys. *)

type t

type policy =
  | Work_stealing
  | Dfdeques of { quota : int }
      (** memory threshold K in bytes for the cooperative quota. *)

exception Not_in_pool
(** A pool operation ({!fork_join}, {!parallel_for}, ...) was called from
    outside {!run}. *)

exception Nested_run
(** {!run} was called from inside a pool task (re-entrant runs are not
    allowed). *)

exception Cancelled
(** The run was cancelled ({!cancel}).  Inside pool tasks it is the
    cooperative signal that unwinds the computation: every {!fork_join}
    and join-wait raises it once the flag is set.  {!run} raises it too,
    after draining the deques, as the result of a cancelled run; the pool
    is reusable afterwards. *)

val create :
  ?domains:int ->
  ?tracer:Dfd_trace.Tracer.t ->
  ?registry:Dfd_obs.Registry.t ->
  ?flight:Dfd_trace.Tracer.t ->
  policy ->
  t
(** [create ~domains policy] makes a pool of [domains] worker slots
    besides the caller's (default: [Domain.recommended_domain_count () -
    1]), and adds them to the process's domain bound.  It spawns
    nothing: the pool reaches its width at its first {!run}, which fills
    the slots.  The caller participates as a worker while inside {!run}.

    [tracer] (default {!Dfd_trace.Tracer.disabled}) receives structured
    scheduler events — steal attempts/successes, quota exhaustions, deque
    lifecycle, one [Action_batch] per task.  Unlike the simulator, event
    timestamps are wall-clock microseconds since pool creation, so traces
    export directly to Chrome/Perfetto at real-time scale.  One ring per
    pool: it needs [n_workers] = [domains + 1] lanes (worker [w] writes
    lane [w], the caller being worker 0; nothing else writes), so every
    emit is lock-free; never share a ring between live pools.  With
    tracing off the hot paths never read the clock.  Raises
    [Invalid_argument] if an enabled [tracer] or [flight] has fewer than
    [n_workers] lanes.

    [registry] (default {!Dfd_obs.Registry.disabled}): live-telemetry
    plane.  The pool publishes its [dfd_pool_*] series there as
    read-side probes over what it already keeps: the {!counters} fields
    (steals and failures, local pops, quota giveups, tasks, task
    exceptions, [alloc_hint] bytes, parks, deque churn, sync ops),
    {!rank_error} as a histogram, and gauges over live state (parked workers, current
    K, R size).  They are read only when the registry is scraped, so an
    enabled registry adds nothing to any scheduling path.  Registration
    upserts and counters carry their last value into the series, so pool
    incarnations respawned by a supervisor keep one monotone series.

    [flight] (default {!Dfd_trace.Tracer.disabled}): always-on crash
    forensics, typically [Tracer.create ~capacity:256 ~lanes:(domains + 1) ()].
    Rare events (steal successes, quota giveups, deque lifecycle, task
    exceptions) are recorded into it — as into [tracer] — and a
    supervisor dumps it ({!Dfd_trace.Tracer.write_file}) on an attempt
    timeout, watchdog kill or give-up, without enabling full tracing.  A task
    exception is noted as [Fault_injected {fault = "task_exn"}].  Same
    lane rule as [tracer]: one ring per pool, [n_workers] lanes, never
    shared between live pools. *)

val run : t -> (unit -> 'a) -> 'a
(** Execute a task (and all the parallel work it forks) to completion on
    the pool; the calling thread works too.  Re-entrant calls from inside
    pool tasks raise {!Nested_run}.  Every run uses the memory threshold
    K the pool was created with (the {!Dfdeques} [quota]).

    A run whose pool has an empty worker slot borrows a domain for it,
    in this order: a free one; one recalled from a pool whose run is not
    in progress; a new one, while the process holds fewer than its bound.
    A recalled domain finishes any task it holds, leaves its old pool
    and joins this run late, as a thief does; the run does not wait for
    it.  Borrowed domains stay attached, so back-to-back runs on one
    pool borrow nothing, and their entry is a single load beyond the
    run's own.

    [run] clears the cancel flag on entry, so a {!cancel} issued before
    it (aimed at an earlier run, or at none) does not reach it.  If the
    flag is set when the computation unwinds, whatever it raised, [run]
    drains the leftover queued tasks (each unwinds at once) and raises
    {!Cancelled}, leaving the pool idle and reusable.  A run that returns
    before any task sees the flag returns its value. *)

val cancel : t -> unit
(** Set the pool's cancel flag: the current {!run}'s tasks raise
    {!Cancelled} at their next {!fork_join} or join-wait, and the run
    raises {!Cancelled}.  Callable from any thread.  Cancellation is
    cooperative, so a task that loops forever without touching the pool
    cannot be interrupted (a supervisor's heartbeat watchdog covers that
    case, see {!heartbeat}).  The pool keeps no clock: a caller with a
    deadline watches its own and cancels once it passes.  Since {!run}
    clears the flag on entry, a cancel that may land before the run
    starts must be re-asserted until the run returns. *)

val fork_join : (unit -> 'a) -> (unit -> 'b) -> 'a * 'b
(** Run the two thunks in parallel, returning both results.  Must be
    called from inside {!run}.  The left thunk is the forked child (it is
    what thieves steal), the right runs in the current task — matching the
    paper's fork semantics. *)

val parallel_for : lo:int -> hi:int -> (int -> unit) -> unit
(** Binary fork-join tree over [lo, hi) — the standard nested-parallel
    loop encoding.  Must be called from inside {!run}. *)

val parallel_reduce : zero:'a -> op:('a -> 'a -> 'a) -> lo:int -> hi:int -> (int -> 'a) -> 'a
(** Binary fork-join tree reduction of [f lo ... f (hi-1)] with an
    associative [op].  Must be called from inside {!run}. *)

val alloc_hint : int -> unit
(** Report [n] bytes of allocation to the scheduler.  Under {!Dfdeques}
    this feeds the memory quota; under {!Work_stealing} (K = ∞) it can
    never exhaust it, so only the [alloc_bytes] counter shows it.
    Raises [Invalid_argument] for [n < 0], before touching any counter:
    a hint reports allocation, never a free.  Called from outside {!run} it raises {!Not_in_pool},
    like every other pool operation — a hint with no pool to charge is
    a bug, not a no-op. *)

type counters = {
  steals : int;  (** successful steals *)
  steal_failures : int;  (** steal attempts that found nothing *)
  local_pops : int;  (** tasks taken from the worker's own deque *)
  quota_giveups : int;  (** deques abandoned on memory-quota exhaustion *)
  tasks_run : int;  (** tasks executed (all paths, including inline) *)
  task_exns : int;  (** tasks that raised (user or cancellation) *)
  alloc_bytes : int;  (** total bytes reported via {!alloc_hint} (both policies) *)
  parks : int;  (** times an idle worker parked on the condition variable *)
  r_inserts : int;
      (** R-membership inserts (own-deque creations + thief adoptions),
          both policies *)
  r_removes : int;  (** deques reaped from R, both policies *)
  sync_ops : int;
      (** synchronization operations (atomic RMWs and publishing stores,
          CAS retries included) executed on scheduling paths, both
          policies — a thief's request, an owner's response (clearing the
          flag, publishing to the public part), public pop and steal, the
          promise's publishing store of each task taken from a deque,
          abandonment, reap and R membership.  An unstolen, unpublished
          fork costs 0: its push and its join's pop touch only the
          private part.  The Rito & Paulino sync-overhead metric, bounded
          by steals and publications rather than by work; the registry's
          [dfd_pool_sync_ops] probe. *)
}

val counters : t -> counters
(** Typed snapshot of the pool's scheduling counters, aggregated across
    the per-worker records.  Each worker updates only its own record
    without synchronisation (this includes the DFD membership counters —
    no lock is taken to read any of them), so a snapshot taken while
    tasks are running may be slightly stale; it is exact once the pool
    is idle. *)

val rank_error : t -> Dfd_structures.Stats.Histogram.t
(** Distribution of the rank error of every successful steal, one
    sample per steal under both policies: how many positions outside
    the exact leftmost-[min(p,|R|)] window the sampled victim sat (0 =
    the steal was indistinguishable from the exact discipline).  Merged
    from per-worker single-writer histograms at read, like
    {!val-counters}. *)

val heartbeat : t -> int
(** Monotonic progress counter: total tasks started across all workers.
    A cheap read (per-worker sum, no locks, no clock), intended as the
    progress clock for a no-progress watchdog, such as the service's
    wedge detector — the pool never stamps wall-clock time on the hot
    path for liveness purposes. *)

val flight : t -> Dfd_trace.Tracer.t
(** The flight recorder passed at {!create}
    ({!Dfd_trace.Tracer.disabled} if none) — supervisors dump it on
    wedge/timeout post-mortems. *)

val snapshot : t -> string
(** Human-readable diagnostic dump: policy, counters, queued-task, parking and
    cancellation state, per-worker private-part length and raised
    request flag, per-public-deque occupancy in R, each worker slot's
    attached domain (by id, present or on its way) and recall flag, K
    and per-worker quota (max_int under {!Work_stealing}).  Its [queued] is
    the public count of {!For_testing.queued}; the private lengths are
    listed separately.  All reads are lock-free (per-worker counter
    aggregates; unsynchronized reads of owner-only private parts; a
    relaxed walk of the R shards) — exact once the pool is idle,
    slightly stale while it runs; intended for hang post-mortems and
    watchdog reports, not hot paths. *)

val shutdown : t -> unit
(** Release the pool's worker slots and take them out of the process's
    domain bound, wait until every domain serving the pool has left it,
    then join the free domains beyond the bound (and any domain that quit
    after a {!kill}).  The others stay free for other pools.  The pool
    must be idle. *)

val kill : t -> unit
(** Forceful teardown for a supervisor that has declared the pool wedged
    (e.g. a task looping forever without touching the pool, beyond the
    reach of cooperative cancellation): release the slots, signal
    shutdown and return {e without} waiting, so the caller can respawn a
    fresh pool immediately.  The domains serving the pool leave the
    process's bound at once: idle and parked ones leave the pool
    promptly, and a genuinely stuck one when its task returns.  Each then
    rejoins the set as a free domain if the set is below its bound, or
    quits.  So a stuck task never keeps a fresh pool from its full
    width.  Call {!shutdown} later to wait for them and join those that
    quit. *)

(** Hooks for the systematic concurrency checker
    ({!module:Dfd_check.Explore}) — {b not} part of the scheduling API.
    The checker needs a pool whose every participating thread is under
    its control, so it creates one with worker slots but no spawned
    domains and drives the worker roles from threads it serialises
    through the {!Dfd_structures.Schedpoint} yield points. *)
module For_testing : sig
  val create_detached : workers:int -> policy -> t
  (** A pool with [workers] worker slots and {e no} worker domains.
      Work only progresses when some thread runs {!as_worker}/{!help}. *)

  val as_worker : t -> int -> (unit -> 'a) -> 'a
  (** [as_worker pool w f] runs [f] with the calling thread registered as
      worker [w] (so {!fork_join} etc. work), restoring the previous
      registration afterwards.  At most one live thread per worker slot. *)

  val help : t -> int -> bool
  (** One attempt by worker [w] to obtain and run a single task; [false]
      if none was found. *)

  val queued : t -> int
  (** Tasks queued where a worker could take them: every live R
      member's public deque.  It
      does not count private parts, which only their owners read
      exactly (see {!private_len}).  0 once a computation is quiescent:
      the checker's leak oracle, with {!private_len}. *)

  val r_size : t -> int
  (** Deques in R ({!Dfd_structures.Multiq.size}): a lock-free read,
      exact once the pool is quiescent.  Under {!Work_stealing} it does
      not exceed the worker count: the paper's K = ∞ fact. *)

  val private_len : t -> int -> int
  (** Tasks in worker [w]'s private part.  Exact from [w]'s own thread or
      once [w] is quiescent; an unsynchronized, possibly stale read
      otherwise.  0 at every top-of-loop take, and once every task of a
      run has returned. *)

  val stale_slots : t -> int -> int
  (** Slots of worker [w]'s private stack outside its live tasks that
      still hold a task: the finished branches its pops left behind, at
      most four while [w] runs.  Same read contract as {!private_len}.
      0 once {!run} has returned (for the caller, worker 0) and once a
      worker domain has gone idle. *)

  val requested : t -> int -> bool
  (** Whether worker [w]'s request flag is raised. *)

  val boundary : t -> int -> unit
  (** Worker [w]'s check at a fork or join: if its private part is
      nonempty and its flag is raised or a worker is parked, clear the
      flag, publish the oldest private task and signal. *)

  val drop_request : t -> int -> unit
  (** Clear worker [w]'s request flag and publish nothing — the wrong
      answer, for building the planted twin. *)

  val push : t -> int -> (unit -> unit) -> unit
  (** [push pool w f] — worker [w] publishes [f] onto its public deque
      exactly as an answer to a request does: push, then signal a parked
      worker if it sees one. *)

  type 'a fork
  (** A branch forked by {!fork}.  {!pop_fork} and {!peek} are the
      pieces of {!fork_join}'s join, for building deliberately wrong
      joins. *)

  val fork : (unit -> 'a) -> 'a fork
  (** Push a branch from the calling worker exactly as {!fork_join}
      pushes its first one: onto the private part, then the boundary
      check.  Raises {!Not_in_pool} outside a worker. *)

  val pop_fork : 'a fork -> bool
  (** The join's take: pop the branch from the private part, or back from
      the public part if it was published and not stolen.  [true] means
      no other worker can run it. *)

  val peek : 'a fork -> 'a option
  (** The branch's published outcome: its value, or its exception
      re-raised.  [None] while the promise is unwritten: the branch is
      still queued, taken back by {!pop_fork}, or taken by another
      worker and not yet finished. *)

  val park_step : t -> int -> [ `Found_work | `Would_sleep ]
  (** [park_step pool w]: worker [w]'s announce-then-scan step, without
      the lock or the wait: [`Would_sleep] means a real parker would now
      block, still announced; [`Found_work] means it withdrew its
      announce and stays up.  The scan looks for what {!work_queued}
      sees, for a peer holding private work (an unsynchronized hint), for
      shutdown and for slot [w]'s recall flag. *)

  val announce : t -> unit
  (** The announce half of {!park_step} alone (raise the parked count),
      for building deliberately misordered variants. *)

  val work_queued : t -> bool
  (** The queued-work part of {!park_step}'s scan: is any task queued
      where a parker could take it?  It scans what {!queued} counts:
      public parts, never private parts.  A peer's private
      work reaches a parker through the peer's next {!boundary}, which
      sees the announce. *)

  val wakeups : t -> int
  (** Wake-up signals sent so far: pushes that saw a parked worker, and
      recall broadcasts. *)

  val recall : t -> int -> unit
  (** [recall pool w]: the handshake a run of another pool makes when it
      takes slot [w]'s domain: raise the slot's recall flag, then
      broadcast on [pool]'s idle condition (counted in {!wakeups}).  The
      {!Dfd_structures.Schedpoint.pool_recall} yield point sits between
      the two. *)

  val raise_recall : t -> int -> unit
  (** The flag half of {!recall} alone, for building deliberately
      misordered variants. *)

  val wake_all : t -> unit
  (** The broadcast half of {!recall} alone (counted in {!wakeups}). *)

  val recalled : t -> int -> bool
  (** Whether slot [w]'s recall flag is raised. *)

  val worker_id : unit -> int
  (** The calling worker's slot in the pool it is running for.  Raises
      {!Not_in_pool} outside a worker. *)

  val worker_domains : unit -> int
  (** Worker domains alive in the process: spawned by some run and not
      yet quit, exiled ones included. *)

  val recalls : unit -> int
  (** Domains taken so far by a run from another pool's slot. *)

  val sync_cell : t -> int -> int ref
  (** Worker [w]'s sync-op cell, for checking the cells' memory layout. *)
end

(** A real multicore fork-join pool for OCaml 5 Domains implementing the
    paper's two deque disciplines.

    This is the "production library" face of the reproduction: the same
    scheduling algorithms that the simulator analyses, driving real OCaml
    closures on real domains.

    - {!Work_stealing} — one {e lock-free Chase–Lev deque}
      ({!Dfd_structures.Lfdeque}, the same deque DFDeques uses) per
      worker, LIFO locally, thieves pop the bottom of a uniformly random
      victim (Blumofe–Leiserson / Cilk).  The owner's push/pop takes no
      lock and no CAS except on the last element; steals are arbitrated
      by one CAS.
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
      ({!sync_ops}, [dfd_pool_sync_ops]).  DESIGN.md §15 documents the MultiQueue and
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
    owner-only {e private} stack and its join pops it back with plain
    writes: no atomic write, no box, and the branch's promise is never
    written or read.  Thieves take only from the {e public} part, the
    worker's {!Dfd_structures.Lfdeque}.  A thief that finds a public part
    empty raises its owner's request flag (under {!Dfdeques}, the owner of
    the sampled R deque).  The owner reads the flag at every fork and
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
    layer. *)

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

exception Timeout
(** The {!run} [timeout] expired.  Raised by [run] itself after the
    in-flight computation has been cancelled and the deques drained; the
    pool is reusable afterwards. *)

exception Cancelled
(** Internal cooperative-cancellation signal: raised inside pool tasks
    once the {!run} deadline has passed so the computation unwinds.  User
    code only observes it if it catches-and-inspects exceptions crossing a
    {!fork_join}; [run] translates it to {!Timeout} at the boundary. *)

val create :
  ?domains:int ->
  ?tracer:Dfd_trace.Tracer.t ->
  ?fault:Dfd_fault.Fault.t ->
  ?registry:Dfd_obs.Registry.t ->
  ?flight:Dfd_trace.Tracer.t ->
  ?respawn_budget:int ->
  policy ->
  t
(** [create ~domains policy] starts a pool with [domains] extra worker
    domains (default: [Domain.recommended_domain_count () - 1]).  The
    caller participates as a worker while inside {!run}.

    [tracer] (default {!Dfd_trace.Tracer.disabled}) receives structured
    scheduler events — steal attempts/successes, quota exhaustions, deque
    lifecycle, one [Action_batch] per task.  Unlike the simulator, event
    timestamps are wall-clock microseconds since pool creation, so traces
    export directly to Chrome/Perfetto at real-time scale.  One ring per
    pool: it needs [n_workers + 1] = [domains + 2] lanes (worker [w]
    writes lane [w], the caller being worker 0; external supervisors
    write the last), so every emit is lock-free; never share a ring
    between live pools.  With tracing off the hot paths never read the
    clock.  Raises [Invalid_argument] if an enabled [tracer] or [flight]
    has fewer than [n_workers + 1] lanes.

    [fault] (default {!Dfd_fault.Fault.none}): a seeded fault-injection
    plan for chaos testing.  The pool consults it at every steal attempt
    (forced failures, counted and traced as [Fault_injected]) and at every
    fork (injected task exceptions, which propagate to the joining parent
    exactly like user exceptions).

    [registry] (default {!Dfd_obs.Registry.disabled}): live-telemetry
    plane.  When enabled, the pool's hot-path events (steals and
    failures, local pops, quota giveups, tasks, task exceptions, parks,
    deque churn, [alloc_hint] bytes) additionally land in the registry's
    sharded [dfd_pool_*] counters, and gauges over live state
    (parked workers, current K, R size) are published as probes —
    queryable while the pool runs.  With the default disabled registry
    each instrument update is a single load-and-branch (measured by the
    obs-overhead pair in [perfbench/]).  Registration upserts,
    so pool incarnations respawned by a supervisor keep accumulating into
    the same series.

    [flight] (default {!Dfd_trace.Tracer.disabled}): always-on crash
    forensics, typically [Tracer.create ~capacity:256 ~lanes:(domains + 2) ()].
    Rare events (steal successes, quota giveups, deque lifecycle,
    injected faults, task exceptions, crash-domain transitions) are
    recorded into it — as into [tracer] — and a supervisor dumps it
    ({!Dfd_trace.Tracer.write_file}) on [Timeout], watchdog kill or
    give-up, without enabling full tracing.  Same lane rule as [tracer]:
    one ring per pool, [n_workers + 1] lanes, never shared between live
    pools.

    [respawn_budget] (default 0): how many quarantined worker slots
    {!respawn_worker} may refill with fresh domains over the pool's
    lifetime.  0 means quarantined slots stay dead (the pool runs
    degraded at p-1, p-2, ...) and wholesale pool respawn remains the
    supervisor's backstop. *)

val run : ?timeout:float -> ?quota:int -> t -> (unit -> 'a) -> 'a
(** Execute a task (and all the parallel work it forks) to completion on
    the pool; the calling thread works too.  Re-entrant calls from inside
    pool tasks raise {!Nested_run}.

    [quota]: apply this memory threshold K (bytes) for the run — exactly
    {!set_quota} performed atomically with the run's start, so a
    multi-tenant driver can give each dispatched job its own tenant's K
    budget.  The value persists after the run (the next caller sets its
    own).  Raises [Invalid_argument] on a {!Work_stealing} pool or a
    non-positive quota, like {!set_quota}.

    [timeout] (seconds, wall clock): cancel the computation and raise
    {!Timeout} once the deadline passes.  Cancellation is cooperative —
    it takes effect at the next {!fork_join} or join-wait of any task, so
    a task that loops forever without touching the pool cannot be
    interrupted.  On timeout the leftover queued tasks are drained (each
    unwinds immediately via the cancellation signal) before {!Timeout} is
    raised, leaving the pool idle and reusable. *)

val fork_join : (unit -> 'a) -> (unit -> 'b) -> 'a * 'b
(** Run the two thunks in parallel, returning both results.  Must be
    called from inside {!run}.  The left thunk is the forked child (it is
    what thieves steal), the right runs in the current task — matching the
    paper's fork semantics. *)

val parallel_for : lo:int -> hi:int -> (int -> unit) -> unit
(** Binary fork-join tree over [lo, hi) — the standard nested-parallel
    loop encoding.  Must be called from inside {!run}. *)

val parallel_map : ('a -> 'b) -> 'a array -> 'b array
(** Parallel array map built on {!parallel_for}. *)

val parallel_reduce : zero:'a -> op:('a -> 'a -> 'a) -> lo:int -> hi:int -> (int -> 'a) -> 'a
(** Binary fork-join tree reduction of [f lo ... f (hi-1)] with an
    associative [op].  Must be called from inside {!run}. *)

val parallel_prefix_sum : zero:'a -> op:('a -> 'a -> 'a) -> 'a array -> 'a array
(** Exclusive prefix "sums" under an associative [op] (Blelloch two-phase
    scan over chunks).  [out.(i) = fold op zero arr.(0..i-1)].  Must be
    called from inside {!run}. *)

val alloc_hint : int -> unit
(** Report [n] bytes of allocation to the scheduler.  Under {!Dfdeques}
    this feeds the memory quota; under {!Work_stealing} only the
    [alloc_bytes] counter is touched (the pressure signal is still
    useful).  Called from outside {!run} it raises {!Not_in_pool}, like
    every other pool operation — a hint with no pool to charge is a
    bug, not a no-op. *)

val quota : t -> int option
(** The current memory threshold K of a {!Dfdeques} pool; [None] under
    {!Work_stealing}. *)

val set_quota : t -> int -> unit
(** Adjust the memory threshold K at runtime (one atomic store, no
    locks).  Each worker picks the new value up at its next steal, when
    its quota refills — the adjustment lever the adaptive controller in
    {!Dfd_service} uses to trade throughput for the Theorem 4.4 space
    bound [S1 + O(K·p·D)] under memory pressure.  Raises
    [Invalid_argument] on a {!Work_stealing} pool or a non-positive
    quota. *)

type counters = {
  steals : int;  (** successful steals *)
  steal_failures : int;  (** steal attempts that found nothing (real or injected) *)
  local_pops : int;  (** tasks taken from the worker's own deque *)
  quota_giveups : int;  (** deques abandoned on memory-quota exhaustion *)
  tasks_run : int;  (** tasks executed (all paths, including inline) *)
  task_exns : int;  (** tasks that raised (user, injected, or cancellation) *)
  alloc_bytes : int;  (** total bytes reported via {!alloc_hint} (both policies) *)
  parks : int;  (** times an idle worker parked on the condition variable *)
  r_inserts : int;
      (** R-membership inserts (own-deque creations + thief adoptions;
          DFDeques only) *)
  r_removes : int;  (** deques reaped from R (DFDeques only) *)
  sync_ops : int;
      (** synchronization operations (atomic RMWs and publishing stores,
          CAS retries included) on scheduling paths, both policies *)
}

val counters : t -> counters
(** Typed snapshot of the pool's scheduling counters, aggregated across
    the per-worker records.  Each worker updates only its own record
    without synchronisation (this includes the DFD membership counters —
    no lock is taken to read any of them), so a snapshot taken while
    tasks are running may be slightly stale; it is exact once the pool
    is idle. *)

val sync_ops : t -> int
(** Total synchronization operations (atomic RMWs and publishing stores,
    CAS retries included) executed on scheduling paths — a thief's
    request, an owner's response (clearing the flag, publishing to the
    public part), public pop and steal under both policies, the
    promise's publishing store of each task taken from a deque, a taken
    task's hand-over through its worker's held-task slot, plus
    abandonment, reap and R membership under {!Dfdeques} — summed across
    the per-worker single-writer cells.  An unstolen, unpublished fork
    costs 0: its push and its join's pop touch only the private part.
    The Rito & Paulino sync-overhead metric, which is bounded by
    steals and publications rather than by work.  Exposed to the
    registry as the lazily-summed [dfd_pool_sync_ops] probe (the pool
    deliberately does not mirror it into a write-side counter — that
    would add an atomic RMW per operation just to count atomic RMWs).
    Same staleness contract as {!val-counters}. *)

val rank_error : t -> Dfd_structures.Stats.Histogram.t
(** Distribution of the rank error of every successful DFDeques steal:
    how many positions outside the exact leftmost-[min(p,|R|)] window
    the sampled victim sat (0 = the steal was indistinguishable from
    the exact discipline).  Merged from per-worker single-writer
    histograms at read, like {!val-counters}; always empty under
    {!Work_stealing}. *)

val heartbeat : t -> int
(** Monotonic progress counter: total tasks started across all workers.
    A cheap read (per-worker sum, no locks, no clock), intended as the
    progress clock for a no-progress watchdog
    ({!Dfd_fault.Watchdog.touch} on change, {!Dfd_fault.Watchdog.check}
    periodically) — the pool never stamps wall-clock time on the hot path
    for liveness purposes. *)

(** {2 Per-worker crash domains}

    The pool survives the death of an individual worker domain without
    losing or duplicating work.  A seeded {!Dfd_fault.Fault.t} crash
    fires inside a worker's top-of-loop take: the worker publishes a
    one-way death certificate and unwinds.  Any peer (or the caller, or
    an external supervisor via {!quarantine}) then {e quarantines} the
    slot: one CAS winner fences the slot's generation, recovers the
    taken-but-unstarted task exactly once (atomic exchange against the
    owner), requeues it through a lock-free orphan stack that all
    workers drain ahead of their deques, abandons the dead owner's
    DFDeques deque through the sticky death-certificate protocol so
    survivors steal its queued tasks back, and appends an audit record
    to the {!lineage} ledger.  The pool then runs degraded at
    [p - 1] — the Theorem 4.4 space bound [S1 + c·min(K,S1)·p·D]
    shrinks gracefully with it (see [Dfd_obs.Headroom.set_p]) — until
    {!respawn_worker} refills the slot under the [respawn_budget].
    {!verify_lineage} audits the whole episode after the fact: no task
    lost, none run twice.  DESIGN.md §17 gives the protocol and its
    memory-ordering audit. *)

type lineage_entry = {
  worker : int;
  cause : string;  (** ["crash"], ["wedge"] or ["respawn"]. *)
  requeued : bool;  (** a held task was recovered through the orphan stack. *)
  abandoned : bool;  (** a DFDeques deque was abandoned on the owner's behalf. *)
}

type worker_state = {
  w_activity : int;
      (** take-attempt clock: rises while the worker lives, even idle-stealing;
          flat = wedged or dead.  The watchdog's per-worker liveness signal. *)
  w_heartbeat : int;  (** tasks started by this worker. *)
  w_holding : bool;  (** a taken-but-unstarted task sits in the slot. *)
  w_stopped : bool;  (** the worker raised its own crash certificate. *)
  w_quarantined : bool;
}

val heartbeats : t -> int array
(** Per-worker split of {!heartbeat}: a supervisor diffing two reads can
    tell {e which} worker went flat, not just that someone did. *)

val worker_states : t -> worker_state array
(** Point-in-time crash-domain view of every worker slot (lock-free
    reads; same staleness contract as {!val-counters}). *)

val quarantine : ?cause:string -> t -> int -> bool
(** [quarantine pool w]: external supervisor verdict against worker [w]
    (cause defaults to ["wedge"]).  Returns [true] if this call won the
    quarantine (false: already quarantined).  Sound only against workers
    that are certifiably fenced — crashed (certificate raised) or wedged
    inside the scheduler with a flat {!worker_states} activity clock;
    quarantining a healthy worker is unsound and may duplicate or lose
    its in-flight push.  Raises [Invalid_argument] for the caller slot 0
    or an out-of-range worker. *)

val respawn_worker : t -> int -> bool
(** Spawn a fresh domain into a quarantined slot, spending one unit of
    the [respawn_budget].  Returns [false] (and does nothing) if the
    slot is not quarantined, the budget is exhausted, or the pool is
    shutting down.  Serialised internally; safe to call from any
    thread.  Raises [Invalid_argument] for slot 0 or out-of-range. *)

val degraded_p : t -> int
(** Live processor count: [n_workers] minus currently quarantined slots —
    the [p] the Theorem 4.4 budget should be instantiated with. *)

val lineage : t -> lineage_entry list
(** The crash-domain audit ledger, oldest first. *)

val quarantines : t -> int
(** Quarantine episodes recorded in {!lineage} (respawns excluded). *)

val verify_lineage : t -> (unit, string) result
(** Exactly-once recovery audit, meaningful once the pool is quiescent:
    no unquarantined crash certificates, the orphan stack drained, its
    push/pop counts balanced and equal to the ledger's requeue count,
    and each slot's quarantine/respawn history consistent with its live
    flag.  [Error] pinpoints the first violated invariant. *)

val metrics_samples : t -> Dfd_obs.Registry.sample list
(** {!counters} as registry snapshot samples (unlabelled names, marked
    unstable since native counters race) — the single flattening that
    {!stats} and the service's counter passthrough both derive from. *)

val stats : t -> (string * int) list
(** {!counters} flattened to association-list form for quick printing
    ([Dfd_obs.Registry.Snapshot.to_alist] over {!metrics_samples}). *)

val flight : t -> Dfd_trace.Tracer.t
(** The flight recorder passed at {!create}
    ({!Dfd_trace.Tracer.disabled} if none) — supervisors dump it on
    wedge/timeout post-mortems. *)

val snapshot : t -> string
(** Human-readable diagnostic dump: policy, counters, queued-task, parking and
    cancellation state, per-worker private-part length and raised
    request flag, per-public-deque occupancy (and per-worker quota under
    {!Dfdeques}), and the total injected-fault count.  Its [queued] is
    the public count of {!For_testing.queued}; the private lengths are
    listed separately.  All reads are lock-free (per-worker counter
    aggregates; unsynchronized reads of owner-only private parts; a
    relaxed walk of the R shards) — exact once the pool is idle,
    slightly stale while it runs; intended for hang post-mortems and
    watchdog reports, not hot paths. *)

val shutdown : t -> unit
(** Stop the worker domains.  The pool must be idle. *)

val kill : t -> unit
(** Forceful teardown for a supervisor that has declared the pool wedged
    (e.g. a task looping forever without touching the pool, beyond the
    reach of cooperative cancellation): signal shutdown and return
    {e without} joining the worker domains, so the caller can respawn a
    fresh pool immediately.  Idle and parked workers exit promptly; a
    genuinely stuck worker is abandoned until its task returns.  Call
    {!shutdown} later to reap the domains once they have exited. *)

(** Hooks for the systematic concurrency checker
    ({!module:Dfd_check.Explore}) — {b not} part of the scheduling API.
    The checker needs a pool whose every participating thread is under
    its control, so it creates one with worker slots but no spawned
    domains and drives the worker roles from threads it serialises
    through the {!Dfd_structures.Schedpoint} yield points. *)
module For_testing : sig
  val create_detached : ?fault:Dfd_fault.Fault.t -> ?respawn_budget:int -> workers:int -> policy -> t
  (** A pool with [workers] worker slots and {e no} worker domains.
      Work only progresses when some thread runs {!as_worker}/{!help}. *)

  val as_worker : t -> int -> (unit -> 'a) -> 'a
  (** [as_worker pool w f] runs [f] with the calling thread registered as
      worker [w] (so {!fork_join} etc. work), restoring the previous
      registration afterwards.  At most one live thread per worker slot. *)

  val help : t -> int -> bool
  (** One attempt by worker [w] to obtain and run a single task; [false]
      if none was found. *)

  val help_top : t -> int -> [ `Ran | `Idle | `Stopped ]
  (** Like {!help} but as a worker domain's top-of-loop step: armed
      crash/wedge faults may fire, and the crash path's internal unwind
      is surfaced as [`Stopped] instead of escaping. *)

  val scan : t -> proc:int -> int
  (** Quarantine every raised-but-unquarantined crash certificate, as
      peers do when they observe one pending; returns how many this call
      won. *)

  val queued : t -> int
  (** Tasks queued where a worker could take them — the orphan stack plus
      every WS public deque, or every live R member's public deque.  It
      does not count private parts, which only their owners read
      exactly (see {!private_len}).  0 once a computation is quiescent:
      the checker's leak oracle, with {!private_len}. *)

  val private_len : t -> int -> int
  (** Tasks in worker [w]'s private part.  Exact from [w]'s own thread or
      once [w] is quiescent; an unsynchronized, possibly stale read
      otherwise.  0 at every top-of-loop take, and once every task of a
      run has returned. *)

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

  val park_step : t -> [ `Found_work | `Would_sleep ]
  (** The parker's announce-then-scan step, without the lock or the wait:
      [`Would_sleep] means a real parker would now block, still announced;
      [`Found_work] means it withdrew its announce and stays up.  The scan
      looks for what {!work_queued} sees, for a peer holding private work
      (an unsynchronized hint), for shutdown and for a pending crash
      certificate. *)

  val announce : t -> unit
  (** The announce half of {!park_step} alone (raise the parked count),
      for building deliberately misordered variants. *)

  val work_queued : t -> bool
  (** The queued-work part of {!park_step}'s scan: is any task queued
      where a parker could take it?  It scans what {!queued} counts:
      public parts and orphans, never private parts.  A peer's private
      work reaches a parker through the peer's next {!boundary}, which
      sees the announce. *)

  val wakeups : t -> int
  (** Wake-up signals sent so far (pushes that saw a parked worker). *)

  val sync_cell : t -> int -> int ref
  (** Worker [w]'s sync-op cell, for checking the cells' memory layout. *)
end

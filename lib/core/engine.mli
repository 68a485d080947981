(** The synchronous multiprocessor simulation engine.

    Implements the cost model of Section 4.1: timesteps are synchronised
    across the [p] processors; each unit action takes one timestep; a steal
    attempt occupies its timestep, and a successful thief executes the
    stolen thread's first action within that same timestep; at most one
    steal per victim deque succeeds per timestep; scheduler transitions
    (local pops, suspensions, terminations, quota give-ups) are free.

    On top of that, the {e costed} configuration adds the performance
    effects of Section 5: simulated cache-miss stalls, serialisation of
    global scheduler structures through a lock, and thread-creation
    overhead (see {!Dfd_machine.Config}).

    The engine owns all thread state transitions (fork/join bookkeeping,
    mutexes, the memory quota and the Section 3.3 big-allocation
    transformation); the plugged {!Sched_intf.POLICY} only decides thread
    placement.  Running the same program under two policies therefore
    compares pure scheduling decisions under an identical machine.

    {b Advancing time.}  A timestep in which every processor is stalled
    (still executing a multi-timestep action or a miss penalty) runs no
    scheduler turn, draws no random number, and changes no state.  The
    engine therefore jumps its clock over each maximal run of such
    timesteps in one assignment.  The per-timestep observers still see
    every timestep of the span: one counter sample per timestep on
    [tracer] and [flight], and a [sampler] call at every multiple of its
    period.  The observers of constant state — [check_invariants],
    [headroom] and the watchdog — look once per span.  [max_steps] stops
    a span at its bound, so {!Stuck} is raised exactly where a
    step-by-step clock would raise it. *)

exception Deadlock of string
(** No processor can make progress but live threads remain (e.g. a mutex
    cycle, or every thread suspended). *)

exception Stuck of string
(** [max_steps] exceeded. *)

exception Malformed_run of string
(** The program violated the model at runtime: unmatched join, termination
    with unjoined children, unlock of a mutex not held, ... *)

type result = {
  sched : string;
  time : int;  (** T_p: total timesteps until the root thread terminated. *)
  work : int;  (** unit actions executed (>= the program's W; dummy threads
                   and their fork trees add nodes). *)
  heap_peak : int;  (** high watermark of live heap bytes. *)
  combined_peak : int;  (** heap + thread-stack high watermark. *)
  threads_peak : int;  (** max simultaneously live threads ("max threads"). *)
  threads_created : int;
  total_alloc : int;  (** gross allocation Sa. *)
  final_heap : int;
  steals : int;
  steal_attempts : int;
  local_dispatches : int;
  queue_dispatches : int;
  quota_exhaustions : int;
  dummy_threads : int;
  heavy_premature : int;
      (** steals whose victim thread was not the globally highest-priority
          ready thread — heavy premature nodes in the sense of Section 4.2
          (DFDeques only; Lemma 4.2 bounds their expectation by O(p*D)). *)
  deque_peak : int;  (** max deques simultaneously in R (DFDeques only). *)
  sched_granularity : float;  (** actions per steal/dispatch (Section 6). *)
  local_steal_ratio : float;  (** own-deque dispatches per steal (Section 5.3). *)
  load_imbalance : float;
      (** max-over-mean per-processor executed actions; 1.0 = perfectly
          balanced (Section 1's automatic-load-balancing claim). *)
  cache_accesses : int;
  cache_misses : int;
  cache_miss_rate : float;  (** percent; 0 when the cache model is off. *)
  metrics : Dfd_machine.Metrics.t;
      (** the run's full metrics object, for consumers that need more than
          the flat counters above: the steal-latency / deque-residency /
          quota-utilisation histograms and the per-victim steal
          distribution. *)
}

type sched =
  [ `Dfdeques  (** the paper's DFDeques(K), Figure 5. *)
  | `Ws  (** Blumofe-Leiserson work stealing ("Cilk"). *)
  | `Adf  (** asynchronous depth-first (Narlikar-Blelloch). *)
  | `Fifo  (** the Pthreads library's original global FIFO queue. *)
  | `Dfdeques_variant of Dfdeques.variant
    (** DFDeques with ablation knobs (steal position, victim scope). *) ]

val make_policy : sched -> Sched_intf.ctx -> Sched_intf.packed

val sched_name : sched -> string

val run :
  ?spin_locks:bool ->
  ?check_invariants:bool ->
  ?max_steps:int ->
  ?tracer:Dfd_trace.Tracer.t ->
  ?no_progress_limit:int ->
  ?observer:(now:int -> proc:int -> Thread_state.t -> Dfd_dag.Action.t -> unit) ->
  ?sampler:int * (now:int -> heap:int -> threads:int -> deques:int -> unit) ->
  ?registry:Dfd_obs.Registry.t ->
  ?flight:Dfd_trace.Tracer.t ->
  ?headroom:Dfd_obs.Headroom.t ->
  sched:sched ->
  Dfd_machine.Config.t ->
  Dfd_dag.Prog.t ->
  result
(** Execute the program to completion.

    [spin_locks] (default [false]): contended [Lock] actions busy-wait
    instead of suspending (the Cilk-style locks of Figure 17).
    [check_invariants] (default [false]): run the policy's structural
    invariant check (e.g. Lemma 3.1) after every timestep (once per
    all-stalled span) — O(ready threads) per step, tests only.  Only valid for pure nested-parallel
    programs: mutex/condvar wakeups intentionally approximate the priority
    order (Section 5) and trip the check.
    [max_steps] (default [10_000_000_000]).
    [tracer] (default {!Dfd_trace.Tracer.disabled}): structured event sink
    receiving the full {!Dfd_trace.Event} vocabulary — forks, join waits,
    steal attempts/successes, quota exhaustions, dummy executions, deque
    lifecycle, cache-miss stalls, lock waits, executed actions, and one
    counter sample (live deques / heap / threads) per timestep.  The
    disabled default costs one branch per potential event.
    [no_progress_limit] (default 1000): timesteps in which no processor
    executed an action or was stalled, before the no-progress watchdog
    declares deadlock/livelock;
    the raised {!Deadlock} carries a diagnostic snapshot (policy
    counters, memory state, per-processor activity, the recent trace
    ring).
    [observer] is called on every executed action (timestep, processor,
    thread, action) — schedule tracing for tests and visualisation; fork
    actions are reported as [Work 1].
    [sampler] = [(every, f)], [every >= 1]: call [f] at every timestep
    that is a multiple of [every], with the
    live heap bytes, live thread count and peak deque count — the
    memory-profile-over-time instrumentation behind `repro profile`.
    [registry] (default {!Dfd_obs.Registry.disabled}): registers
    [dfd_engine_*] probes closing over this run's live counters — the
    registry answers mid-run snapshots and retains the final values after
    the run returns.
    [flight] (default {!Dfd_trace.Tracer.disabled}): crash-forensics
    ring; the engine records quota exhaustions on each processor's lane
    and a machine-wide counter sample per timestep on the last lane
    (size it [~capacity:256 ~lanes:(p + 1)]).
    [headroom] : a {!Dfd_obs.Headroom} gauge family fed every timestep
    (once per all-stalled span, across which they do not change) with
    the live heap bytes and the heavy-premature count; create it
    from [Analysis.analyze] results so its budget equals the
    [Oracle.thm44] bound. *)

val pp_result : Format.formatter -> result -> unit

val histogram_to_json : Dfd_structures.Stats.Histogram.t -> Dfd_trace.Json.t
(** Summary object: count, mean, min, max, p50/p90/p99 and the non-empty
    log2 buckets. *)

val result_to_json : result -> Dfd_trace.Json.t
(** Machine-readable export of every counter and derived metric of the
    run, plus the steal-latency / deque-residency / quota-utilisation
    histogram summaries and the per-processor / per-victim distributions
    (the payload behind [repro run --metrics-json]). *)

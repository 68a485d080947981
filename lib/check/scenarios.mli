(** The scenario catalogue for {!Explore}.

    Deque scenarios share one oracle: every pushed value is delivered
    exactly once (owner pop, thief steal, or final drain) — the multiset
    identity that double delivery or loss breaks.  Pool scenarios run a
    real fork-join computation on a detached pool
    ({!Dfd_runtime.Pool.For_testing}) whose workers are played by
    controlled threads, checking the computed result, the task-count
    accounting and the absence of leaked tasks. *)

val lfdeque_ops : Explore.scenario
(** The deque of both pool disciplines ({!Dfd_structures.Lfdeque}):
    seeded owner push/pop mix against two concurrent thieves,
    exactly-once delivery. *)

val lfdeque_grow : Explore.scenario
(** Tiny initial buffer; pushes force grows under a concurrent thief. *)

val lfdeque_wrap : Explore.scenario
(** Deque started at [max_int - 3]: churn across the overflow boundary. *)

val lfdeque_abandon : Explore.scenario
(** Owner abandonment (sticky give-up) and reap racing two thieves:
    exactly-once delivery, one-winner reap, and a reap only ever unlinks
    a deque whose death certificate held. *)

val lfdeque_reap : Explore.scenario
(** The reap-decision window: a pre-abandoned deque, a reaper looping
    [is_dead]-then-remove against a draining thief. *)

val multiq_ops : Explore.scenario
(** Relaxed R-list ({!Dfd_structures.Multiq}): concurrent CAS inserts
    against two racing removers; oracle checks one-winner removal and
    untorn membership. *)

val multiq_two_choice : Explore.scenario
(** Two-choice sampling under membership churn: every sampled victim
    must be a live member and the leftmost of both sampled shards. *)

val pool_ws : Explore.scenario
(** Fork-join fib on the work-stealing pool, two helping workers. *)

val pool_dfd : Explore.scenario
(** Same computation under DFDeques(K) with a quota small enough that
    every leaf allocation forces a give-up through the R-list. *)

val pool_crash_ws : Explore.scenario
(** Fork-join fib with a one-shot [worker_crash] armed on the
    work-stealing pool: the victim dies holding one unstarted task,
    survivors quarantine it and steal its leftovers back; the oracle
    audits the lineage ledger (no task lost, none run twice) and the
    degraded worker count. *)

val pool_crash_dfd : Explore.scenario
(** Same crash injection under DFDeques(K), triggered after the victim
    has usually run a task — quarantine must also abandon and reap the
    dead owner's R-list deque via the death-certificate protocol. *)

val multiq_buggy : Explore.scenario
(** Drives {!Buggy_multiq} (torn membership on remove); the explorer is
    expected to {e fail} this one.  Excluded from {!all}. *)

val lfdeque_buggy : Explore.scenario
(** Drives {!Buggy_lfdeque} (check-then-store steal commit); the explorer
    is expected to {e fail} this one.  Excluded from {!all}. *)

val buggy : Explore.scenario
(** Alias for {!lfdeque_buggy}. *)

val all : Explore.scenario list
(** Every correct scenario, the default set for [repro check]. *)

val catalogue : Explore.scenario list
(** The planted-bug scenarios followed by {!all}. *)

val find : string -> Explore.scenario option
(** Look up any scenario (including the buggy one) by name. *)

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
(** Fork-join fib on the work-stealing pool (DFDeques with K = ∞, so
    the R-list paths without give-ups), two helping workers.  Fails
    on a wrong result, a leaked task, a [tasks_run] count other than the
    number of forks, or a forked branch that did not run exactly once
    (each fork counts the runs of its branch, inline ones included). *)

val pool_dfd : Explore.scenario
(** Same computation under DFDeques(K) with a quota small enough that
    every leaf allocation forces a give-up through the R-list. *)

val pool_park : Explore.scenario
(** The idle wake-up handshake: a publication (push, then read [n_parked])
    racing one announce-then-scan parking step, under a policy drawn per
    iteration.  Fails if the parker would sleep while a task is queued
    and no signal was sent. *)

val pool_park_buggy : Explore.scenario
(** The same race over {!Buggy_park} (scan, then announce); the explorer
    is expected to {e fail} this one.  Excluded from {!all}. *)

val pool_recall : Explore.scenario
(** The recall handshake: a run of another pool recalls a worker
    domain parking in this one (flag, then broadcast on the idle
    condition) while the domain takes one announce-then-scan parking
    step, under a policy drawn per iteration.  Fails if the domain would
    sleep with its recall flag raised and no broadcast after its scan. *)

val pool_recall_buggy : Explore.scenario
(** The same race over {!Buggy_recall} (broadcast, then flag); the
    explorer is expected to {e fail} this one.  Excluded from {!all}. *)

val pool_join_buggy : Explore.scenario
(** The {!pool_ws} computation joined through {!Buggy_join} (a branch
    whose promise is still unwritten runs inline); the explorer is
    expected to {e fail} this one.  Excluded from {!all}. *)

val pool_request : Explore.scenario
(** The request protocol: a thief raises the owner's request flag and
    the owner's next fork-or-join boundary publishes its private branch,
    under a policy drawn per iteration.  Fails on a branch not run
    exactly once, a leaked task, or a livelock (the step budget). *)

val pool_request_buggy : Explore.scenario
(** The same protocol over {!Buggy_request} (the request is cleared,
    nothing is published); the explorer is expected to {e fail} this one
    with an exceeded step budget.  Excluded from {!all}. *)

val work : unit -> unit
(** A leaf's work in the pool scenarios: the
    {!Dfd_structures.Schedpoint.task_work} yield point. *)

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

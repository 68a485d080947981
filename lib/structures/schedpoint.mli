(** Injectable yield points for the systematic concurrency checker.

    Concurrency-sensitive code calls {!point} at the instants where an
    adversarial scheduler could preempt it: between the individual atomic
    operations of the work-stealing deque, at the native pool's task-transfer
    boundaries.  With no handler installed (production, and every test
    that is not a checker run) a point costs one atomic load and does
    nothing — the hook is a no-op unless checking is enabled.

    The checker ({!module:Dfd_check.Explore}) installs a process-global
    handler around an exploration run.  The handler receives the point id
    and is responsible for deciding whether the calling thread is under
    its control (threads it did not spawn must pass through unimpeded). *)

val point : int -> unit
(** [point id] — yield to the installed handler, if any. *)

val install : (int -> unit) -> unit
(** Install the process-global handler (checker only; not reentrant). *)

val uninstall : unit -> unit

val active : unit -> bool
(** Whether a handler is currently installed. *)

(** {2 Yield-point ids}

    Stable identifiers for every instrumented site, so replay files are
    readable and survive refactors that do not move the sites. *)

val start : int
(** Pseudo-point at which every controlled thread blocks before running. *)

val pool_push : int
val pool_get : int
val pool_pop_exact : int
val pool_await : int
val pool_fulfill : int

val multiq_insert : int
(** Inside a multiq shard-publish or gap-split CAS retry window. *)

val multiq_remove : int
(** Inside a multiq shard-unpublish CAS retry window. *)

val multiq_sample : int
(** Before a two-choice sample reads its two shard heads. *)

val multiq_remove_commit : int
(** Only emitted by the checker's deliberately buggy multiq variant: the
    instant between its shard read and its (non-CAS) republish on remove,
    where the correct structure has a compare_and_set and hence no such
    window. *)

val lfdeque_push_cell : int
(** Lfdeque push: after the bottom read, before the cell write. *)

val lfdeque_push_publish : int
(** Lfdeque push: between the cell write and the bottom publish. *)

val lfdeque_pop_reserve : int
(** Lfdeque pop: between the bottom decrement and the top read. *)

val lfdeque_pop_race : int
(** Lfdeque pop: before the last-element CAS against a thief. *)

val lfdeque_steal_read : int
(** Lfdeque steal: between the top read and the bottom read. *)

val lfdeque_steal_cell : int
(** Lfdeque steal: between the cell read and the top CAS. *)

val lfdeque_grow_publish : int
(** Lfdeque grow: between building the new buffer and republishing. *)

val lfdeque_abandon : int
(** Lfdeque abandon: before the sticky owner-to-[None] store — the
    ownership-transfer window a concurrent thief races. *)

val lfdeque_reap : int
(** Lfdeque [is_dead]: between the owner read and the emptiness read —
    the reap-decision window a concurrent steal races. *)

val lfdeque_steal_commit : int
(** Only emitted by the checker's deliberately buggy lfdeque variant: the
    instant between its non-atomic top check and top store, where the
    correct deque has a single CAS and hence no such window. *)

val pool_crash_flag : int
(** Pool crash path: between publishing the held task and raising the
    worker's own death certificate — the window a quarantining peer
    races. *)

val pool_quarantine : int
(** Pool quarantine: after winning the one-winner quarantine CAS, before
    fencing the victim and recovering its held task. *)

val pool_orphan_push : int
(** Pool orphan requeue: inside the Treiber-stack push CAS window. *)

val pool_orphan_pop : int
(** Pool orphan take: inside the Treiber-stack pop CAS window. *)

val pool_park : int
(** Pool parking: between a parker's announce ([n_parked] raised) and its
    scan for queued work — the window a concurrent push races.  The
    checker's buggy parking twin emits it between its scan and its
    announce instead. *)

val pool_signal : int
(** Pool wake-up: after a push has published its task, before the pusher
    reads [n_parked] to decide whether to signal a parked worker. *)

val pool_request : int
(** Pool request: a thief that found a victim's public deque empty, after
    reading the victim's request flag clear and before raising it. *)

val pool_respond : int
(** Pool response: an owner that saw a request (or a parked worker) at a
    fork or join, before it clears the flag and publishes its oldest
    private task. *)

val task_work : int
(** User work: a leaf of a checker scenario's fork-join computation,
    where a real task spends its time.  The fork and join fast path has
    no point of its own, so this is where the explorer may preempt a
    worker inside a computation.  Emitted by lib/check scenarios only. *)

val name : int -> string
(** Human-readable name of a point id. *)

val of_name : string -> int option

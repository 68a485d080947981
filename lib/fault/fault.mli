(** Deterministic, seeded fault injection for the scheduler and the native
    pool.

    A fault injector is a {e plan}: given a seed and a table of per-fault
    probabilities, it answers yes/no (or how-much) at each of the runtime's
    fault decision points, drawing every answer from one explicit
    splitmix64 stream.  Replaying the same seed against the same
    (deterministic) consumer therefore replays the exact same fault
    schedule — the property the fault-injection tests ([test_fault],
    [test_runtime]), the seeded soaks ([repro soak --plan]) and the
    failing-seed workflow depend on.

    Decision points (who asks, and what a positive answer does):

    - {!stall_steps} — the simulation engine, once per processor per
      timestep: the processor freezes for that many timesteps (a
      descheduled/slow core).
    - {!steal_fails} — every scheduler policy and the native pool, at each
      steal attempt: the attempt is forced to fail (lost arbitration,
      contended deque).
    - {!maybe_task_exn} — the native pool, at each forked task: the task
      raises {!Injected_failure} instead of running user code.
    - {!alloc_spike} — the engine, at each [Alloc] action under a finite
      memory threshold: that many extra bytes are charged against the
      processor's quota (an allocation burst past K).
    - {!lock_delay} — the engine, at each successful [Lock] acquisition:
      the critical section is stretched by that many timesteps (a slow
      lock holder).

    The injector is thread-safe (one mutex around the stream) so the
    native pool's worker domains may share it; under concurrency the
    {e interleaving} of draws is scheduling-dependent, so only the
    single-threaded simulator gets bitwise-identical fault schedules.
    Aggregate per-kind counts are kept exactly in both settings.

    {!none} is a shared disabled injector: every decision point returns
    "no fault" without consuming randomness, so threading it through the
    hot paths costs one branch. *)

type rates = {
  stall_prob : float;  (** per processor per timestep. *)
  stall_steps : int;  (** length of an injected stall (>= 1 when it fires). *)
  steal_fail_prob : float;  (** per steal attempt / queue dispatch. *)
  task_exn_prob : float;  (** per forked task (native pool only). *)
  alloc_spike_prob : float;  (** per [Alloc] action under finite K. *)
  alloc_spike_bytes : int;  (** extra quota bytes charged by a spike. *)
  lock_delay_prob : float;  (** per successful lock acquisition. *)
  lock_delay_steps : int;  (** extra timesteps the lock is held. *)
  worker_crash : int option;
      (** [Some n]: the first worker (>= 1) to take a task once the global
          take counter reaches [n] crashes — its domain dies holding the
          task, exercising the pool's quarantine path.  Fires exactly
          once; deterministic on the logical take clock (see
          {!worker_take}).  [None] (the default) never crashes. *)
  worker_wedge : int option;
      (** Like [worker_crash], but the victim wedges: it spins forever
          inside the scheduler without running the task or touching any
          pool structure, until quarantined by a supervisor.  Fires
          exactly once. *)
}

val zero_rates : rates
(** All probabilities 0 — a created-but-inert plan. *)

val default_rates : rates
(** The fault-injection default: frequent steal failures, occasional
    stalls, allocation spikes and lock delays, no task exceptions. *)

type t

val none : t
(** The shared disabled injector ({!enabled} = [false]); never injects. *)

val create : ?rates:rates -> seed:int -> unit -> t
(** A fresh enabled injector.  [rates] defaults to {!default_rates}. *)

val enabled : t -> bool

val set_enabled : t -> bool -> unit
(** Turn injection off (or back on) without discarding the counters —
    lets a fault-injection run reuse a pool for a clean control run. *)

exception Injected_failure of string
(** The exception raised into user tasks by {!maybe_task_exn}.  The
    payload identifies the injection ("injected task exception #3"). *)

val stall_steps : t -> int
(** [0] = no fault; otherwise the number of timesteps to stall. *)

val steal_fails : t -> bool

val inject_task_exn : t -> bool
(** The bare decision; prefer {!maybe_task_exn} at the raise site. *)

val maybe_task_exn : t -> unit
(** Raise {!Injected_failure} if the plan injects here, else return. *)

val alloc_spike : t -> int
(** [0] = no fault; otherwise extra bytes to charge against the quota. *)

val lock_delay : t -> int
(** [0] = no fault; otherwise extra timesteps to hold the lock. *)

val worker_take : t -> worker:int -> [ `None | `Crash | `Wedge ]
(** The native pool calls this at every top-of-loop task-take by a worker
    domain (after obtaining a task, before running it).  Bumps the global
    take counter and answers whether this take triggers the plan's
    one-shot {!rates.worker_crash} / {!rates.worker_wedge} fault.
    Workers [<= 0] (the caller) never fire — crash domains only cover the
    spawned worker domains.  With both triggers [None] (the default) this
    is one branch, no lock. *)

val kind_names : string array
(** Stable names of the injectable fault kinds, {!counts} order:
    [stall; steal_fail; task_exn; alloc_spike; lock_delay; worker_crash;
    worker_wedge]. *)

val injected_total : t -> int
(** Faults injected so far, all kinds. *)

val counts : t -> (string * int) list
(** Per-kind injection counts, {!kind_names} order. *)

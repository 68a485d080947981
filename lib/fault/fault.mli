(** Deterministic, seeded fault injection for the simulation engine.

    A fault injector is a {e plan}: given a seed and a table of per-fault
    probabilities, it answers yes/no (or how-much) at each of the
    engine's fault decision points, drawing every answer from one
    explicit splitmix64 stream.  Replaying the same seed against the
    same (deterministic) consumer therefore replays the exact same fault
    schedule — the property the fault-injection tests ([test_fault]) and
    the failing-seed workflow depend on.

    Decision points (who asks, and what a positive answer does):

    - {!stall_steps} — the simulation engine, once per processor per
      timestep: the processor freezes for that many timesteps (a
      descheduled/slow core).
    - {!steal_fails} — every simulated scheduler policy, at each steal
      attempt: the attempt is forced to fail (lost arbitration,
      contended deque).
    - {!alloc_spike} — the engine, at each [Alloc] action under a finite
      memory threshold: that many extra bytes are charged against the
      processor's quota (an allocation burst past K).
    - {!lock_delay} — the engine, at each successful [Lock] acquisition:
      the critical section is stretched by that many timesteps (a slow
      lock holder).

    A plan takes no lock: one consumer thread per plan.  The native pool
    injects no faults (DESIGN.md §9).

    {!none} is a shared disabled injector: every decision point returns
    "no fault" without consuming randomness or writing anything, so
    threading it through the hot paths costs one branch. *)

type rates = {
  stall_prob : float;  (** per processor per timestep. *)
  stall_steps : int;  (** length of an injected stall (>= 1 when it fires). *)
  steal_fail_prob : float;  (** per steal attempt / queue dispatch. *)
  alloc_spike_prob : float;  (** per [Alloc] action under finite K. *)
  alloc_spike_bytes : int;  (** extra quota bytes charged by a spike. *)
  lock_delay_prob : float;  (** per successful lock acquisition. *)
  lock_delay_steps : int;  (** extra timesteps the lock is held. *)
}

val zero_rates : rates
(** All probabilities 0 — a created-but-inert plan. *)

val default_rates : rates
(** The fault-injection default: frequent steal failures, occasional
    stalls, allocation spikes and lock delays. *)

type t

val none : t
(** The shared disabled injector ({!enabled} = [false]); never injects. *)

val create : ?rates:rates -> seed:int -> unit -> t
(** A fresh enabled injector.  [rates] defaults to {!default_rates}. *)

val enabled : t -> bool

val stall_steps : t -> int
(** [0] = no fault; otherwise the number of timesteps to stall. *)

val steal_fails : t -> bool

val alloc_spike : t -> int
(** [0] = no fault; otherwise extra bytes to charge against the quota. *)

val lock_delay : t -> int
(** [0] = no fault; otherwise extra timesteps to hold the lock. *)

val kind_names : string array
(** Stable names of the injectable fault kinds, {!counts} order:
    [stall; steal_fail; alloc_spike; lock_delay]. *)

val injected_total : t -> int
(** Faults injected so far, all kinds. *)

val counts : t -> (string * int) list
(** Per-kind injection counts, {!kind_names} order. *)

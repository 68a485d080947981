(** Seeded full-jitter retry/backoff policy.

    A policy bounds how many times a job may be attempted and how long to
    wait between attempts.  Delays follow {e full jitter} over a capped
    exponential ramp: the delay before retry [n] (the n-th re-attempt,
    1-based) is drawn uniformly from [[1, min max_delay (base_delay·2ⁿ⁻¹)]]
    — contending retries decorrelate instead of colliding in lockstep,
    exactly the scheme the pool uses for steal backoff.

    Delays are {e logical steps} of the service's clock, not wall-clock
    time, and every draw comes from one explicit
    {!Dfd_structures.Prng} stream derived from [(seed, job id)], so a
    retry schedule is a pure function of the seed — the property that
    makes soak reports byte-identical per seed. *)

type policy = {
  max_attempts : int;  (** total attempts, including the first (>= 1). *)
  base_delay : int;  (** exponential ramp base, in logical steps (>= 1). *)
  max_delay : int;  (** cap on any single delay, in logical steps. *)
}

val default : policy
(** 4 attempts, base 1, cap 16. *)

val validate : policy -> unit
(** Raises [Invalid_argument] unless
    [max_attempts >= 1 && 1 <= base_delay <= max_delay]. *)

type t
(** One job's retry state: its private PRNG stream and attempt counter. *)

val create : policy -> seed:int -> job:int -> t
(** The stream for job [job] under master [seed]; equal [(seed, job)]
    pairs yield byte-identical schedules. *)

val policy : t -> policy

val attempts : t -> int
(** Attempts consumed so far: starts at 0, bumped by {!next_delay},
    monotone, clamped at [max_attempts] — the budget is never exceeded
    even if {!next_delay} keeps being called after exhaustion. *)

val next_delay : t -> int option
(** Consume one attempt.  [Some d] — retry after [d] logical steps
    (1 <= d <= max_delay); [None] — the retry budget is exhausted.  The
    first call accounts for the initial attempt and the budget ceiling:
    a policy with [max_attempts = n] yields exactly [n - 1] delays. *)

val schedule : policy -> seed:int -> job:int -> int list
(** The full delay schedule ([max_attempts - 1] delays) this stream would
    produce — what {!next_delay} returns across a job's lifetime, in
    order.  Pure; used by the property tests. *)

val is_terminal : exn -> bool
(** Is this exception class {e terminal} — deterministic, so a retry is
    guaranteed to fail identically and would only burn the budget?
    The classes: [Invalid_argument], [Assert_failure], [Match_failure],
    [Undefined_recursive_module].  The service's executor consults this,
    and its own [Supervisor_giveup], on every attempt exception so a
    terminal failure is acknowledged [Failed] immediately instead of
    cycling through the backoff schedule. *)

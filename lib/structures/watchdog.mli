(** No-progress watchdog: deadlock/livelock detection with a diagnostic
    snapshot.

    The owner calls {!touch} whenever real progress happens (an action
    executed, a task completed) and {!check} periodically; if more than
    [limit] time units pass without a touch, {!check} captures the owner's
    diagnostic snapshot — live counters, per-deque state, the recent trace
    ring, whatever the [snapshot] closure renders — and raises
    {!No_progress} carrying it.  The snapshot closure runs only on
    failure, so it may be arbitrarily expensive.

    Time is whatever monotonic unit the owner uses: simulator timesteps
    for the engine, milliseconds for wall-clock users.  The watchdog is
    passive (no thread of its own) and not synchronised; drive it from one
    thread, or from under the owner's lock. *)

type t

exception No_progress of { idle : int; limit : int; snapshot : string }
(** No {!touch} for [idle] > [limit] time units; [snapshot] is the
    diagnostic dump captured when the watchdog fired. *)

val create : ?limit:int -> snapshot:(unit -> string) -> unit -> t
(** [limit] defaults to 1000 (the engine's historical no-progress bound). *)

val touch : t -> now:int -> unit
(** Record progress at time [now]. *)

val check : t -> now:int -> unit
(** Raise {!No_progress} if the limit is exceeded at time [now]. *)

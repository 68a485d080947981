(** A deliberately wrong answer to a steal request ({b checker
    demonstration only}).

    A thief that finds a worker's public deque empty raises the worker's
    request flag; at its next fork or join the owner clears the flag and
    publishes its oldest private task.  This twin clears the flag and
    publishes nothing, with the
    {!Dfd_structures.Schedpoint.pool_respond} yield point before the
    clear.  The thief finds the public deque still empty and asks again,
    the owner drops that request too, and the private task never
    reaches the thief.  The [pool_request_buggy] scenario drives it
    through the explorer, which reports the livelock as an exceeded
    step budget; the test suite asserts it is found, shrunk and
    replayed, and the same scenario over the real
    {!Dfd_runtime.Pool.For_testing.boundary} ([pool_request]) passes. *)

val boundary : Dfd_runtime.Pool.t -> int -> unit

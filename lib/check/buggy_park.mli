(** A deliberately misordered parking step ({b checker demonstration
    only}).

    The pool's parker announces itself ([n_parked] up) and only then
    scans for queued work; a pusher publishes its task and only then
    reads [n_parked].  This twin scans {e before} it announces, with the
    {!Dfd_structures.Schedpoint.pool_park} yield point between the two.
    A push that lands in that window reads [n_parked = 0] and sends no
    signal, while the parker, having scanned too early, would sleep with
    the task queued: a lost wake-up.  The [pool_park_buggy] scenario
    drives it through the explorer, and the test suite asserts the bug is
    found, shrunk and replayed; the same scenario over the real
    {!Dfd_runtime.Pool.For_testing.park_step} ([pool_park]) passes. *)

val park_step : Dfd_runtime.Pool.t -> int -> [ `Found_work | `Would_sleep ]

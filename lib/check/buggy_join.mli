(** A deliberately wrong join ({b checker demonstration only}).

    The pool's join runs the forked branch inline only when its pop takes
    the branch back from its own deque; otherwise it waits for the
    branch's promise.  This twin also tries the pop, but then decides by
    the promise: while it is still unwritten it runs the branch inline.
    That is the "Pending means unstolen" mistake.  A thief holds the
    promise unwritten until the branch returns, so a join that lands
    while a thief is still running the branch runs it a second time.
    The [pool_join_buggy] scenario drives it through the explorer with a
    per-fork run counter, and the test suite asserts the double run is
    found, shrunk and replayed; the same scenario over the real
    {!Dfd_runtime.Pool.fork_join} ([pool_ws]) passes. *)

val fork_join : (unit -> 'a) -> (unit -> 'b) -> 'a * 'b

(** A deliberately misordered recall ({b checker demonstration only}).

    A run that takes another pool's worker domain raises that slot's
    recall flag and only then broadcasts on the other pool's idle
    condition; the domain parks only after an announce-then-scan that
    reads the flag.  This twin broadcasts {e before} it raises the flag,
    with the {!Dfd_structures.Schedpoint.pool_recall} yield point between
    the two.  A parking step that scans in that window misses the flag,
    and the broadcast has already gone, so the domain would sleep in its
    old pool while the new one counts on it.  The [pool_recall_buggy]
    scenario drives it through the explorer, and the test suite asserts
    the bug is found, shrunk and replayed; the same scenario over the
    real {!Dfd_runtime.Pool.For_testing.recall} ([pool_recall]) passes. *)

val recall : Dfd_runtime.Pool.t -> int -> unit

(** Parallel mergesort on the fork-join pool — a complete application of
    {!Pool}'s API (and of {!Pool.alloc_hint}: each merge reports its scratch
    space, so under the DFDeques discipline the sort exercises the memory
    quota exactly like the simulator's benchmarks do).

    Divide-and-conquer with a serial cutoff; the merge of two sorted halves
    is itself parallel (split at the median of the larger half, binary
    search in the other — Cormen et al.'s parallel merge), so the sort has
    polylog depth, not O(n). *)

val sort : ?cutoff:int -> cmp:('a -> 'a -> int) -> 'a array -> unit
(** In-place parallel mergesort.  Must be called from inside {!Pool.run}.
    [cutoff] (default 2048): ranges at most this long are sorted serially
    by the same merge sort, with no fork and no allocation (reading a
    [float array] from this polymorphic code boxes each element read);
    beyond its forks, the sort allocates one scratch copy of the array.
    @raise Invalid_argument if [cutoff < 1], before any fork. *)

val sorted : cmp:('a -> 'a -> int) -> 'a array -> bool
(** Is the array non-decreasing under [cmp]?  (Test helper.) *)

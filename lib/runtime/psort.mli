(** Parallel mergesort on the fork-join pool — a complete application of
    {!Pool}'s API, {!Pool.alloc_hint} included.  Before it forks, each
    merge of more than [cutoff] elements hints 8 bytes per element it
    merges, the buffer that a merge allocating its own output would
    need; under the DFDeques discipline these hints drive the memory
    quota.  They model allocation rather than count it: merges allocate
    nothing, and the scratch copy (and, off the immediate path, the
    index arrays and the copy) are allocated up front without a hint.

    Divide-and-conquer with a serial cutoff; the merge of two sorted halves
    is itself parallel (split at the median of the larger half, binary
    search in the other — Cormen et al.'s parallel merge), so the sort has
    polylog depth, not O(n). *)

val sort : ?cutoff:int -> cmp:('a -> 'a -> int) -> 'a array -> unit
(** In-place parallel mergesort.  Must be called from inside {!Pool.run}.
    [cutoff] (default 2048): ranges at most this long are sorted serially
    by the same merge sort, with no fork and no allocation.

    One [int array] core does the sorting, with plain loads and stores.
    If [cmp] is [Int.compare] itself (physical equality), the core sorts
    the array itself with no scan of its elements and compares inline,
    calling nothing per element; any other [cmp], a closure that calls
    [Int.compare] included, is called on every comparison.
    If every element of the array is an immediate ([int], [char], [bool],
    constant constructors), the core sorts the array itself; beyond its
    forks, the sort then allocates one scratch copy of the array.
    Otherwise (boxed values, a flat [float array], or a mix) the core
    sorts an index array under [cmp] applied to the indexed elements, and
    the array is then permuted once: the sort allocates the index array,
    its scratch copy and one copy of the array, and each comparison reads
    two elements through polymorphic code (which boxes the floats of a
    [float array]).  The index sort makes the comparisons that sorting
    the values would make, so it gives the same order.
    @raise Invalid_argument if [cutoff < 1], before any fork. *)

val sorted : cmp:('a -> 'a -> int) -> 'a array -> bool
(** Is the array non-decreasing under [cmp]?  (Test helper.) *)

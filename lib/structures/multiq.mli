(** Relaxed MultiQueue priority structure for the DFDeques R-list.

    The paper keeps the deques of DFDeques in one globally ordered list R
    and steals from the leftmost-p window.  Maintaining that list exactly
    under contention forces a global serialization point (the pool's old
    [r_lock] + republished leftmost-p snapshot).  This module trades exact
    order for scalability the way relaxed priority schedulers do
    ("Multi-Queues Can Be State-of-the-Art Priority Schedulers", PAPERS.md):

    - membership lives in [c*p] {e shards}, each an immutable sorted array
      republished by CAS — insert, remove and the implied ownership
      transfer are lock-free (a failed CAS means another thread made
      progress);
    - victim selection is {e two-choice sampling}: read the heads of two
      sampled shards (two atomic loads) and take the more-leftmost — no
      global snapshot, no lock;
    - order between entries is decided by O(1) integer labels in the
      style of {!Order_maint}: each entry owns a tag and a CAS-managed
      right-gap allocator, so "insert immediately after" splits the
      anchor's gap with one [compare_and_set] instead of relabelling
      under a lock.  When a gap is exhausted the new entry ties with its
      anchor (broken deterministically by insertion sequence) — a bounded
      order relaxation instead of a stop-the-world relabel.

    What is given up is exactness of the leftmost-p window: a sampled
    victim is the minimum of the two inspected shards, not of all of R.
    The resulting {e rank error} (how many live entries are strictly more
    leftmost than the victim) is the quantity the pool instruments per
    steal; {!rank} computes it.  What is {e not} given up: an entry is
    removed at most once ({!remove} has exactly-one-winner CAS
    semantics), a sampled entry was live when sampled, and entries never
    reorder after insertion.

    All operations are safe from any domain.  OCaml [Atomic] operations
    are sequentially consistent, which is stronger than this structure
    needs (see DESIGN.md §15 for the memory-ordering audit). *)

type 'a t

type 'a entry
(** A member handle: immutable order label + liveness flag.  The handle
    returned by insertion is the only way to remove the member. *)

val create : ?shards:int -> unit -> 'a t
(** [shards] (default 8, min 1) fixes the shard count; the pool uses
    [2 * p]. *)

val shard_count : 'a t -> int

val size : 'a t -> int
(** Live members (atomic counter; exact). *)

val value : 'a entry -> 'a

val is_live : 'a entry -> bool
(** False once {!remove} has won on this entry. *)

val shard_of : 'a entry -> int
(** Which shard holds the entry (round-robin placement at insert). *)

val tag : 'a entry -> int
(** The entry's order label (tests and diagnostics). *)

val compare_entries : 'a entry -> 'a entry -> int
(** The relaxed total order: tags ascending (smaller = more leftmost);
    equal tags — possible only after gap exhaustion — break by insertion
    sequence, the later insertion sitting more leftmost (it was inserted
    closer to the shared anchor).  O(1), never raises, valid on dead
    entries. *)

val insert_front : ?ops:int ref -> 'a t -> 'a -> 'a entry
(** New leftmost-region member: its label is allocated a fixed stride to
    the left of every previous front insertion.  [ops] accumulates the
    atomic RMW count of the operation, CAS retries included (the
    sync-op metric; see {!Lfdeque}). *)

val insert_after : ?ops:int ref -> 'a t -> 'a entry -> 'a -> 'a entry
(** New member immediately to the right of [anchor] (the DFDeques thief
    invariant): splits the anchor's right gap by CAS.  Inserting after a
    dead anchor is allowed and takes the anchor's old position. *)

val remove : ?ops:int ref -> 'a t -> 'a entry -> bool
(** Exactly-one-winner removal: [true] for the single caller that flips
    the entry dead (and unpublishes it from its shard), [false] for every
    other and for repeated calls. *)

val sample : 'a t -> int -> int -> 'a entry option
(** [sample t i j] — two-choice victim draw: the more-leftmost of the
    heads of shards [i] and [j] (indices taken mod the shard count), or
    [None] if both are empty.  The returned entry was live when read;
    it may die concurrently afterwards (the caller observes an empty
    deque and treats it as a failed steal). *)

val head : 'a t -> int -> 'a entry option
(** Leftmost live member of one shard. *)

val rank : 'a t -> 'a entry -> int
(** Number of live members strictly more leftmost than the entry — the
    entry's 0-based position in the relaxed global order.  O(|R|) scan
    over the shard arrays (lock-free, approximate under concurrent
    churn); observability, not a hot-path primitive. *)

val exists : ('a -> bool) -> 'a t -> bool
(** [exists f t] — whether some live member's value satisfies [f].  One
    atomic load per shard plus one liveness load per entry; allocates
    nothing.  Lock-free and approximate under concurrent churn, like
    {!rank}: a member inserted after its shard was read is not seen. *)

val members : 'a t -> 'a entry list
(** All live entries, sorted by {!compare_entries}.  Lock-free snapshot;
    approximate while membership churns. *)

val members_of_shard : 'a t -> int -> 'a entry list
(** Live entries of one shard, sorted (tests and diagnostics). *)

val to_list : 'a t -> 'a list
(** [members] projected to values. *)

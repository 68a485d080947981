(** Single-word-CAS lock-free deque: the per-processor deque of both the
    work-stealing and the DFDeques pool.

    A Chase–Lev-style work-stealing deque (owner pushes and pops at the
    bottom, thieves CAS the top forward) extended with the two
    operations the paper's DFDeques discipline needs from its deques and
    which previously forced a per-deque mutex in the pool (work stealing
    never calls them):

    - {!abandon}: the sticky ownership give-up an owner publishes when
      its memory quota runs out mid-deque.  One-way [Some w -> None];
      a deque is never re-owned, so abandonment freezes the bottom end.
    - {!is_dead}: the lock-free death certificate
      [owner = None && is_empty].  Because abandonment is sticky and
      pushes are owner-only, emptiness observed after [owner = None] is
      stable, so a reaper may unlink a dead deque from R without
      re-checking under a lock.

    All operations are non-blocking: the owner path is wait-free except
    for the last-element CAS race, thieves retry at most once per call
    (callers loop with backoff).  Safety under OCaml's SC [Atomic]s is
    argued in DESIGN.md §16, and every CAS window carries a
    {!Schedpoint} yield point so the lib/check explorer can drive
    owner/thief/reaper interleavings deterministically.

    The optional [ops] argument on mutating operations accumulates the
    number of atomic RMW / publishing-store operations actually executed
    (CAS attempts included, plain loads excluded) — the per-worker
    sync-op metric surfaced as [(Pool.counters p).sync_ops] for both
    policies. *)

type 'a t

val create : ?min_capacity:int -> ?owner:int -> unit -> 'a t
(** [create ()] — empty deque.  [min_capacity] is rounded up to a power
    of two (default 16).  [owner] sets the initial owner id. *)

val create_at : ?min_capacity:int -> ?owner:int -> index:int -> unit -> 'a t
(** [create_at ~index ()] — empty deque whose logical top/bottom indices
    start at [index] instead of 0, for exercising index wraparound near
    [max_int] without pushing 2{^62} elements first. *)

val push : ?ops:int ref -> 'a t -> 'a -> unit
(** Owner only: push at the bottom.  Grows the buffer (owner-only,
    republished atomically) when full; never blocks, never fails. *)

val pop : ?ops:int ref -> 'a t -> 'a option
(** Owner only: pop the most recently pushed element (LIFO end).  [None]
    when empty or when a thief wins the race for the last element. *)

val steal : ?ops:int ref -> 'a t -> 'a option
(** Thief: take the oldest element (FIFO end).  [None] when the deque is
    empty or the top CAS loses to a racing thief or last-element pop —
    callers are expected to retry with backoff. *)

val owner : 'a t -> int option
(** Current owner id; [None] once abandoned (never reverts). *)

val abandon : ?ops:int ref -> 'a t -> unit
(** Owner only: sticky [owner := None].  Called when the owner's memory
    quota is exhausted and it leaves the deque in R for thieves to
    drain.  Must be the owner's last operation on the deque. *)

val is_dead : 'a t -> bool
(** Lock-free death certificate: unowned and empty.  Stable — once true
    it remains true, so a reaper can act on it without revalidation. *)

val is_empty : 'a t -> bool

val length : 'a t -> int
(** Racy snapshot; exact when quiescent. *)

val capacity : 'a t -> int
(** Current buffer capacity (for tests). *)

(** Growable circular-buffer double-ended queue.

    This is the per-processor ready "deque" of the DFDeques algorithm
    (Section 3.2 of the paper): the owner pushes and pops at the {e top}
    (LIFO stack discipline), thieves pop at the {e bottom}.  All operations
    are amortised O(1).  The structure is not thread-safe; in the simulator
    all accesses happen inside one synchronous engine.  The native pool
    uses the lock-free {!Lfdeque} instead. *)

type 'a t

val create : unit -> 'a t
(** A fresh empty deque. *)

val length : 'a t -> int
(** Number of elements currently stored. *)

val is_empty : 'a t -> bool

val push_top : 'a t -> 'a -> unit
(** [push_top d x] pushes [x] on the top (owner end). *)

val pop_top : 'a t -> 'a option
(** Remove and return the top element, or [None] if empty. *)

val peek_top : 'a t -> 'a option
(** Return the top element without removing it. *)

val push_bottom : 'a t -> 'a -> unit
(** [push_bottom d x] inserts [x] at the bottom (thief end).  Not used by
    the scheduler proper but needed by tests and by the FIFO baseline. *)

val pop_bottom : 'a t -> 'a option
(** Remove and return the bottom element (the steal operation), or [None]. *)

val peek_bottom : 'a t -> 'a option

val to_list_top_first : 'a t -> 'a list
(** All elements, topmost first.  O(n); used by invariant checks/tests. *)

val iter_top_first : ('a -> unit) -> 'a t -> unit

val clear : 'a t -> unit

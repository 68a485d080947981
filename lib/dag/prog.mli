(** Nested-parallel programs (the computation model of Sections 2–3).

    A program describes the instruction stream of one thread.  A thread may
    [Fork] a child thread (the child's program is a thunk, so dags unfold
    lazily at runtime exactly as in the paper's dynamic model), continue with
    its own stream, and later [Join] with its most recently forked unjoined
    child.  Programs built with the [par] combinators are properly nested
    (series-parallel), i.e. nested-parallel computations; binary forks and
    binary joins only, as the paper assumes.

    The [frag] type is a program fragment in continuation style
    ([Prog.t -> Prog.t]); fragments compose with {!(>>)}.  Benchmarks build
    fragments; {!finish} closes a fragment into a runnable root program. *)

type t =
  | Nil  (** Thread termination.  All forked children must have been joined. *)
  | Act of Action.t * t  (** Execute one action, continue. *)
  | Fork of (unit -> t) * t
      (** Fork a child thread (lazily materialised), continue as parent. *)
  | Join of t
      (** Join with the most recently forked unjoined child (LIFO nesting),
          then continue. *)

type frag = t -> t
(** A program fragment awaiting its continuation. *)

val finish : frag -> t
(** Close a fragment into a complete thread program. *)

val ( >> ) : frag -> frag -> frag
(** Sequential composition of fragments. *)

val nothing : frag
(** The empty fragment. *)

val act : Action.t -> frag

val work : int -> frag
(** [work n] — [n] units of plain work; [work 0] is [nothing]. *)

val touch : int array -> frag
(** One action referencing the given word addresses. *)

val alloc : int -> frag
(** Allocate bytes ([alloc 0] is [nothing]). *)

val free : int -> frag

val lock : int -> frag

val unlock : int -> frag

val critical : int -> frag -> frag
(** [critical m body] = [lock m >> body >> unlock m]. *)

val wait : cv:int -> mutex:int -> frag
(** Condition-variable wait (must hold [mutex]; see {!Action.Wait} for the
    sticky-signal semantics). *)

val signal : int -> frag
(** Wake one waiter of the condition variable (sticky if none). *)

val broadcast : int -> frag
(** Wake all current waiters of the condition variable. *)

val seq : frag list -> frag
(** Sequential composition of a list of fragments. *)

val par : frag -> frag -> frag
(** [par child parent] forks [child], runs [parent] in the forking thread,
    then joins: a binary fork-join.  The {e child} is the left branch, which
    the depth-first order executes first (Section 3.1). *)

val par_list : frag list -> frag
(** Fork-join over a list, as a balanced {e binary} tree of forks — the
    paper's encoding of parallel loops and multi-way forks (Section 5.1). *)

val par_iter : lo:int -> hi:int -> (int -> frag) -> frag
(** [par_iter ~lo ~hi f] — binary fork tree over [f lo .. f (hi-1)];
    the standard nested-parallel loop. *)

val repeat : int -> frag -> frag
(** [repeat n f] — [f] sequenced [n] times. *)

val size : t -> int
(** Number of constructors reachable without forcing forks (test helper). *)

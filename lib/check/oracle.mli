(** The paper's theorems as reusable test oracles, plus a differential
    oracle spanning the serial 1DF analysis, all four simulated policies
    and the native pool.

    Each oracle states one checkable claim and returns a [result] (or a
    report record) rather than asserting, so unit, property and
    explorer suites share the same checks. *)

val lemma31 : ?p:int -> ?k:int -> ?seed:int -> Dfd_dag.Prog.t -> (unit, string) result
(** Lemma 3.1: during a DFDeques simulation the deques in R, flattened
    left to right, hold threads in exactly serial 1DF priority order.
    Runs the engine with [check_invariants] (the policy's own structural
    check after every timestep) and converts a violation to [Error].
    The program must be pure nested-parallel (no mutex/condvar actions). *)

type thm44_report = {
  p : int;
  k : int;
  c : int;  (** the constant standing in for the bound's O(.). *)
  s1 : int;  (** serial space S1 of the program. *)
  depth : int;  (** depth D under the paper's cost model. *)
  heap_peak : int;  (** measured DFDeques(K) peak on [p] processors. *)
  bound : int;  (** S1 + c * min(K, S1) * p * D. *)
  ok : bool;
}

val thm44 : ?c:int -> ?seed:int -> p:int -> k:int -> Dfd_dag.Prog.t -> thm44_report
(** Theorem 4.4: the space of DFDeques(K) on [p] processors is
    S1 + O(min(K,S1)·p·D).  Measures the peak and compares against the
    bound ([Dfd_obs.Headroom.thm44_bound]) instantiated with constant [c]
    (default [Dfd_obs.Headroom.default_c] = 8, the repo's long-used
    empirical headroom). *)

val thm44_result : thm44_report -> (unit, string) result
(** [Ok ()] iff the report's bound held; [Error] renders the numbers. *)

val space_accounting :
  ?sched:Dfdeques_core.Engine.sched ->
  Dfd_machine.Config.t ->
  Dfd_dag.Prog.t ->
  (unit, string) result
(** Run a simulation while independently recomputing the heap trajectory
    from the engine's executed-action [observer] stream (dummy threads
    and split big allocations included), and compare peak, final and
    gross-total bytes against the engine's own counters. *)

val differential :
  ?p:int ->
  ?seed:int ->
  ?k:int ->
  ?quota:int ->
  ?pool_domains:int ->
  Dfd_dag.Prog.t ->
  (unit, string) result
(** The cross-implementation oracle.  For a pure nested-parallel program:

    - every simulated policy (WS, DFDeques, ADF, FIFO) under infinite K
      executes exactly the program's dag — work, gross allocation and
      final heap all equal the serial 1DF analysis;
    - finite-K DFDeques passes {!space_accounting};
    - the native pool, under both deque disciplines, computes the same
      side-effect totals (work units, alloc/free bytes, touched
      addresses) as the serial reference, and leaks no tasks.

    Programs containing mutex/condvar actions are rejected with
    [Failure] (generate with [lock_prob = 0.0]). *)

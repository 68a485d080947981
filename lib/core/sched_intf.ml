(** Scheduler policy interface shared by DFDeques, work stealing, ADF and
    FIFO.

    The synchronous engine ({!Engine}) owns the timestep loop, the cost
    model, memory/cache accounting and all thread state transitions; a
    policy only decides {e where ready threads live} and {e which thread a
    processor gets next}.  This split keeps each scheduler close to its
    paper pseudocode (Figure 5 for DFDeques) and makes them directly
    comparable: they run under an identical execution and cost model. *)

(** Outcome of a processor asking for work. *)
type acquired =
  | Got_local of Thread_state.t
      (** obtained from the processor's own deque — a free scheduler
          transition; the thread's first action runs in the same timestep. *)
  | Got_steal of Thread_state.t
      (** obtained by a steal (or a dispatch from a global queue): consumes
          the timestep as the steal attempt, the stolen thread's first
          action still executes within it (Section 4.1 cost model); the
          engine resets the processor's memory quota. *)
  | No_work  (** failed steal attempt / empty queue: an idle timestep. *)

(** Everything a policy may consult; owned by the engine. *)
type ctx = {
  cfg : Dfd_machine.Config.t;
  metrics : Dfd_machine.Metrics.t;
  rng : Dfd_structures.Prng.t;
  tracer : Dfd_trace.Tracer.t;
      (** structured event sink; {!Dfd_trace.Tracer.disabled} unless the
          caller asked for a trace.  Policies must guard emissions with
          [Tracer.enabled] so the disabled path stays free. *)
  fault : Dfd_fault.Fault.t;
      (** fault-injection plan; {!Dfd_fault.Fault.none} unless the caller
          injects faults ([test_fault], [repro soak --plan]).  Policies
          consult it at each steal attempt / queue dispatch
          ({!Dfd_fault.Fault.steal_fails}) and must treat a positive
          answer as a failed attempt. *)
  last_active : int array;
      (** per processor, the last timestep it held work (maintained by the
          engine); [now - last_active.(proc)] at a successful steal or
          dispatch is the acquisition latency a policy should feed to
          {!Dfd_machine.Metrics.record_steal_latency}. *)
  mutable now : int;  (** current timestep (for steal-conflict arbitration). *)
}

module type POLICY = sig
  type t

  val name : string

  val global_queue : bool
  (** Dispatches/enqueues serialise through the simulated global scheduler
      lock (FIFO, ADF) — the "scheduling contention" of Section 2.2. *)

  val has_quota : bool
  (** The engine enforces the memory threshold K (quota preemption and the
      big-allocation dummy transformation) for this policy. *)

  val create : ctx -> t

  val register_root : t -> Thread_state.t -> unit
  (** Install the root thread before the first timestep. *)

  val acquire : t -> proc:int -> acquired
  (** The processor has no current thread; find it one. *)

  val on_fork : t -> proc:int -> parent:Thread_state.t -> child:Thread_state.t -> Thread_state.t
  (** [parent] just forked [child]; park one of the two, return the thread
      the processor continues executing. *)

  val on_suspend : t -> proc:int -> Thread_state.t -> unit
  (** The current thread suspended (join or blocking lock); it is parked on
      its waitee, not in any ready container.  The policy may react (e.g.
      nothing for deque schedulers). *)

  val on_terminate :
    t -> proc:int -> dead:Thread_state.t -> woken:Thread_state.t option -> Thread_state.t option
  (** The current thread terminated, possibly waking its suspended parent.
      Return the thread the processor continues with (commonly the woken
      parent), or [None] to make it look for other work. *)

  val on_quota_exhausted : t -> proc:int -> Thread_state.t -> unit
  (** The processor's memory quota ran out before an allocation: the
      current (preempted) thread must be parked ready; for DFDeques the
      processor also abandons its deque (Figure 5, "give up stack"). *)

  val after_dummy : t -> proc:int -> woken:Thread_state.t option -> unit
  (** A dummy thread of the big-allocation transformation just terminated
      on this processor: park the woken parent (if any) and make the
      processor give up its deque and steal (Section 3.3). *)

  val on_wake_lock : t -> proc:int -> Thread_state.t -> unit
  (** A mutex release on [proc] woke this thread; park it ready.  [proc]
      keeps its current thread. *)

  val check_invariants : t -> unit
  (** Raise [Failure] if a structural invariant is violated (used by tests;
      e.g. Lemma 3.1 for DFDeques). *)

  val stat : t -> (string * int) list
  (** Observability: implementation-specific counters. *)
end

type packed = Packed : (module POLICY with type t = 't) * 't -> packed

(** Typed scheduler trace events.

    One event records one scheduler-level occurrence at a point in time on
    one processor, executing one thread.  Under the simulator the timestamp
    is the synchronous timestep; under the native pool it is wall-clock
    microseconds since pool creation.  [proc] is the simulated processor
    or worker-domain index, [-1] when the event is machine-wide rather
    than tied to one processor; [tid] is the executing thread id, [-1]
    when no thread is associated.  The two conventions are independent:
    a {!kind.Quota_adjusted} decision has [proc = -1] but may carry a
    [tid], while a {!kind.Counter} sample is machine-wide on both axes
    and always carries [proc = -1] {e and} [tid = -1] (asserted by
    [test/validate_trace.ml] on the exported trace and by [test_trace]
    on the raw stream).

    The vocabulary covers everything the paper's Sections 4–6 reason
    about: steals and their outcomes, memory-quota exhaustions, dummy
    threads from the big-allocation transformation, deque lifecycle in the
    global list R, cache-miss stalls, lock waiting, and the executed unit
    actions themselves. *)

type kind =
  | Fork of { child : int }  (** [tid] forked thread [child]. *)
  | Join of { child : int }
      (** [tid] suspended at a join waiting for [child] (joins that find
          the child already dead are free transitions and are not
          recorded). *)
  | Steal_attempt of { victim : int }
      (** A steal attempt targeting victim processor (WS) or deque slot in
          R (DFDeques); [-1] when the target could not be resolved (empty
          R). *)
  | Steal_success of { victim : int; latency : int }
      (** The attempt succeeded; [latency] is the time the thief spent
          without work before this steal (see {!Dfd_machine.Metrics}). *)
  | Quota_exhausted of { used : int; quota : int }
      (** The processor's memory quota ran out: it had allocated [used] of
          its [quota] bytes net and must give up its deque (Figure 5). *)
  | Dummy_exec  (** A dummy thread of the Section 3.3 transformation ran. *)
  | Deque_created of { did : int }  (** Deque [did] entered R. *)
  | Deque_deleted of { did : int; residency : int }
      (** Deque [did] left R after [residency] time units. *)
  | Cache_miss_stall of { misses : int; stall : int }
      (** A [Touch] action missed [misses] times, stalling [stall] extra
          timesteps. *)
  | Lock_wait of { mutex : int }
      (** [tid] blocked (or spun one step) on a contended mutex. *)
  | Action_batch of { units : int }
      (** [tid] executed an action of [units] work units on [proc]. *)
  | Counter of { deques : int; heap : int; threads : int }
      (** Periodic sample of live deques in R, live heap bytes and live
          threads — the counter tracks of the Chrome export.  Emitted
          machine-wide with both [proc = -1] and [tid = -1]. *)
  | Fault_injected of { fault : string }
      (** The fault-injection layer ({!Dfd_fault.Fault}) fired here;
          [fault] is the injected kind ("stall", "steal_fail", ...). *)
  | Quota_adjusted of { from_quota : int; to_quota : int; pressure : int }
      (** The adaptive quota controller ({!Dfd_service.Quota_ctl}) moved
          the DFDeques memory threshold K from [from_quota] to [to_quota]
          in response to observed allocation [pressure] (bytes per control
          interval) — the graceful-degradation lever on the Theorem 4.4
          space bound. *)
  | Steal_rank of { victim : int; rank : int; err : int }
      (** A successful DFDeques steal under the relaxed R-list: the
          victim deque [victim] (its [did]) sat at 0-based position
          [rank] in the relaxed global order; [err] is how far outside
          the exact leftmost-[p] window that is ([max 0 (rank - (p-1))],
          0 when the relaxation cost nothing on this steal). *)
  | Worker_quarantined of { worker : int; cause : string }
      (** The pool declared worker [worker] dead and fenced it out of the
          scheduling structures — [cause] is ["crash"] (the worker's own
          death certificate) or ["wedge"] (a supervisor's verdict).
          [proc] is the worker that won the quarantine race. *)
  | Task_requeued of { worker : int }
      (** The task the quarantined worker [worker] held (taken but never
          started) was recovered and requeued exactly once. *)
  | Worker_respawned of { worker : int }
      (** A fresh domain was spawned into quarantined worker slot
          [worker] under the pool's respawn budget. *)

type t = { ts : int; proc : int; tid : int; kind : kind }

val kind_name : kind -> string
(** Stable lowercase category name ("fork", "steal_attempt", ...). *)

val n_kinds : int

val kind_index : kind -> int
(** Dense index in [0, n_kinds): per-category counting. *)

val kind_names : string array
(** Category name per {!kind_index}. *)

val equal : t -> t -> bool

val to_json : t -> Json.t
(** Schema: [{"ts":..,"proc":..,"tid":..,"ev":"<kind_name>", ...payload}]
    with payload fields flattened into the same object. *)

val of_json : Json.t -> t
(** Inverse of {!to_json}; raises {!Json.Parse_error} on schema
    mismatch. *)

val pp : Format.formatter -> t -> unit

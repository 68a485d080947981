(** Weighted-fair admission queues: one FIFO per tenant, dispatched by
    deficit round-robin.  The queues are unbounded: the service's
    admission check ([Service.submit]) enforces each tenant's
    [queue_bound] over queued, retrying and in-flight jobs together.

    Dispatch walks the tenants in registration order; entering a
    tenant's turn grants it [weight] credits (one credit = one job, the
    DRR quantum), and the turn ends when the credits are spent {e or}
    the tenant's queue drains (an empty lane forfeits its leftover
    credit — the scheduler is work-conserving).  Over any interval in
    which a set of tenants stays backlogged, each backlogged tenant's
    dispatch count is within one quantum (its weight) of its
    weight-proportional share — the property [test_service] checks with
    qcheck.

    Everything is driven from the service's single driver thread and is
    a pure function of the push/pop call sequence, so fair-queue
    decisions never break the soak report's byte-determinism. *)

type 'a t

val create : unit -> 'a t

val add_tenant : 'a t -> name:string -> weight:int -> unit
(** Register a lane; registration order is dispatch order.  Raises
    [Invalid_argument] on duplicates or a non-positive weight. *)

val push : 'a t -> tenant:string -> 'a -> unit
(** Append to the lane's FIFO: new admissions and retries of
    already-admitted jobs. *)

val push_front : 'a t -> tenant:string -> 'a -> unit
(** Prepend — for exactly-once wedge requeues. *)

val pop : 'a t -> (string * 'a) option
(** Next [(tenant, job)] in DRR order; [None] when every lane is
    empty. *)

val remove : 'a t -> tenant:string -> ('a -> bool) -> 'a option
(** Remove and return the first queued job satisfying the predicate
    (for cancellation); [None] if no queued job matches. *)

val depth : 'a t -> string -> int
(** Jobs currently queued in the lane. *)

val peak_depth : 'a t -> string -> int
(** High watermark of {!depth} over the queue's lifetime. *)

val total : 'a t -> int
(** Jobs queued across all lanes. *)

(** Weighted-fair admission queues: one bounded FIFO per tenant,
    dispatched by deficit round-robin.

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

val add_tenant : 'a t -> name:string -> weight:int -> bound:int -> unit
(** Register a lane.  Raises [Invalid_argument] on duplicates, a
    non-positive weight or a non-positive bound. *)

val tenants : 'a t -> string list
(** Lane names in registration (= dispatch) order. *)

val weight : 'a t -> string -> int

val bound : 'a t -> string -> int

val push : 'a t -> tenant:string -> 'a -> (unit, [ `Queue_full ]) result
(** Append to the lane's FIFO; [Error `Queue_full] once the lane holds
    [bound] jobs. *)

val push_force : 'a t -> tenant:string -> 'a -> unit
(** Append ignoring the bound — for retries of already-admitted jobs
    (the service accounts pending retries against the bound at
    admission, so a forced push cannot exceed it in a correct driver). *)

val push_front : 'a t -> tenant:string -> 'a -> unit
(** Prepend ignoring the bound — for exactly-once wedge requeues. *)

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

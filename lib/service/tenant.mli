(** Tenant descriptors for the multi-tenant front door.

    A tenant is one admission lane of the service: it owns a bounded
    queue inside {!Fair_queue}, a deficit-round-robin weight (its
    guaranteed share of dispatch slots under contention), and — under
    a [Dfdeques] pool — its own adaptive memory-threshold budget
    ({!Quota_ctl}).  Isolation is the point: one tenant exhausting its
    queue or blowing its K budget degrades only that tenant's lane, never its
    neighbours' (the admission-level analogue of the paper's per-deque
    locality regions). *)

type t = {
  name : string;  (** unique lane name; ["default"] is the implicit single lane. *)
  weight : int;  (** DRR weight [>= 1]: dispatch share under contention. *)
  queue_bound : int;
      (** bound on the tenant's in-service load (queued + pending
          retries + in flight), [>= 1]. *)
  quota : Quota_ctl.config option;
      (** per-tenant adaptive-K budget; [None] inherits the service
          config's template (or runs without one under
          [Work_stealing]). *)
}

val make : ?weight:int -> ?queue_bound:int -> ?quota:Quota_ctl.config -> string -> t
(** [make name] with weight 1 and bound 64. *)

val default : t
(** The single implicit lane: name ["default"], weight 1, bound 64. *)

val validate : t -> unit
(** Raises [Invalid_argument] on an empty name, a non-positive weight
    or a non-positive queue bound. *)

val validate_all : t list -> unit
(** {!validate} each tenant and reject duplicate names. *)

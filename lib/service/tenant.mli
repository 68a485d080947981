(** Tenant descriptors for the multi-tenant front door.

    A tenant is one admission lane of the service: it owns a bounded
    queue inside {!Fair_queue} and a deficit-round-robin weight (its
    guaranteed share of dispatch slots under contention).  Isolation is
    the point: one tenant exhausting its queue degrades only that
    tenant's lane, never its neighbours' (the admission-level analogue
    of the paper's per-deque locality regions).  Every lane runs at the
    service pool's one memory threshold K. *)

type t = {
  name : string;  (** unique lane name; ["default"] is the implicit single lane. *)
  weight : int;  (** DRR weight [>= 1]: dispatch share under contention. *)
  queue_bound : int;
      (** bound on the tenant's in-service load (queued + pending
          retries + in flight), [>= 1]. *)
}

val make : ?weight:int -> ?queue_bound:int -> string -> t
(** [make name] with weight 1 and bound 64. *)

val default : t
(** The single implicit lane: name ["default"], weight 1, bound 64. *)

val validate : t -> unit
(** Raises [Invalid_argument] on an empty name, a non-positive weight
    or a non-positive queue bound. *)

val validate_all : t list -> unit
(** {!validate} each tenant and reject duplicate names. *)

(** Submission handles for the non-blocking front door.

    [Service.submit] returns immediately with a handle; the job's
    lifecycle (queued → terminal outcome) is observable through it.
    There is no running state: the driver thread runs each attempt to
    completion inside one [Service.step], so no reader of a handle can
    see an attempt in flight.  The type is polymorphic in the outcome
    so this module stays free of a dependency cycle with {!Service},
    which instantiates ['a] with its [outcome] type.

    Handles are driven from the service's single driver thread:
    {!resolve} runs the registered callbacks synchronously on that
    thread (inside the service's ledger acknowledgement), so callbacks
    must be quick and must not re-enter the service. *)

type 'a status =
  | Queued
      (** admitted, not yet settled: in its tenant's lane, between
          retries, or inside the driver's step that runs it. *)
  | Done of 'a  (** terminal; never changes again. *)

type 'a t

val make : id:int -> tenant:string -> 'a t
(** A fresh [Queued] handle. *)

val id : 'a t -> int
(** The ledger job id. *)

val tenant : 'a t -> string

val status : 'a t -> 'a status

val is_done : 'a t -> bool

val resolve : 'a t -> 'a -> unit
(** Transition to [Done] and fire the callbacks in registration order.
    A second resolve is ignored (terminal outcomes are single-writer by
    the service's ledger; the handle enforces it independently). *)

val on_done : 'a t -> ('a -> unit) -> unit
(** Register a completion callback; fires immediately (synchronously)
    if the handle is already terminal. *)

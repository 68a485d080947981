(** Low-overhead structured event rings: the one sink for {!Event.t},
    serving both full tracing and always-on crash forensics.

    A tracer is an array of {e lanes}, each a fixed-capacity ring with a
    single writer.  Emission is an array store plus two integer bumps on
    the writer's own lane; when a lane is full its oldest events are
    overwritten (and counted in {!dropped}).  Per-category counts are
    kept per lane, exactly, so summary statistics survive overflow.  No
    emit takes a lock: concurrent writers never share a lane.

    {b Lanes.}  [proc >= 0] writes lane [proc]; any other [proc] —
    negative (a machine-wide sample), or past the last lane — writes the
    last lane.  The simulator (one thread) uses one lane, or [p + 1] for
    its flight ring, whose last lane holds the machine-wide counter
    track.  The native pool needs [n_workers], one per worker: only
    workers write its rings.

    {b Retention} is the capacity chosen at each call site: [1 lsl 20]
    (the default) for a full trace, 256 per lane for a crash-forensics
    ring that is always on and dumped with {!write_file} when a run dies.

    {b The disabled path is free.}  {!disabled} is a shared zero-lane
    tracer with [enabled = false]; instrumentation sites must guard with
    {!enabled} so that no event (and none of its arguments) is even
    allocated when tracing is off:

    {[ if Tracer.enabled tr then Tracer.emit tr ~ts ~proc ~tid (Fork { child }) ]} *)

type t

val disabled : t
(** The shared no-op tracer ([enabled = false], no lanes). *)

val create : ?capacity:int -> ?lanes:int -> unit -> t
(** An enabled tracer of [lanes] rings (default 1) of [capacity] events
    each (default [1 lsl 20]).  Both must be positive. *)

val enabled : t -> bool

val lanes : t -> int
(** Number of lanes (0 for {!disabled}). *)

val emit : t -> ts:int -> proc:int -> tid:int -> Event.kind -> unit
(** Append to the lane chosen by [proc] (see above).  No-op on a disabled
    tracer (but prefer guarding with {!enabled} so the kind is not
    allocated). *)

val length : t -> int
(** Events currently held, summed over lanes. *)

val dropped : t -> int
(** Events overwritten because their lane was full. *)

val total : t -> int
(** Total events ever emitted ([length + dropped]). *)

val events : t -> Event.t list
(** Retained events.  One lane: emission order.  Several lanes: merged
    by [(ts, lane, arrival)], which is exact under the simulator's
    logical clock and best-effort under wall-clock stamps.  Safe against
    concurrent writers: a slot torn by one surfaces as a dropped event,
    never as a fake one (events must carry [ts >= 0]). *)

val count : t -> Event.kind -> int
(** Events ever emitted in the same category as the given kind (payload
    ignored; includes dropped events). *)

val clear : t -> unit
(** Drop all retained events and reset every counter. *)

val to_json : ?snapshot:string -> reason:string -> t -> Json.t
(** The crash-forensics artifact:
    [{"flight": {"reason","lanes","capacity","recorded","dropped",
    "events":[...]}}], with [recorded] = {!total} and events in {!events}
    order, {!Event.to_json} encoded.  [snapshot] (a human-readable
    diagnostic dump, e.g. [Pool.snapshot]) is embedded as a ["snapshot"]
    string so the post-mortem state travels with the artifact. *)

val write_file : ?snapshot:string -> path:string -> reason:string -> t -> unit
(** {!to_json} to [path], newline-terminated. *)
